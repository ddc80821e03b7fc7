import numpy as np
import pytest

from schemeforge import permgroup
from schemeforge.chartab import (closed_form_psl2, compare_tables,
                                 compute_character_table)
from schemeforge.errors import (CapExceeded, NotEnumerated, NotSubgroup,
                                NotTransitive, ParseError, SchemeForgeError)
from schemeforge.gf import field_for
from schemeforge.loopcore import inner_orbits, loop_from_group
from schemeforge.permgroup import (CosetAction, PermutationGroup,
                                   closure, coset_action, cyclic,
                                   double_cosets, group_scheme, is_subgroup,
                                   load_generators, min_label_components,
                                   orbitals, pair_orbits,
                                   parse_generator_line, parse_generators,
                                   psl2, regular_action, sl2, stabilizer,
                                   symmetric)
from schemeforge.scheme import AssociationScheme, intersection_numbers


def test_permutation_composition_order():
    s3 = symmetric(3)
    p, q = [1, 0, 2], [0, 2, 1]     # swap 0,1; swap 1,2
    a, b = s3.rows_to_indices([p, q])
    # p then q: 0 -> 1 -> 2
    assert s3.elements[s3.mul(a, b)].tolist() == [2, 0, 1]
    assert s3.elements[s3.mul(b, a)].tolist() == [1, 2, 0]


def test_permutation_inverse_and_identity():
    p = permgroup._cycle_images([[0, 1, 2], [3, 4]], 5)
    assert p == [1, 2, 0, 4, 3]
    g = closure([p])
    assert g.order == 6
    assert g.elements[0].tolist() == [0, 1, 2, 3, 4]
    for x, x_inv in enumerate(g.inv_array()):
        assert g.elements[x_inv].tolist() == np.argsort(g.elements[x]).tolist()


@pytest.mark.parametrize("make", [closure, PermutationGroup])
@pytest.mark.parametrize("gens,named", [
    ([[0, 0, 1]], r"row 0, \[0, 0, 1\],"),
    ([[1, 0, 5]], r"row 0, \[1, 0, 5\],"),
    ([[1, 2, 0], [2, 2, 0]], r"row 1, \[2, 2, 0\],"),
    ([], "at least one generator"),
    ([[1, 2, 0], [0, 1]], "one length"),
    ([[1.0, 2.0, 0.0]], "must hold integers")],
    ids=["repeated-point", "point-outside", "second-row", "no-rows", "mixed-degrees",
         "float-rows"])
def test_generator_rows_are_checked(make, gens, named):
    with pytest.raises(ValueError, match=named):
        make(gens)


@pytest.mark.parametrize("call,error,message", [
    # 17321^2 is the first square above the relation cap of 3 * 10^8
    (lambda: orbitals(PermutationGroup([np.roll(np.arange(17_321), 1)])), CapExceeded,
     r"17321\^2 relation entries exceed the cap"),
    (lambda: coset_action(psl2(5), [0, 1]), NotSubgroup, "needs a subgroup"),
    (lambda: cyclic(0), ValueError, r"n >= 1"),
], ids=["orbital-cap", "coset-of-a-non-subgroup", "cyclic-0"])
def test_group_inputs_out_of_scope_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_generator_rows_are_read_only_point_dtype_arrays():
    for gens, dtype in [([[1, 2, 0]], np.uint8), (psl2(16).generators, np.uint8),
                        ([np.roll(np.arange(300), 1)], np.uint16)]:
        group = PermutationGroup(gens)
        assert group.generators.dtype == dtype
        assert group.generators.tolist() == np.asarray(gens).tolist()
        assert not group.generators.flags.writeable


def test_public_names_resolve_and_exclude_permutation():
    import schemeforge
    for name in schemeforge.__all__:
        getattr(schemeforge, name)
    assert "Permutation" not in schemeforge.__all__
    assert not hasattr(permgroup, "Permutation")


def test_parse_generator_line_image_form():
    assert parse_generator_line("2 0 1").tolist() == [2, 0, 1]


def test_parse_generator_line_cycle_form():
    # cycle lines come back as raw cycles; the file parser fixes the degree
    assert parse_generator_line("(0 1 2)(3 4)") == [[0, 1, 2], [3, 4]]
    gens = parse_generators("(0 1 2)(3 4)\n")
    assert gens.tolist() == [[1, 2, 0, 4, 3]]
    padded = parse_generators("(0 1)\n", degree=4)
    assert padded.tolist() == [[1, 0, 2, 3]]


def test_parse_generators_skips_comments_and_pads():
    text = "# two generators of S3\n(0 1)\n\n(0 1 2)\n"
    gens = parse_generators(text)
    assert gens.tolist() == [[1, 0, 2], [1, 2, 0]]


@pytest.mark.parametrize("bad", ["1 1 0", "(0 1", "(0 1)(1 2)", "a b c", "0 2"])
def test_parse_generator_line_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_generator_line(bad)


@pytest.mark.parametrize("text,degree,message", [
    ("(0 a)\n", None, r"non-integer point in cycle '0 a' \(line 1\)"),
    ("(0 -1)\n", None, r"cycle points must be non-negative \(line 1\)"),
    ("(0 1 2)\n1 0\n", None, r"image list of length 2 in a degree-3 file \(line 2\)"),
    ("1 0\n", 3, r"image list has length 2, expected 3 \(line 1\)"),
    ("# a comment only\n\n", None, "no generators found"),
    ("(0 5)\n", 4, r"cycle point 5 outside 0..3 \(line 1\)"),
])
def test_parse_generators_names_each_malformed_file(text, degree, message):
    with pytest.raises(ParseError, match=message):
        parse_generators(text, degree=degree)


def test_parse_generators_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_generators("(0 1)\n0 0 1\n")
    assert "2" in str(err.value)


def test_load_generators(tmp_path):
    path = tmp_path / "s3.gens"
    path.write_text("(0 1)\n(0 1 2)\n")
    gens = load_generators(path)
    assert closure(gens).order == 6


def test_closure_orders():
    s3 = closure(parse_generators("(0 1)\n(0 1 2)\n"))
    assert s3.order == 6
    z6 = closure([[1, 2, 3, 4, 5, 0]])
    assert z6.order == 6
    d4 = closure(parse_generators("(0 1 2 3)\n(0 2)\n"))
    assert d4.order == 8


def test_closure_cap():
    with pytest.raises(CapExceeded):
        closure(symmetric(6).generators, cap=100)


def _frozen_bfs(generators, cap=10**9):
    """Image tuples of the breadth-first closure that the array-frontier
    search replaced: a queue over image tuples, appending each new x * s
    for x in queue order and s in generator order."""
    gens = [tuple(int(p) for p in g) for g in generators]
    ident = tuple(range(len(gens[0])))
    elements = [ident]
    index = {ident: 0}
    head = 0
    while head < len(elements):
        x = elements[head]
        head += 1
        for s in gens:
            y = tuple(s[p] for p in x)      # x * s: x first, then s
            if y not in index:
                if len(elements) >= cap:
                    raise CapExceeded(f"group closure exceeded the cap of {cap} elements")
                index[y] = len(elements)
                elements.append(y)
    return elements


def _generator_sets(tmp_path):
    d4_file = tmp_path / "d4.gens"
    d4_file.write_text("(0 1 2 3)\n(0 2)\n")
    s4 = symmetric(4).generators
    g5 = psl2(5)
    sets = {"cyclic(1)": cyclic(1).generators, "cyclic(12)": cyclic(12).generators,
            "D4 file": load_generators(d4_file),
            "repeated and identity": [s4[0], np.arange(4), s4[0], s4[1]],
            "regular PSL(2,5)": regular_action(g5).generators,
            "coset PSL(2,5)": coset_action(g5, stabilizer(g5, 0)).group.generators}
    sets.update({f"S{n}": symmetric(n).generators for n in range(3, 8)})
    sets.update({f"PSL(2,{q})": psl2(q).generators for q in (2, 3, 4, 5, 7, 8, 9, 16)})
    sets.update({f"SL(2,{q})": sl2(q).generators for q in (2, 3, 4, 5)})
    return sets


@pytest.mark.parametrize("slice_bytes", [None, 1])
def test_closure_matches_frozen_bfs(tmp_path, monkeypatch, slice_bytes):
    if slice_bytes is not None:     # one frontier row per slice
        monkeypatch.setattr(permgroup, "CLOSURE_SLICE_BYTES", slice_bytes)
    for name, gens in _generator_sets(tmp_path).items():
        want = _frozen_bfs(gens)
        group = closure(gens)
        assert group.elements.tolist() == [list(w) for w in want], name
    gens = psl2(5).generators
    assert closure(gens, cap=60).order == 60
    with pytest.raises(CapExceeded):
        closure(gens, cap=59)
    with pytest.raises(CapExceeded):
        _frozen_bfs(gens, cap=59)


def test_closure_above_uint16_points():
    # points up to 70,000 need the uint32 point dtype
    group = closure([permgroup._cycle_images([[0, 1, 70000]], 70001)])
    assert group.order == 3
    assert group.generators.dtype == group.elements.dtype == np.uint32
    assert len(group.conjugacy_classes()) == 3
    assert group_scheme(group).d == 2


@pytest.mark.parametrize("make,arg", [(psl2, q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]
                         + [(sl2, 3), (sl2, 5), (symmetric, 5), (cyclic, 7)])
def test_closure_lists_the_group_once(make, arg):
    # the lookup checks no listed row, so closure must guarantee the list
    group = make(arg)
    els = group.elements
    n = group.order
    assert els[0].tolist() == list(range(group.degree))
    assert np.unique(els, axis=0).shape[0] == n
    # x -> x * s, whose image row is s[x]; rows_to_indices compares in full
    right = [group.rows_to_indices(s[els]) for s in group.generators]
    assert all(np.array_equal(np.sort(r), np.arange(n)) for r in right)
    assert not min_label_components(np.arange(n), right).any()


def test_mul_matches_composition():
    g = symmetric(4)
    els = g.elements
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b = rng.integers(0, g.order, 2)
        assert els[g.mul(a, b)].tolist() == els[b][els[a]].tolist()
    inv = g.inv_array()
    for a in range(g.order):
        assert int(g.mul(a, inv[a])) == 0


def test_identity_is_element_zero():
    for g in (symmetric(4), cyclic(5), psl2(4)):
        assert g.elements[0].tolist() == list(range(g.degree))


@pytest.mark.parametrize("n,expected", [(3, [1, 2, 3]), (4, [1, 3, 6, 6, 8])])
def test_symmetric_group_class_sizes(n, expected):
    classes = symmetric(n).conjugacy_classes()
    assert sorted(len(c) for c in classes) == sorted(expected)
    assert len(classes[0]) == 1 and classes[0][0] == 0


def test_class_ordering_by_size_then_min():
    sizes = [len(c) for c in symmetric(4).conjugacy_classes()]
    assert sizes == sorted(sizes)
    class_of = symmetric(4).class_of_array()
    assert class_of[0] == 0
    assert class_of.shape == (24,)


def test_cyclic_group_classes_are_singletons():
    assert [len(c) for c in cyclic(6).conjugacy_classes()] == [1] * 6


def _bfs_classes(group):
    """Reference classes: a breadth-first search from each unassigned element
    under conjugation by the generators, composing image rows directly."""
    els = group.elements
    assigned = set()
    classes = []
    for g in range(group.order):
        if g in assigned:
            continue
        orbit = [g]
        assigned.add(g)
        for x in orbit:
            for s in group.generators:
                # s^-1 * x * s sends p to s[x[s^-1[p]]]
                y = int(group.rows_to_indices(s[els[x][np.argsort(s)]]))
                if y not in assigned:
                    assigned.add(y)
                    orbit.append(y)
        classes.append(sorted(orbit))
    classes.sort(key=lambda c: (len(c), c[0]))
    return classes


@pytest.mark.parametrize(
    "make,arg", [(symmetric, n) for n in range(2, 7)]
    + [(cyclic, n) for n in range(1, 13)]
    + [(psl2, q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    + [(sl2, q) for q in (2, 3, 4, 5)],
    ids=lambda v: v.__name__ if callable(v) else str(v))
def test_conjugacy_classes_match_bfs_reference(make, arg):
    group = make(arg)
    assert group.conjugacy_classes() == _bfs_classes(group)


def _smallest_in_component(n, pairs):
    """Reference labels: union-find over the edge list, one edge at a time."""
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x
    for a, b in pairs:
        ra, rb = root(a), root(b)
        parent[max(ra, rb)] = min(ra, rb)
    return np.array([root(x) for x in range(n)])


@pytest.mark.parametrize("seed", range(5))
def test_min_label_components_matches_union_find(seed):
    rng = np.random.default_rng(seed)
    n = 300

    def moving(k):
        # a random function that moves at most k points, so that many
        # components remain
        image = np.arange(n)
        image[rng.integers(n, size=k)] = rng.integers(n, size=k)
        return image
    first = [moving(40), moving(20)]
    # a permutation joins along its cycles
    second = [rng.permutation(n) if seed % 2 else moving(25)]
    # joining along the first maps, then the second on top of those labels,
    # is the same as joining along all of them at once
    label = min_label_components(np.arange(n), first)
    both = [(x, int(image[x])) for image in first + second for x in range(n)]
    want = _smallest_in_component(n, both)
    assert np.array_equal(min_label_components(label, second), want)
    assert np.array_equal(min_label_components(np.arange(n), first + second), want)
    assert np.array_equal(min_label_components(np.arange(n), []), np.arange(n))


@pytest.mark.parametrize("make,arg", [(psl2, 7), (sl2, 5), (symmetric, 5)],
                         ids=["psl2-7", "sl2-5", "symmetric-5"])
def test_mul_table_matches_composition(make, arg):
    group = make(arg)
    table = group.mul_table()
    assert table.dtype == np.int32
    assert table.tolist() == _product_table(group).tolist()


def test_orbitals_two_transitive_action():
    scheme = orbitals(symmetric(3))
    assert scheme.n == 3 and scheme.d == 1
    assert scheme.valencies.tolist() == [1, 2]


def test_orbitals_cyclic_rotation_action():
    scheme = orbitals(cyclic(4))
    assert scheme.n == 4 and scheme.d == 3
    mat = scheme.dense_matrix()
    # relation class depends only on the difference of the points
    for x in range(4):
        for y in range(4):
            assert mat[x, y] == mat[0, (y - x) % 4]
    assert scheme.transpose_map.tolist() == [0, 3, 2, 1]


def _product_table(group):
    """Reference table[a, b] = index(a * b) from the composed image rows
    els[b][els[a]]."""
    els = group.elements
    return group.rows_to_indices(els[np.arange(group.order)[None, :, None],
                                     els[:, None, :]])


def _frozen_orbital_matrix(group):
    """The orbit relabel that canonical_labels replaced: orbit 0 (the
    diagonal) first, then the others sorted by (size, orbit id)."""
    n = group.degree
    orbit_id, count = pair_orbits(group.generators, n)
    sizes = np.bincount(orbit_id, minlength=count)
    rest = sorted(range(1, count), key=lambda o: (int(sizes[o]), o))
    relabel = np.empty(count, dtype=np.int64)
    relabel[0] = 0
    for new, old in enumerate(rest, start=1):
        relabel[old] = new
    return relabel[orbit_id].reshape(n, n)


def test_orbitals_relabel_matches_frozen_sort():
    groups = [psl2(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    groups += [symmetric(5), regular_action(psl2(5))]
    for group in groups:
        got = orbitals(group).dense_matrix()
        assert np.array_equal(got, _frozen_orbital_matrix(group)), group


def test_orbitals_requires_transitivity():
    g = closure([[1, 0, 2]])
    with pytest.raises(NotTransitive):
        orbitals(g, 3)


def test_orbitals_refuses_another_degree():
    with pytest.raises(ValueError, match="group acts on 8 points, not 9"):
        orbitals(psl2(7), n_points=9)


def test_group_scheme_s3():
    scheme = group_scheme(symmetric(3))
    assert scheme.n == 6 and scheme.d == 2
    assert scheme.valencies.tolist() == [1, 2, 3]


def test_group_scheme_diagonal_and_symmetry():
    scheme = group_scheme(symmetric(4))
    mat = scheme.dense_matrix()
    assert np.array_equal(np.diag(mat), np.zeros(24, dtype=mat.dtype))
    # conjugation-invariant: rel(x, y) = rel(gx, gy) for left translation g
    g = symmetric(4)
    rng = np.random.default_rng(8)
    for _ in range(100):
        a, x, y = (int(v) for v in rng.integers(0, 24, 3))
        assert mat[x, y] == mat[int(g.mul(a, x)), int(g.mul(a, y))]


def _cycle_type(perm):
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, p = 0, start
        while p not in seen:
            seen.add(p)
            p = perm[p]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def test_group_scheme_s7_matches_cycle_types():
    # the relation of (x, y) is the class of y x^-1, which in S7 is fixed
    # by its cycle type
    g = symmetric(7)
    els = g.elements
    mat = group_scheme(g).dense_matrix()
    assert mat.shape == (5040, 5040)
    types = {}
    for cid, members in enumerate(g.conjugacy_classes()):
        types[cid] = _cycle_type(els[members[0]])
    assert len(set(types.values())) == 15
    rng = np.random.default_rng(7)
    for x, y in rng.integers(0, g.order, (200, 2)).tolist():
        rel = int(mat[x, y])
        # y * x^-1 sends p to x^-1[y[p]]
        assert types[rel] == _cycle_type(np.argsort(els[x])[els[y]])


def _dense_group_scheme(group):
    """Reference relation class(x^-1 y) from the multiplication table."""
    class_of = group.class_of_array()
    return AssociationScheme.from_matrix(class_of[group.mul_table()][group.inv_array()])


@pytest.mark.parametrize("make", [
    *[(symmetric, n) for n in range(3, 7)],
    *[(cyclic, n) for n in range(2, 13)],
    *[(psl2, q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)],
    *[(sl2, q) for q in (2, 3, 4, 5)],
], ids=lambda m: f"{m[0].__name__}({m[1]})")
def test_group_scheme_identity_rows_match_dense_reference(make):
    group = make[0](make[1])
    scheme = group_scheme(group)
    assert scheme.orbital and not scheme.is_dense
    dense = _dense_group_scheme(group)
    assert np.array_equal(scheme.valencies, dense.valencies)
    assert np.array_equal(scheme.transpose_map, dense.transpose_map)
    for x in (0, 1, group.order - 1):
        assert np.array_equal(scheme.rel_row(x), dense.rel_row(x))
        assert np.array_equal(scheme.rel_col(x), dense.rel_col(x))
    got = intersection_numbers(scheme).tensor
    assert np.array_equal(got, intersection_numbers(dense).tensor)


def _c2_power(k):
    """(C2)^k as k disjoint transpositions on 2k points: intransitive, with
    a base of k points."""
    return closure([permgroup._cycle_images([[2 * i, 2 * i + 1]], 2 * k)
                    for i in range(k)])


@pytest.mark.parametrize("make,arg", [(psl2, 5), (symmetric, 6), (sl2, 4),
                                      (cyclic, 12), (_c2_power, 14)],
                         ids=["psl2-5", "symmetric-6", "sl2-4", "cyclic-12",
                              "c2-power-14"])
def test_group_division_matches_composition(make, arg):
    g = make(arg)
    els = g.elements
    rng = np.random.default_rng(3)
    V, U = rng.integers(0, g.order, (2, 50))
    got = g.div(V[:, None], U[None, :])
    assert got.shape == (50, 50)
    for i in range(0, 50, 7):
        for j in range(0, 50, 5):
            # u^-1 * v sends p to v[u^-1[p]]
            want = els[V[i]][np.argsort(els[U[j]])]
            assert els[got[i, j]].tolist() == want.tolist()


@pytest.mark.slow
def test_psl2_32_group_scheme_reaches_closed_form():
    # n = 32,736: no n x n array is built on the way to the table
    scheme = group_scheme(psl2(32))
    table = compute_character_table(scheme)
    assert compare_tables(table, closed_form_psl2(32), tol=1e-8).matched


@pytest.mark.slow
def test_psl2_64_group_scheme_reaches_closed_form():
    # n = 262,080 lies above the default closure cap
    scheme = group_scheme(psl2(64, cap=262_080))
    table = compute_character_table(scheme)
    assert compare_tables(table, closed_form_psl2(64), tol=1e-8).matched


def test_is_subgroup():
    s3 = symmetric(3)
    assert is_subgroup(s3, stabilizer(s3, 2))
    assert is_subgroup(s3, [0])
    assert is_subgroup(s3, range(6))
    assert not is_subgroup(s3, [1, 2])  # no identity
    # two element subset closed only if the non-identity element is an involution
    three_cycle = int(s3.rows_to_indices([1, 2, 0]))
    assert not is_subgroup(s3, [0, three_cycle])
    # members are a set: order and repeats do not matter, and none is no group
    assert is_subgroup(s3, [5, 0, 3, 0, 4, 1, 2, 5])
    assert not is_subgroup(s3, [three_cycle, 0, three_cycle])
    assert not is_subgroup(s3, [])


def test_stabilizer_sizes():
    s4 = symmetric(4)
    assert len(stabilizer(s4, 3)) == 6
    assert len(stabilizer(psl2(4), 0)) == 12


@pytest.mark.parametrize("make,arg", [(symmetric, 4), (psl2, 7), (sl2, 3)],
                         ids=["symmetric-4", "psl2-7", "sl2-3"])
def test_stabilizer_matches_element_scan(make, arg):
    group = make(arg)
    els = group.elements.tolist()
    for point in range(group.degree):
        assert stabilizer(group, point) == [
            i for i, e in enumerate(els) if e[point] == point]


@pytest.mark.parametrize("point", [6, 99, -1])
def test_stabilizer_refuses_points_outside_the_action(point):
    with pytest.raises(ValueError, match=r"outside 0\.\.5"):
        stabilizer(psl2(5), point)


def test_rows_to_indices_refuses_non_members():
    g = psl2(5)
    assert int(g.rows_to_indices(g.elements[7])) == 7
    with pytest.raises(ValueError, match="not an element"):
        g.rows_to_indices([1, 0, 2, 3, 4, 5])                # a transposition
    with pytest.raises(ValueError, match="7 points, the group on 6"):
        g.rows_to_indices(np.arange(7))                      # another degree
    with pytest.raises(ValueError, match="not an element"):
        g.rows_to_indices([7, 0, 1, 2, 3, 4])                # a point outside 0..5
    with pytest.raises(ValueError, match="must hold integers"):
        g.rows_to_indices([1.0, 0, 2, 3, 4, 5])              # not integers
    # agrees with the identity on the base [0, 1, 2] of PSL(2,7), which
    # only the identity fixes pointwise
    with pytest.raises(ValueError, match="not an element"):
        psl2(7).rows_to_indices([0, 1, 2, 4, 3, 5, 6, 7])


def test_elements_are_the_image_rows():
    g = symmetric(4)
    assert g.elements is g.elements         # kept, not rebuilt on each access
    assert g.elements.shape == (24, 4) and g.elements.dtype == np.uint8
    assert not g.elements.flags.writeable
    assert g.elements[g.generator_indices()].tolist() == g.generators.tolist()


def test_double_cosets_s3():
    s3 = symmetric(3)
    dec = double_cosets(s3, stabilizer(s3, 2))
    assert dec.sizes == [2, 4]
    assert sorted(sum(dec.parts, [])) == list(range(6))
    assert dec.representatives[0] == 0


def test_double_cosets_trivial_subgroup():
    z4 = cyclic(4)
    dec = double_cosets(z4, [0])
    assert dec.sizes == [1, 1, 1, 1]


def test_double_cosets_need_subgroup():
    with pytest.raises(NotSubgroup):
        double_cosets(symmetric(3), [0, 2])


def test_coset_action_degree_and_transitivity():
    s4 = symmetric(4)
    act = coset_action(s4, stabilizer(s4, 3))
    assert isinstance(act, CosetAction)
    assert act.n_points == 4
    # the identity fixes every coset, nothing else fixes all
    assert act.fixed_points(0) == 4


def test_coset_action_matches_natural_action():
    s3 = symmetric(3)
    act = coset_action(s3, stabilizer(s3, 2))
    scheme = orbitals(act.group)
    assert scheme.n == 3 and scheme.d == 1


@pytest.mark.parametrize("make, point", [((psl2, 5), 0), ((symmetric, 4), 3),
                                         ((sl2, 3), 1)])
def test_coset_helpers_match_composition(make, point):
    group = make[0](make[1])
    H = stabilizer(group, point)
    table = _product_table(group)

    def prod(a, b):
        return int(table[a, b])

    assert all(int(group.mul(a, b)) == prod(a, b) for a in H for b in range(group.order))
    dec = double_cosets(group, H)
    want = {frozenset(prod(prod(h, g), k) for h in H for k in H) for g in range(group.order)}
    assert {frozenset(p) for p in dec.parts} == want
    act = coset_action(group, H)
    for x in range(group.order):     # the right coset Hx is one point
        assert {int(act.coset_of[prod(h, x)]) for h in H} == {int(act.coset_of[x])}
    assert act.n_points == group.order // len(H)
    every = np.arange(group.order)
    fixed = [sum(act.coset_of[prod(r, g)] == p for p, r in enumerate(act.point_reps))
             for g in every]
    assert act.fixed_points(every).tolist() == fixed
    assert [int(act.fixed_points(g)) for g in (0, 1, group.order - 1)] == [
        fixed[0], fixed[1], fixed[-1]]
    for gen, s in zip(regular_action(group).generators, group.generator_indices()):
        assert gen.tolist() == [prod(x, s) for x in range(group.order)]


def _frozen_pair_orbits(gen_arrays, n):
    """The pair-orbit flood that the stamp dedup replaced: np.unique over
    every gathered code of a slice, then a visited filter."""
    gens = np.asarray(gen_arrays, dtype=np.int64)
    total = n * n
    orbit_id = np.full(total, -1, dtype=np.int64)
    next_id = 0
    cursor = 0
    chunk = 1 << 16
    while cursor < total:
        if orbit_id[cursor] >= 0:
            pos = cursor
            while pos < total:
                seg = orbit_id[pos:pos + chunk]
                hits = np.flatnonzero(seg < 0)
                if hits.size:
                    pos += int(hits[0])
                    break
                pos += seg.shape[0]
            cursor = pos
            if cursor >= total:
                break
        orbit_id[cursor] = next_id
        frontier = np.array([cursor], dtype=np.int64)
        slice_len = max(1, 4_000_000 // gens.shape[0])
        while frontier.size:
            parts = []
            for start in range(0, frontier.size, slice_len):
                piece = frontier[start:start + slice_len]
                u, v = np.divmod(piece, n)
                imgs = (gens[:, u] * n + gens[:, v]).ravel()
                imgs = np.unique(imgs)
                new = imgs[orbit_id[imgs] < 0]
                if new.size:
                    orbit_id[new] = next_id
                    parts.append(new)
            if parts:
                frontier = np.concatenate(parts) if len(parts) > 1 else parts[0]
            else:
                frontier = np.empty(0, dtype=np.int64)
        next_id += 1
    return orbit_id, next_id


def _translations(T):
    return np.vstack([T, T.T])


@pytest.mark.parametrize("slice_images", [None, 1])
def test_pair_orbits_matches_frozen_kernel(paige2, paige2_grid, monkeypatch,
                                           slice_images):
    if slice_images is not None:    # one frontier pair per slice
        monkeypatch.setattr(permgroup, "PAIR_SLICE_IMAGES", slice_images)
    g5 = psl2(5)
    cases = [(_translations(paige2_grid), paige2.n)]
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        cases.append((psl2(q).generators, q + 1))
    regular = regular_action(g5).generators
    cases.append((regular, 60))
    cases.append((_translations(loop_from_group(g5).table()), 60))
    for gen_arrays, n in cases:
        orbit_id, count = pair_orbits(gen_arrays, n)
        want_id, want_count = _frozen_pair_orbits(gen_arrays, n)
        assert count == want_count
        assert np.array_equal(orbit_id, want_id)
    # right translation is regular: each of the 60 orbits on pairs holds
    # one (0, v), so past code 59 the cursor scans only visited codes
    assert pair_orbits(regular, 60)[1] == 60
    assert inner_orbits(paige2, policy="exact").class_sizes == [1, 56, 63]


def test_regular_action():
    reg = regular_action(cyclic(4))
    assert reg.degree == 4
    assert closure(reg.generators).order == 4
    scheme = orbitals(closure(reg.generators))
    assert scheme.d == 3


def _frozen_projective_images(spec, mat):
    """The point loop that built PSL(2,q) generators before the table gathers."""
    a, b, c, d = mat
    q = spec.q
    images = []
    for t in range(q):                     # the point [1 : t]
        u = int(spec.add_t[a, spec.mul_t[t, c]])
        v = int(spec.add_t[b, spec.mul_t[t, d]])
        images.append(q if u == 0 else int(spec.mul_t[v, spec.inv_t[u]]))
    images.append(q if c == 0 else int(spec.mul_t[d, spec.inv_t[c]]))   # the point [0 : 1]
    return tuple(images)


def _frozen_vector_images(spec, mat):
    a, b, c, d = mat
    q = spec.q
    images = []
    for code in range(q * q - 1):
        u, v = divmod(code + 1, q)
        nu = int(spec.add_t[spec.mul_t[u, a], spec.mul_t[v, c]])
        nv = int(spec.add_t[spec.mul_t[u, b], spec.mul_t[v, d]])
        images.append(nu * q + nv - 1)
    return tuple(images)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 64, 256])
def test_generator_images_match_frozen_loops(q):
    spec = field_for(q)
    for mat in permgroup._transvection_mats(spec) + [(1, 1, 1, 0)]:
        assert (tuple(permgroup._projective_perm(spec, mat).tolist())
                == _frozen_projective_images(spec, mat)), mat
        if q <= 64:
            assert (tuple(permgroup._vector_perm(spec, mat).tolist())
                    == _frozen_vector_images(spec, mat)), mat


@pytest.mark.parametrize("q,order", [(2, 6), (3, 12), (4, 60), (5, 60),
                                     (7, 168), (8, 504), (9, 360)])
def test_psl2_orders(q, order):
    g = psl2(q)
    assert g.order == order
    assert g.degree == q + 1


@pytest.mark.parametrize("q,order", [(2, 6), (3, 24), (4, 60), (5, 120)])
def test_sl2_orders(q, order):
    assert sl2(q).order == order


def test_psl2_rejects_non_prime_power():
    with pytest.raises(SchemeForgeError):
        psl2(6)


def test_group_requires_enumeration_for_index_ops():
    g = PermutationGroup(parse_generators("(0 1)\n(0 1 2)\n"))
    assert not g.enumerated
    with pytest.raises(NotEnumerated):
        g.require_enumerated()
    for op in (group_scheme, loop_from_group, regular_action,
               lambda g: g.elements, lambda g: stabilizer(g, 0),
               lambda g: double_cosets(g, [0]), lambda g: g.rows_to_indices(g.generators)):
        with pytest.raises(NotEnumerated):
            op(g)
    assert closure(g.generators).enumerated
