import json

import numpy as np
import pytest

from schemeforge.errors import CapExceeded, InvalidFusion, NotAScheme, ParseError
from schemeforge.loopcore import loop_scheme
from schemeforge.permgroup import (cyclic, group_scheme, orbitals, psl2,
                                   regular_action, symmetric)
from schemeforge.scheme import (AssociationScheme, complete_graph_scheme,
                                fuse, index_dtype, intersection_numbers, read_labeled_rows,
                                scheme_from_csv, scheme_to_csv, verify_scheme_axioms)
from schemeforge.zorn import build_paige_loop


def test_complete_graph_intersection_numbers():
    k5 = complete_graph_scheme(5)
    inter = intersection_numbers(k5)
    assert inter.p(0, 0, 0) == 1
    assert inter.p(1, 1, 1) == 3
    assert inter.p(1, 1, 0) == 4
    assert inter.p(0, 1, 1) == 1


def test_intersection_b0_is_identity():
    for scheme in (complete_graph_scheme(6), group_scheme(symmetric(3))):
        inter = intersection_numbers(scheme)
        assert np.array_equal(inter.B(0), np.eye(scheme.d + 1, dtype=np.int64))


def test_cyclic_scheme_intersection_numbers():
    z3 = orbitals(cyclic(3))
    inter = intersection_numbers(z3)
    # rotation classes add indices mod 3: R_1 after R_1 lands in R_2
    assert inter.p(1, 1, 2) == 1
    assert inter.p(1, 2, 0) == 1
    assert inter.p(1, 1, 1) == 0


@pytest.mark.parametrize("make", [
    lambda: complete_graph_scheme(7),
    lambda: orbitals(cyclic(5)),
    lambda: group_scheme(symmetric(4)),
    lambda: orbitals(psl2(5)),
])
def test_valency_consistency_identity(make):
    scheme = make()
    inter = intersection_numbers(scheme)
    k = scheme.valencies.astype(np.int64)
    d = scheme.d
    for i in range(d + 1):
        for j in range(d + 1):
            # sum_h p_ij^h k_h = k_i k_j
            total = sum(inter.p(i, j, h) * int(k[h]) for h in range(d + 1))
            assert total == int(k[i]) * int(k[j])


def test_intersection_matrices_commute():
    inter = intersection_numbers(group_scheme(symmetric(4)))
    assert inter.commutes
    mats = [inter.B(j) for j in range(inter.d + 1)]
    for a in mats:
        for b in mats:
            assert np.array_equal(a @ b, b @ a)


def test_representative_dependence_is_rejected():
    # path on three points: adjacency is not an association scheme
    mat = np.array([[0, 1, 2],
                    [1, 0, 1],
                    [2, 1, 0]])
    scheme = AssociationScheme.from_matrix(mat)
    with pytest.raises(NotAScheme) as err:
        intersection_numbers(scheme)
    assert str(err.value) == ("class 1: intersection numbers at pair (1, 0) "
                              "disagree with an earlier representative")


def _pairwise_scan(mat: np.ndarray):
    """Reference for the all-pairs scan, one pair at a time: the tensor,
    or the NotAScheme message at the first pair whose counts disagree with
    the first pair of its class."""
    d = int(mat.max())
    tensor = np.full((d + 1,) * 3, -1, dtype=np.int64)
    for x in range(mat.shape[0]):
        for y in range(mat.shape[0]):
            counts = np.zeros((d + 1, d + 1), dtype=np.int64)
            np.add.at(counts, (mat[x], mat[:, y]), 1)
            h = mat[x, y]
            if tensor[h, 0, 0] < 0:
                tensor[h] = counts
            elif not np.array_equal(tensor[h], counts):
                return (f"class {h}: intersection numbers at pair ({x}, {y}) "
                        f"disagree with an earlier representative")
    return tensor


@pytest.mark.parametrize("seed", range(6))
def test_all_pairs_scan_matches_the_pairwise_reference(seed):
    # a cyclic scheme with some symmetric pairs of cells relabelled: seed 0
    # keeps the scheme, the others break it at some pair
    rng = np.random.default_rng(seed)
    mat = orbitals(cyclic(9)).dense_matrix().astype(np.int64)
    for _ in range(seed):
        x, y = rng.choice(9, size=2, replace=False)
        mat[x, y] = mat[y, x] = rng.integers(1, mat.max() + 1)
    want = _pairwise_scan(mat)
    if isinstance(want, str):
        with pytest.raises(NotAScheme) as err:
            intersection_numbers(AssociationScheme.from_matrix(mat))
        assert str(err.value) == want
    else:
        got = intersection_numbers(AssociationScheme.from_matrix(mat)).tensor
        assert np.array_equal(got, want)


def _b_matrices_commute(inter) -> bool:
    """Every pair of intersection matrices B_i, B_j multiplied both ways."""
    mats = [m.astype(np.int64) for m in inter.b_matrices]
    return all(np.array_equal(a @ b, b @ a)
               for i, a in enumerate(mats) for b in mats[i + 1:])


@pytest.mark.parametrize("scheme,commutative", [
    (lambda: group_scheme(symmetric(4)), True),
    (lambda: group_scheme(psl2(7)), True),
    (lambda: orbitals(regular_action(symmetric(3))), False),
    (lambda: orbitals(regular_action(symmetric(4))), False),
], ids=["S4", "PSL(2,7)", "S3-regular", "S4-regular"])
def test_commutes_is_tensor_symmetry(scheme, commutative):
    # p_ij^h = p_ji^h agrees with the B_i commuting, on schemes of both kinds
    inter = intersection_numbers(scheme())
    assert inter.commutes == _b_matrices_commute(inter) == commutative


def test_verify_axioms_pass():
    for scheme in (complete_graph_scheme(5), group_scheme(symmetric(3)),
                   orbitals(cyclic(6)), orbitals(psl2(4))):
        report = verify_scheme_axioms(scheme)
        assert report.passed, report.failures
        assert report.intersection is not None


def test_verify_axioms_catches_broken_diagonal():
    mat = np.array([[0, 1, 1],
                    [1, 1, 1],
                    [1, 1, 0]])
    report = verify_scheme_axioms(AssociationScheme.from_matrix(mat))
    assert not report.passed
    assert report.failures


def test_verify_axioms_catches_row_irregularity():
    mat = complete_graph_scheme(4).dense_matrix().astype(np.int64).copy()
    mat[1, 2] = 2
    mat[2, 1] = 2
    report = verify_scheme_axioms(AssociationScheme.from_matrix(mat))
    assert not report.passed


def test_fuse_singletons_is_identity():
    scheme = group_scheme(symmetric(3))
    fused = fuse(scheme, [[0], [1], [2]])
    assert np.array_equal(fused.dense_matrix(), scheme.dense_matrix())


def test_fuse_cyclic_mirror_classes():
    z4 = orbitals(cyclic(4))
    fused = fuse(z4, [[0], [1, 3], [2]])
    assert fused.d == 2
    assert fused.valencies.tolist() == [1, 2, 1]
    assert verify_scheme_axioms(fused).passed


def test_fuse_to_complete_graph():
    z5 = orbitals(cyclic(5))
    fused = fuse(z5, [[0], [1, 2, 3, 4]])
    assert fused.d == 1
    assert np.array_equal(fused.dense_matrix(),
                          complete_graph_scheme(5).dense_matrix())


def test_fuse_rejects_invalid_cell():
    z4 = orbitals(cyclic(4))
    with pytest.raises(InvalidFusion):
        fuse(z4, [[0], [1, 2], [3]])


def test_fuse_rejects_non_partition():
    z4 = orbitals(cyclic(4))
    with pytest.raises(InvalidFusion):
        fuse(z4, [[0], [1, 3]])
    with pytest.raises(InvalidFusion):
        fuse(z4, [[0, 1], [2], [3]])


def test_fuse_rejects_transpose_breaking_cell():
    z5 = orbitals(cyclic(5))  # transpose pairs (1,4) and (2,3)
    with pytest.raises(InvalidFusion):
        fuse(z5, [[0], [1, 2], [3], [4]])


def test_fuse_rejects_a_transpose_closed_partition_that_is_no_scheme():
    # the classes of S4 are real, so every cell is transpose-closed; the
    # double transpositions (3) with the 3-cycles (8) fail the counts
    scheme = group_scheme(symmetric(4))
    assert scheme.valencies.tolist() == [1, 3, 6, 6, 8]
    with pytest.raises(InvalidFusion, match="fused partition is not a scheme"):
        fuse(scheme, [[0], [1, 4], [2], [3]])


def test_fusion_record_keeps_cells():
    z4 = orbitals(cyclic(4))
    fused = fuse(z4, [[0], [1, 3], [2]])
    assert fused.source["kind"] == "fusion"
    assert fused.source["cells"] == [[0], [1, 3], [2]]


def test_scheme_json_roundtrip():
    from schemeforge.cli import _load_scheme
    from schemeforge.config import DEFAULT_ELEMENT_CAP
    scheme = group_scheme(symmetric(3))
    data = scheme.to_json()
    again = _load_scheme(json.dumps(data), DEFAULT_ELEMENT_CAP)
    assert again.n == scheme.n and again.d == scheme.d
    assert np.array_equal(again.dense_matrix(), scheme.dense_matrix())


def test_scheme_json_header_checked():
    from schemeforge.cli import _load_scheme
    from schemeforge.config import DEFAULT_ELEMENT_CAP
    from schemeforge.errors import ParseError
    data = orbitals(cyclic(5)).to_json()
    assert "matrix" in data["relations"]
    data["valencies"] = [1, 2, 1, 1]
    with pytest.raises(ValueError, match="valencies disagree with its matrix"):
        AssociationScheme.from_json(data)
    recipe = group_scheme(symmetric(3)).to_json()
    assert "source" in recipe["relations"]
    recipe["valencies"] = [1, 3, 2]
    with pytest.raises(ParseError, match="disagree with its rebuilt relation"):
        _load_scheme(json.dumps(recipe), DEFAULT_ELEMENT_CAP)


def test_scheme_csv_roundtrip():
    scheme = orbitals(cyclic(5))
    text = scheme_to_csv(scheme)
    for spaced in (False, True):       # blank lines are skipped
        if spaced:
            lines = text.splitlines()
            text = "\n".join(lines[:3] + ["", "  "] + lines[3:]) + "\n\n"
        again = scheme_from_csv(text)
        assert again.n == scheme.n and again.d == scheme.d
        assert np.array_equal(again.dense_matrix(), scheme.dense_matrix())


@pytest.mark.parametrize("matrix,fault", [
    (np.array([[0, 1], [1, -1]]), "negative class id -1"),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), "integer class ids"),
    (np.array([[0, 1.5], [1, 0]]), "integer class ids"),
    (np.array([[False, True], [True, False]]), "integer class ids"),
], ids=["negative", "float", "fraction", "bool"])
def test_from_matrix_refuses_class_ids_that_are_not_non_negative_integers(matrix, fault):
    with pytest.raises(ValueError, match=fault):
        AssociationScheme.from_matrix(matrix)


def test_scheme_csv_rejects_header_mismatch():
    text = scheme_to_csv(complete_graph_scheme(3))
    broken = text.replace("d,1", "d,2")
    with pytest.raises(Exception):
        scheme_from_csv(broken)


@pytest.mark.parametrize("text,message", [
    ("kind,table\nn,3\n", r"unexpected kind 'table' \(line 1\)"),
    ("kind,scheme\nn,x\n", r"bad numeric field in 'n' row \(line 2\)"),
])
def test_labeled_rows_name_a_wrong_kind_and_a_bad_field(text, message):
    with pytest.raises(ParseError, match=message):
        read_labeled_rows(text, "scheme", {"n": int})


def test_functional_scheme_matches_dense(mstar2_scheme, paige2):
    from schemeforge.loopcore import inner_orbits, loop_scheme
    report = inner_orbits(paige2, policy="exact")
    functional = loop_scheme(paige2, report)
    assert not functional.is_dense
    assert np.array_equal(functional.dense_matrix(),
                          mstar2_scheme.dense_matrix())
    inter_f = intersection_numbers(functional)
    inter_d = intersection_numbers(mstar2_scheme)
    assert np.array_equal(inter_f.tensor, inter_d.tensor)


def test_functional_scheme_serializes_through_source(paige2):
    from schemeforge.loopcore import inner_orbits, loop_scheme
    functional = loop_scheme(paige2, inner_orbits(paige2, policy="exact"))
    data = functional.to_json()
    assert data["relations"]["source"]["kind"] == "paige-loop-scheme"
    assert data["relations"]["source"]["q"] == 2
    assert len(data["relations"]["source"]["class_of"]) == 120


def test_functional_rel_matches_dense(mstar2_scheme, paige2):
    from schemeforge.loopcore import inner_orbits, loop_scheme
    functional = loop_scheme(paige2, inner_orbits(paige2, policy="exact"))
    fused = fuse(functional, [[0], list(range(1, functional.d + 1))])
    assert not fused.is_dense
    dense = mstar2_scheme.dense_matrix()
    rng = np.random.default_rng(5)
    for x, y in rng.integers(0, paige2.n, (300, 2)).tolist():
        assert functional.rel(x, y) == dense[x, y]
        assert fused.rel(x, y) == min(int(dense[x, y]), 1)


def test_function_backed_rel_reads_one_entry():
    mat = complete_graph_scheme(4).dense_matrix()
    sizes = []

    class_of = np.array([0, 1, 1, 1])

    def classes(V, U):
        sizes.append(np.broadcast(V, U).size)
        return class_of[(np.asarray(V) - np.asarray(U)) % 4]

    sch = AssociationScheme.homogeneous(class_of, classes)
    sizes.clear()
    assert [sch.rel(x, y) for x in range(4) for y in range(4)] == mat.ravel().tolist()
    assert sizes == [1] * 16, "rel read a whole row or column"
    with pytest.raises(ValueError, match="one entry per class"):
        AssociationScheme(4, 1, [1, 3], [0], classes)


@pytest.mark.parametrize("class_of,message", [
    ([1, 0, 0], "point 0 alone in class 0"),
    ([0, 2, 2], "use every class 0..2"),
    ([0, -1, 1], "non-negative"),
    ([[0, 1, 2]], "1-D"),
])
def test_homogeneous_refuses_malformed_classes(class_of, message):
    with pytest.raises(ValueError, match=message):
        AssociationScheme.homogeneous(class_of, lambda V, U: (V - U) % 3)


def _mstar5_trace_scheme():
    loop = build_paige_loop(5)
    return loop_scheme(loop, loop.invariant_partition())


@pytest.mark.parametrize("call,error,message", [
    (lambda: AssociationScheme.from_matrix([[0, 1, 1], [1, 0, 1]]), ValueError,
     r"must be square, got \(2, 3\)"),
    (lambda: _mstar5_trace_scheme().dense_matrix(), CapExceeded,
     r"39000\^2 relation entries exceed the cap 300000000"),
    (lambda: AssociationScheme.homogeneous(
        [0, 1, 1], lambda V, U: np.minimum((V - U) % 3, 1)).to_json(), ValueError,
     "without a source recipe cannot be serialized"),
    (lambda: AssociationScheme.from_json({"n": 3, "d": 1, "valencies": [1, 2],
                                          "relations": {"source": {}}}), ValueError,
     "only matrix-backed scheme JSON"),
    (lambda: complete_graph_scheme(1), ValueError, "at least 2 points"),
], ids=["non-square", "dense-above-cap", "json-without-recipe", "json-without-matrix",
        "complete-graph-1"])
def test_scheme_inputs_out_of_scope_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_reads_of_points_outside_the_scheme_are_index_errors(paige3):
    # a read takes no point modulo n: -1 is not n - 1, and n names the point
    from schemeforge.loopcore import loop_scheme
    for sch in (complete_graph_scheme(4), group_scheme(psl2(5)), loop_scheme(paige3)):
        n = sch.n
        for bad in (-1, n):
            for read in (lambda: sch.rel(bad, 0), lambda: sch.rel(0, bad),
                         lambda: sch.rel_row(bad), lambda: sch.rel_col(bad)):
                with pytest.raises(IndexError, match=f"point {bad} is outside 0..{n - 1}"):
                    read()
        assert sch.rel(n - 1, n - 1) == 0


def test_class_ids_above_uint16_do_not_wrap():
    # 70,000 classes need the uint32 class dtype, as 70,001 points do
    n = 70_000
    sch = AssociationScheme.homogeneous(np.arange(n), lambda V, U: (V - U) % n)
    assert sch.rel(0, 69_999) == 69_999
    assert np.array_equal(sch.rel_row(0), np.arange(n))
    # a scheme passes its reader's ids through; where it narrows them (a
    # dense matrix, a fusion), 70,000 classes take the uint32 class dtype
    assert index_dtype(n) == np.uint32 and index_dtype(0xFFFF) == np.uint16


def test_verify_axioms_reports_valency_failures():
    k3 = complete_graph_scheme(3)
    report = verify_scheme_axioms(AssociationScheme(3, 1, [2, 2], [0, 1], k3.classes))
    assert not report.passed
    assert "diagonal class has valency 2, expected 1" in report.failures
    assert "valencies sum to 4, expected n=3" in report.failures


def test_verify_axioms_reports_transpose_failures():
    s3 = group_scheme(symmetric(3))          # valencies 1, 2, 3, all classes symmetric
    k = s3.valencies
    report = verify_scheme_axioms(AssociationScheme(6, 2, k, [0, 1, 1], s3.classes))
    assert "transpose map [0, 1, 1] is not a permutation of the classes" in report.failures
    report = verify_scheme_axioms(AssociationScheme(6, 2, k, [0, 2, 1], s3.classes))
    assert "valency of class 1 differs from its transpose 2" in report.failures
    assert any(f.endswith("but transpose of class 1 is 2") for f in report.failures)
    z3 = orbitals(cyclic(3))                 # classes 1 and 2 are each other's transpose
    report = verify_scheme_axioms(AssociationScheme(3, 2, [1, 1, 1], [0, 1, 2], z3.classes))
    assert not report.passed
    assert report.failures[0].endswith("but transpose of class 1 is 1")


def test_orbitals_are_orbital_and_read_from_two_rows():
    sch = orbitals(psl2(7))
    assert sch.orbital and sch.source["certificate"] == "exact"
    bare = AssociationScheme.from_matrix(sch.dense_matrix())
    assert not bare.orbital
    reads = []
    row = sch.rel_row
    sch.rel_row = lambda x: reads.append(x) or row(x)
    assert np.array_equal(intersection_numbers(sch).tensor,
                          intersection_numbers(bare).tensor)
    assert reads == [0, 1]


def test_scan_rejects_a_row_that_misses_a_class():
    # an orbital record on a partition whose row 1 misses class 2
    mat = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    sch = AssociationScheme.from_matrix(mat, source={"certificate": "exact"})
    with pytest.raises(NotAScheme, match=r"row 1 meets only classes \[0, 1\] of 0..2"):
        intersection_numbers(sch)
