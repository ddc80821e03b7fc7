import hashlib

import numpy as np
import pytest

from schemeforge import cli, loopcore
from schemeforge.errors import ParseError
from schemeforge.loopcore import (BLOCK_PRODUCTS, InnerOrbitReport,
                                  LoopStructure, MoufangReport, TableLoop,
                                  _moufang_identities, associativity_counterexample,
                                  inner_orbits, load_loop_table, loop_from_group,
                                  loop_scheme, moufang_check, parse_loop_table,
                                  quasigroup_check)
from schemeforge.permgroup import closure, cyclic, group_scheme, symmetric
from schemeforge.zorn import PaigeLoop, build_paige_loop

# smallest loop that is not a group; fails the Moufang identities
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def _loop5_times_cyclic(m):
    """LOOP5 x Z_m, element (a, i) at a*m + i: a non-Moufang loop of order
    5m, sampled rather than scanned once 5m exceeds the exhaustive limit."""
    T5 = np.array(LOOP5)
    Zm = (np.arange(m)[:, None] + np.arange(m)) % m
    return (T5[:, None, :, None] * m + Zm[None, :, None, :]).reshape(5 * m, 5 * m)


def _loop_text(table):
    table = np.asarray(table)
    return f"{table.shape[0]}\n" + "\n".join(" ".join(map(str, row)) for row in table.tolist())


def test_group_table_is_a_loop():
    loop = loop_from_group(symmetric(3))
    report = quasigroup_check(loop.table())
    assert report.passed and report.cell is None
    assert bool(report)


def test_quasigroup_check_accepts_raw_table():
    assert quasigroup_check(np.array(LOOP5)).passed


def test_quasigroup_check_row_duplicate():
    report = quasigroup_check(np.array([[0, 1], [1, 1]]))
    assert not report.passed
    assert report.cell == (1, 1)
    assert "row" in report.failure


def test_quasigroup_check_column_duplicate():
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # rows fine at (2,1)? col 1 repeats
    report = quasigroup_check(np.array(table))
    assert not report.passed
    assert report.failure is not None


def test_quasigroup_check_missing_identity():
    report = quasigroup_check(np.array([[1, 0], [0, 1]]))
    assert not report.passed
    assert "identity" in report.failure


def test_quasigroup_check_out_of_range():
    report = quasigroup_check(np.array([[0, 5], [1, 0]]))
    assert not report.passed
    assert report.cell == (0, 1)


def test_parse_loop_table_roundtrip():
    text = "# order five loop\n5\n" + "\n".join(" ".join(str(v) for v in row)
                                                for row in LOOP5)
    loop = parse_loop_table(text)
    assert isinstance(loop, TableLoop)
    assert np.array_equal(loop.table(), np.array(LOOP5))


def test_parse_loop_table_rejects_bad_token():
    with pytest.raises(ParseError):
        parse_loop_table("2\n0 x\n1 0\n")


@pytest.mark.parametrize("text,message", [
    ("", "empty loop table file"),
    ("# a comment only\n", "empty loop table file"),
    ("2 3\n0 1\n1 0\n", r"first line must be the order n \(line 1\)"),
    ("0\n", r"first line must be the order n \(line 1\)"),
    ("2\n0 1\n", "expected 2 table rows, found 1"),
    ("2\n0 1\n1\n", r"row has 1 entries, expected 2 \(line 3\)"),
    ("2\n0 1\n1 2\n", r"entry outside 0..1 \(line 3\)"),
    ("2\n0 1\n1 -1\n", r"entry outside 0..1 \(line 3\)"),
])
def test_parse_loop_table_names_each_malformed_file(text, message):
    with pytest.raises(ParseError, match=message):
        parse_loop_table(text)


def test_parse_loop_table_rejects_non_loop():
    with pytest.raises(ParseError) as err:
        parse_loop_table("2\n1 0\n0 1\n")
    assert "not a loop table" in str(err.value)


def test_moufang_fails_for_order5_loop():
    loop = TableLoop(np.array(LOOP5))
    report = moufang_check(loop)
    assert not report.passed
    assert report.mode == "exhaustive"
    text, x, y, z = report.counterexample
    assert (text, x, y, z) == ("((x*y)*x)*z = x*(y*(x*z))", 1, 0, 2)
    # replay the witness on the table
    T = np.array(LOOP5)
    lhs = T[T[T[x, y], x], z]
    rhs = T[x, T[y, T[x, z]]]
    assert lhs != rhs


def test_moufang_holds_for_groups():
    for group in (symmetric(3), cyclic(7)):
        report = moufang_check(loop_from_group(group))
        assert report.passed
        assert report.triples_checked == group.order ** 3


def test_moufang_holds_for_paige_loop_exhaustive(paige2):
    report = moufang_check(paige2)
    assert report.passed and report.mode == "exhaustive"


def test_moufang_sampled_mode(paige3):
    report = moufang_check(paige3, samples=20_000)
    assert report.passed and report.mode == "sampled"
    assert report.triples_checked == 20_000


def test_associativity_counterexample_for_paige_loops(paige2, paige3):
    for loop in (paige2, paige3):
        witness = associativity_counterexample(loop)
        assert witness is not None
        x, y, z = witness
        assert loop.mul(loop.mul(x, y), z) != loop.mul(x, loop.mul(y, z))


def test_associativity_counterexample_none_for_groups():
    loop = loop_from_group(symmetric(3))
    assert associativity_counterexample(loop) is None


@pytest.mark.parametrize("make", [lambda: symmetric(3), lambda: cyclic(4),
                                  lambda: cyclic(5)])
def test_loop_scheme_of_group_equals_group_scheme(make):
    group = make()
    loop = loop_from_group(group)
    got = loop_scheme(loop, inner_orbits(loop, policy="exact"))
    want = group_scheme(group)
    assert got.n == want.n and got.d == want.d
    assert np.array_equal(got.dense_matrix(), want.dense_matrix())


def test_inner_orbit_report_shape(paige2):
    report = inner_orbits(paige2, policy="exact")
    assert isinstance(report, InnerOrbitReport)
    assert report.class_of.shape == (120,)
    assert report.class_of[0] == 0
    assert report.n_classes == 3
    sizes = np.bincount(report.class_of)
    assert sizes.tolist() == [1, 56, 63]


def test_exact_and_randomized_orbits_agree(paige2):
    exact = inner_orbits(paige2, policy="exact")
    randomized = inner_orbits(paige2, policy="randomized", seed=7)
    assert np.array_equal(exact.class_of, randomized.class_of)


def test_randomized_orbits_seed_stable(paige3):
    a = inner_orbits(paige3, policy="randomized", seed=1)
    b = inner_orbits(paige3, policy="randomized", seed=2)
    assert np.array_equal(a.class_of, b.class_of)


def test_scheme_invariant_under_translations(mstar2_scheme, paige2):
    # rel(u, v) = rel(xu, xv) = rel(ux, vx): the partition comes from the
    # inner mapping group, so all translations preserve it
    mat = mstar2_scheme.dense_matrix()
    rng = np.random.default_rng(99)
    X = rng.integers(0, 120, 10_000)
    U = rng.integers(0, 120, 10_000)
    V = rng.integers(0, 120, 10_000)
    left = mat[paige2.mul_vec(X, U), paige2.mul_vec(X, V)]
    right = mat[paige2.mul_vec(U, X), paige2.mul_vec(V, X)]
    base = mat[U, V]
    assert np.array_equal(base, left)
    assert np.array_equal(base, right)


def test_loop_scheme_valencies(mstar2_scheme):
    assert mstar2_scheme.n == 120
    assert mstar2_scheme.valencies.tolist() == [1, 56, 63]
    assert mstar2_scheme.transpose_map.tolist() == [0, 1, 2]


def test_loop_scheme_accepts_class_array(paige2):
    report = inner_orbits(paige2, policy="exact")
    direct = loop_scheme(paige2, report.class_of)
    via_report = loop_scheme(paige2, report)
    assert np.array_equal(direct.dense_matrix(), via_report.dense_matrix())


def test_loop_scheme_refuses_class_of_of_another_length(paige2):
    class_of = inner_orbits(paige2).class_of
    with pytest.raises(ValueError, match="class to every loop element"):
        loop_scheme(paige2, class_of[:-1])


def _trace_split(loop):
    """The trace classes of the loop with the first half of class 1 split off."""
    labels = loop.invariant_partition().copy()
    members = np.flatnonzero(labels == 1)
    labels[members[: members.shape[0] // 2]] = labels.max() + 1
    return labels


@pytest.mark.parametrize("partition", [
    lambda loop: np.minimum(np.arange(loop.n), 1),
    lambda loop: loop.invariant_partition(),
    _trace_split,
], ids=["identity-vs-rest", "trace-classes", "split-trace-class"])
def test_loop_scheme_relations_are_classes_of_right_quotients(paige3, partition):
    # the trace classes are read from the polar form of the norm; every
    # other partition needs the quotient v / u itself
    class_of = partition(paige3)
    scheme = loop_scheme(paige3, class_of=class_of)
    Z = np.arange(paige3.n)
    for x in (0, 1, 7, paige3.n - 1):
        assert np.array_equal(scheme.rel_row(x),
                              class_of[paige3.right_div_vec(Z, x)])
        assert np.array_equal(scheme.rel_col(x),
                              class_of[paige3.right_div_vec(x, Z)])


class _CyclicLoop(LoopStructure):
    """Z_m under addition mod m, given only by its lifted product and
    divisions; lift and index keep their identity defaults."""

    def __init__(self, m):
        self.n = m

    def times(self, A, B):
        return (A + B) % self.n

    def ldiv(self, A, B):           # A + X = B
        return (B - A) % self.n

    def rdiv(self, A, B):           # X + B = A
        return (A - B) % self.n


def test_index_level_ops_are_derived_from_the_lifted_ones():
    loop = _CyclicLoop(1009)
    m = loop.n
    sizes = []
    times = loop.times
    loop.times = lambda A, B: sizes.append(np.broadcast(A, B).size) or times(A, B)
    rng = np.random.default_rng(19)
    I, J = rng.integers(0, m, (2, 2 * BLOCK_PRODUCTS + 7))
    assert np.array_equal(loop.mul_vec(I, J), (I + J) % m)
    assert sizes == [BLOCK_PRODUCTS, BLOCK_PRODUCTS, 7]
    assert np.array_equal(loop.left_div_vec(I, J), (J - I) % m)
    assert np.array_equal(loop.right_div_vec(I, J), (I - J) % m)
    x = np.int64(700)
    assert np.array_equal(loop.mul_vec(x, J), (x + J) % m)
    assert np.array_equal(loop.left_div_vec(x, J), (J - x) % m)
    assert np.array_equal(loop.right_div_vec(J, x), (J - x) % m)
    U, V = I[:300, None], J[None, :400]         # a grid of 120,000 entries
    sizes.clear()
    assert np.array_equal(loop.mul_vec(U, V), (U + V) % m)
    assert len(sizes) > 1 and max(sizes) <= BLOCK_PRODUCTS
    assert np.array_equal(loop.left_div_vec(U, V), (V - U) % m)
    assert np.array_equal(loop.right_div_vec(U, V), (U - V) % m)
    product = loop.mul(700, 400)
    assert type(product) is int and product == 91


def test_checks_and_orbits_run_on_the_derived_ops():
    assert moufang_check(_CyclicLoop(12))
    assert moufang_check(_CyclicLoop(1009), samples=5000).mode == "sampled"
    assert associativity_counterexample(_CyclicLoop(12)) is None
    # Z_m is abelian, so every inner map is the identity
    for policy in ("exact", "randomized"):
        report = inner_orbits(_CyclicLoop(12), policy=policy)
        assert np.array_equal(report.class_of, np.arange(12))
        assert report.certified


@pytest.mark.parametrize("table,failure", [
    ([[0, 1]], "square and nonempty"),
    (np.zeros((0, 0), dtype=int), "square and nonempty"),
    ([[0, 5], [1, 0]], "entry outside 0..1 at cell (0, 1)"),
    ([[0, 1], [1, 1]], "repeated entry in a row at cell (1, 1)"),
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "repeated entry in a column"),
    ([[1, 0], [0, 1]], "row 0 is not the identity"),
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "column 0 is not the identity"),
    (np.array([[0, 1], [1, 0.5]]), "table must hold integers"),
])
def test_table_loop_rejects_non_loops(table, failure):
    with pytest.raises(ValueError, match="not a loop table") as err:
        TableLoop(table)
    assert failure in str(err.value)
    assert quasigroup_check(np.asarray(table)).failure in str(err.value)


@pytest.mark.parametrize("samples", [-5, 0])
def test_moufang_check_refuses_no_samples(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        moufang_check(build_paige_loop(3), samples=samples)


@pytest.mark.parametrize("samples", [-5, 0])
def test_associativity_search_refuses_no_samples(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        associativity_counterexample(build_paige_loop(3), samples=samples)


def test_associativity_counterexample_for_order5_loop():
    loop = TableLoop(np.array(LOOP5))
    x, y, z = associativity_counterexample(loop)
    assert (x, y, z) == (1, 1, 2)
    assert loop.mul(loop.mul(x, y), z) != loop.mul(x, loop.mul(y, z))


def test_moufang_reports_are_pinned():
    # reports of the unshared identity evaluation, each product computed anew;
    # the sampled witness is the first of the Sampler stream of seed 7
    assert moufang_check(TableLoop(np.array(LOOP5))) == MoufangReport(
        False, "exhaustive", 125, ("((x*y)*x)*z = x*(y*(x*z))", 1, 0, 2))
    loop = TableLoop(_loop5_times_cyclic(32))
    sampled = moufang_check(loop, samples=5000, seed=7)
    assert sampled == MoufangReport(
        False, "sampled", 5000, ("((x*y)*x)*z = x*(y*(x*z))", 152, 101, 83))
    x, y, z = sampled.counterexample[1:]
    assert loop.mul(loop.mul(loop.mul(x, y), x), z) != loop.mul(x, loop.mul(y, loop.mul(x, z)))
    report = moufang_check(build_paige_loop(2))
    assert report == MoufangReport(True, "exhaustive", 120 ** 3, None)


@pytest.mark.parametrize("seed,samples,rounds", [(0xA55C, 2720, 17), (11, 1280, 8)])
def test_per_point_inner_orbit_reports_are_pinned(seed, samples, rounds):
    # a bare table has no invariant, so every point draws its own inner map;
    # the classes pinned when every product of an inner map was its own
    # mul_vec, the samples and rounds those of the Sampler stream of each seed
    report = inner_orbits(TableLoop(_loop5_times_cyclic(32)), policy="randomized",
                          seed=seed)
    labels = hashlib.sha256(report.class_of.tobytes()).hexdigest()
    assert labels == "ac193a22baee047a0f6e79d83ed8448e2def8c69722410e746e22fdfb35f9548"
    assert (report.samples, report.rounds, report.certificate) == (samples, rounds,
                                                                   "sampled")


def test_moufang_identities_share_subproducts(paige3):
    loop = PaigeLoop(paige3.spec)                       # times is wrapped below
    calls = []
    times = loop.times
    loop.times = lambda A, B: calls.append(1) or times(A, B)
    assert moufang_check(loop, samples=1 << 15).passed
    assert len(calls) == 18                             # one full block
    calls.clear()
    assert moufang_check(loop, samples=(1 << 15) + 5).passed
    assert len(calls) == 36


def test_each_moufang_identity_matches_its_formula():
    T = _loop5_times_cyclic(32)
    rng = np.random.default_rng(5)
    X, Y, Z = rng.integers(0, T.shape[0], size=(3, 4000))
    m = lambda a, b: T[a, b]
    formulas = [
        (m(m(m(X, Y), X), Z), m(X, m(Y, m(X, Z)))),
        (m(X, m(Y, m(Z, Y))), m(m(m(X, Y), Z), Y)),
        (m(m(X, Y), m(Z, X)), m(X, m(m(Y, Z), X))),
        (m(m(X, Y), m(Z, X)), m(m(X, m(Y, Z)), X)),
    ]
    shared = list(_moufang_identities(m, lambda w: w, X, Y, Z))
    assert len(shared) == 4
    for (text, bad), (lhs, rhs) in zip(shared, formulas):
        assert 0 < np.count_nonzero(bad) < bad.size, text
        assert np.array_equal(bad, lhs != rhs), text


def test_loop_table_file_is_checked_once(monkeypatch, tmp_path, capsys):
    scans = []
    check = loopcore.quasigroup_check
    monkeypatch.setattr(loopcore, "quasigroup_check",
                        lambda table: scans.append(1) or check(table))
    path = tmp_path / "loop5.txt"
    path.write_text(_loop_text(LOOP5))
    assert np.array_equal(load_loop_table(path).table(), np.array(LOOP5))
    assert len(scans) == 1
    scans.clear()
    assert cli.main(["scheme", "loop-scheme", "--loop", str(path)]) == 0
    assert len(scans) == 1
    capsys.readouterr()
    # the file path names a bad table with ParseError, a direct TableLoop with ValueError
    bad = [[0, 1], [1, 1]]
    path.write_text(_loop_text(bad))
    with pytest.raises(ParseError, match="repeated entry in a row at cell"):
        load_loop_table(path)
    with pytest.raises(ValueError, match="repeated entry in a row at cell"):
        TableLoop(bad)
