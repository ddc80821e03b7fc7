"""Trace-bounded inner orbits of M*(q), identity-row intersection numbers,
and the blocked products and dense builds behind them."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

import schemeforge
from schemeforge import loopcore
from schemeforge.chartab import (closed_form_mstar, compare_tables,
                                 compute_character_table, verify_orthogonality)
from schemeforge.cli import _load_scheme
from schemeforge.config import DEFAULT_ELEMENT_CAP
from schemeforge.errors import CapExceeded, CertificationFailed, NotAScheme
from schemeforge.gf import field_for
from schemeforge.loopcore import (BLOCK_PRODUCTS, TableLoop, inner_orbits,
                                  loop_from_group, loop_scheme)
from schemeforge.permgroup import psl2, symmetric
from schemeforge.scheme import first_members, intersection_numbers
from schemeforge.zorn import PaigeLoop, build_paige_loop, paige_loop_order


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


# sha256 of the int64 labels of inner_orbits(policy="randomized") at the
# default seed and of the intersection tensor from the representative scan,
# as computed by the earlier sampled refinement
PINNED = {
    2: ("5415be6efcbbc1c881290e39fd9404d5c5c5a01ce09a8aabcd4fd899e226515d",
        "e4a3688262549a1ba48ff629bcb3bdfcc8928fd12c3aa7e6223add9fbf14c443"),
    3: ("2f2e7603efa9e22ba8c4735f3dbc1fd62492647bc4c9117e97ad0880633b0b18",
        "ab67d8272835b05abcbe4517fee59d29417638f0182d6d6c6e921ce8290168b5"),
    4: ("2b1433dda1cdf993ff29919c500016bdd5793d08cd7dc8cfb4f2d191074dfd7c",
        "bf5fe1a32f2d6a114d4f11f494bd67f05b52ef694b6410a1cd5df1248268e9ff"),
    5: ("bf3efbcd706a5a263bb60624989e53cd5da2fe9765d577029304a871c66abdd4",
        "fbf6b56e4f9db9ac7e7258330cb1785c1d25f1f33ab4de178e360bdec3f19b16"),
}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_randomized_orbits_and_tensors_match_pinned(q):
    loop = build_paige_loop(q)
    report = inner_orbits(loop, policy="randomized")
    labels_sha, tensor_sha = PINNED[q]
    assert report.class_of.dtype == np.int64
    assert _sha(report.class_of) == labels_sha
    assert report.certificate == "exact" and report.certified
    assert report.samples == report.rounds * loop.n
    assert np.array_equal(report.class_of, loop.invariant_partition())
    orbital = loop_scheme(loop, report)
    scanned = loop_scheme(loop, report.class_of)
    assert orbital.orbital and not scanned.orbital
    got = intersection_numbers(orbital).tensor
    want = intersection_numbers(scanned).tensor
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert _sha(got) == tensor_sha


def test_mstar7_exact_classes_and_numbers_under_a_second():
    loop = build_paige_loop(7, element_cap=paige_loop_order(7))
    # CPU time of this process: both stages are single-threaded, and load
    # from other processes does not count
    t0 = time.process_time()
    report = inner_orbits(loop, policy="randomized")
    orbits_s = time.process_time() - t0
    assert report.certificate == "exact"
    assert report.class_sizes == [1, 58653, 117306, 117648, 117992]
    t0 = time.process_time()
    inter = intersection_numbers(loop_scheme(loop, report))
    inter_s = time.process_time() - t0
    assert orbits_s < 1.0, orbits_s
    assert inter_s < 1.0, inter_s
    assert inter.commutes
    # row sums of B_i are the valencies
    assert np.array_equal(inter.tensor.sum(axis=2)[0], inter.valencies)


class _MergedTraceLoop(PaigeLoop):
    """Claims an invariant coarser than the orbits: two trace classes merged."""

    def invariant_partition(self):
        labels = super().invariant_partition()
        return np.where(labels == 2, 1, labels)


class _SplitTraceLoop(PaigeLoop):
    """Claims an invariant finer than the orbits: one trace class split."""

    def invariant_partition(self):
        labels = super().invariant_partition().copy()
        members = np.flatnonzero(labels == 1)
        labels[members[: members.shape[0] // 2]] = labels.max() + 1
        return labels


@pytest.mark.parametrize("cls", [_MergedTraceLoop, _SplitTraceLoop],
                         ids=["merged", "split"])
def test_wrong_invariant_is_refused(paige3, cls):
    loop = cls(paige3.spec)
    with pytest.raises(CertificationFailed):
        inner_orbits(loop, policy="randomized")


def test_table_loop_gets_sampled_certificate(paige2, paige2_grid):
    loop = TableLoop(paige2_grid)
    report = inner_orbits(loop, policy="randomized")
    assert report.certificate == "sampled" and report.certified
    assert report.samples == report.rounds * loop.n
    assert np.array_equal(report.class_of, inner_orbits(paige2).class_of)
    assert not loop_scheme(loop, report).orbital
    group_report = inner_orbits(loop_from_group(psl2(5)), policy="randomized")
    assert group_report.certificate == "sampled"
    assert group_report.class_sizes == [1, 12, 12, 15, 20]


@pytest.mark.parametrize("group", [psl2, symmetric],
                         ids=["psl2(5)", "symmetric(4)"])
def test_group_loop_refinement_matches_exact_policy(group):
    # in a group loop L(x, y) and R(x, y) are the identity and T(x) is
    # conjugation, and every partition into orbits of a subgroup of Inn(G)
    # is a scheme, so the sampled check cannot catch an undermerged round
    loop = loop_from_group(group(5 if group is psl2 else 4))
    exact = inner_orbits(loop, policy="exact").class_of
    for seed in range(20):
        report = inner_orbits(loop, policy="randomized", seed=seed)
        assert report.certificate == "sampled"
        assert np.array_equal(report.class_of, exact), seed


def test_exact_policy_reports_exact(paige2):
    report = inner_orbits(paige2, policy="exact")
    assert (report.certificate, report.rounds, report.samples) == ("exact", 0, 0)
    assert loop_scheme(paige2, report).orbital


@pytest.mark.parametrize("q,sizes", [(2, [1, 56, 63]), (3, [1, 351, 728])])
def test_auto_policy_takes_the_trace_bounded_refinement(q, sizes, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pair orbits called for a loop with an invariant")
    monkeypatch.setattr(loopcore, "pair_orbits", refuse)
    loop = build_paige_loop(q)
    report = inner_orbits(loop)
    assert report.certificate == "exact" and report.rounds > 0
    assert report.class_sizes == sizes
    assert np.array_equal(report.class_of, loop.invariant_partition())


def test_auto_policy_takes_pair_orbits_without_an_invariant(paige2, paige2_grid):
    report = inner_orbits(TableLoop(paige2_grid))
    assert (report.certificate, report.rounds) == ("exact", 0)
    assert np.array_equal(report.class_of, inner_orbits(paige2).class_of)


def test_exact_policy_refuses_loops_above_its_limit(paige3):
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match="randomized"):
        inner_orbits(paige3, policy="exact")         # n = 1080
    assert time.perf_counter() - t0 < 1.0


def test_unknown_policy_is_refused(paige2):
    with pytest.raises(ValueError, match="unknown inner-orbit policy 'bogus'"):
        inner_orbits(paige2, policy="bogus")


def _swap_members(class_of: np.ndarray, count: int) -> np.ndarray:
    """class_of with `count` points of class 1 and of class 2 exchanged:
    same valencies, but no longer a scheme."""
    bad = class_of.copy()
    ones, twos = np.flatnonzero(class_of == 1), np.flatnonzero(class_of == 2)
    bad[ones[:count]] = 2
    bad[twos[:count]] = 1
    return bad


def test_bare_partition_keeps_representative_scan(paige3):
    class_of = inner_orbits(paige3).class_of
    scheme = loop_scheme(paige3, _swap_members(class_of, 1))
    assert not scheme.orbital
    reads = []
    row = scheme.rel_row
    scheme.rel_row = lambda x: reads.append(x) or row(x)
    with pytest.raises(NotAScheme):
        intersection_numbers(scheme)
    assert len(set(reads)) > 2      # rows beyond the identity row were scanned


def test_identity_row_cross_check_refuses_a_non_scheme(paige3):
    class_of = inner_orbits(paige3).class_of
    bad = loop_scheme(paige3, _swap_members(class_of, 100))
    bad.source["certificate"] = "exact"         # a false record of exact orbits
    assert bad.orbital
    with pytest.raises(NotAScheme):
        intersection_numbers(bad)


# (sha256 of class_of, samples, rounds, certificate) of inner_orbits(policy=
# "randomized") at two seeds; the classes as computed when every product of
# an inner map was its own indexed mul_vec, the samples and rounds those of
# the Sampler stream (random.Random(seed)) of each seed
TRACE_CLASSES = {
    3: "2f2e7603efa9e22ba8c4735f3dbc1fd62492647bc4c9117e97ad0880633b0b18",
    4: "2b1433dda1cdf993ff29919c500016bdd5793d08cd7dc8cfb4f2d191074dfd7c",
    5: "bf3efbcd706a5a263bb60624989e53cd5da2fe9765d577029304a871c66abdd4",
    7: "36bd2dee73306d140296abfefa3c61d118684e8ce55301c5bddd2ed625ed3768",
}
INNER_ORBIT_REPORTS = [
    (3, 0xA55C, 3240, 3), (3, 11, 2160, 2),
    (4, 0xA55C, 48960, 3), (4, 11, 32640, 2),
    (5, 0xA55C, 117000, 3), (5, 11, 78000, 2),
    (7, 0xA55C, 1234800, 3), (7, 11, 823200, 2),
]


@pytest.mark.parametrize("q,seed,samples,rounds", INNER_ORBIT_REPORTS)
def test_inner_orbit_reports_are_pinned(q, seed, samples, rounds):
    loop = build_paige_loop(q, element_cap=paige_loop_order(q))
    report = inner_orbits(loop, policy="randomized", seed=seed)
    got = (_sha(report.class_of), report.samples, report.rounds, report.certificate)
    assert got == (TRACE_CLASSES[q], samples, rounds, "exact")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_bounded_rounds_equal_inner_maps_on_lifted_points(q):
    # a round's one inner map is read from its images of the half-basis
    # rows; at every point it must equal the map on the lifted point, ranked
    loop = build_paige_loop(q, element_cap=paige_loop_order(q))
    rng = np.random.default_rng(700 + q)
    # every point up to M*(5), n = 39000, above LIFT_BLOCK; then 40000 of them
    Z = np.arange(loop.n) if loop.n < 50_000 else rng.integers(0, loop.n, 40_000)
    for kind in range(3):
        x, y = (np.int64(v) for v in rng.integers(0, loop.n, 2))
        X, Y = loop.lift(x), loop.lift(y)
        want = loopcore.blocked(
            loopcore.LIFT_BLOCK,
            lambda P: loop.index(loopcore._inner_word(loop, kind, X, Y, loop.lift(P))), Z)
        got = loopcore._sampled_inner_images(loop, kind, x, y, Z)
        assert got.dtype == np.int64 and np.array_equal(got, want), kind


def test_bounded_rounds_and_reads_multiply_no_points():
    # the trace-bounded refinement multiplies only the 2 q^4 half-basis
    # rows, and neither it nor the scan's row and column reads lift a point
    loop = build_paige_loop(5)
    assert loop.n == 39_000 > loopcore.LIFT_BLOCK
    sizes, lifted = [], []
    times, lift = loop.times, loop.lift
    loop.times = lambda A, B: sizes.append(np.broadcast(A[0], B[0]).size) or times(A, B)
    loop.lift = lambda I: lifted.append(np.size(I)) or lift(I)
    report = inner_orbits(loop, policy="randomized")
    assert report.certificate == "exact"
    assert max(sizes) == 2 * 5 ** 4 and max(lifted) == 1
    scheme = loop_scheme(loop, report)
    sizes.clear()
    lifted.clear()
    intersection_numbers(scheme)
    assert sizes == [] and max(lifted) == 1


def test_orbital_record_survives_json(paige2):
    scheme = loop_scheme(paige2, inner_orbits(paige2))
    again = _load_scheme(json.dumps(scheme.to_json()), DEFAULT_ELEMENT_CAP)
    assert scheme.orbital and again.orbital
    assert again.source == scheme.source
    bare = loop_scheme(paige2, inner_orbits(paige2).class_of)
    assert not _load_scheme(json.dumps(bare.to_json()), DEFAULT_ELEMENT_CAP).orbital


def test_identity_row_reads(paige3):
    scheme = loop_scheme(paige3, inner_orbits(paige3, policy="randomized"))
    counted = {"row": 0, "col": 0}
    for kind in counted:
        inner = getattr(scheme, f"rel_{kind}")

        def read(x, _inner=inner, _kind=kind):
            counted[_kind] += 1
            return _inner(x)
        setattr(scheme, f"rel_{kind}", read)
    intersection_numbers(scheme)
    assert counted == {"row": 2, "col": 2 * (scheme.d + 1)}


def test_dense_builds_match_single_rows(paige3):
    Z = np.arange(paige3.n)
    table = paige3.mul_vec(Z[:, None], Z)
    rows = [0, 1, 500, paige3.n - 1]
    for u in rows:
        assert np.array_equal(table[u], paige3.mul_vec(np.full(paige3.n, u), Z))
    class_of = inner_orbits(paige3).class_of
    scheme = loop_scheme(paige3, class_of)
    dense = scheme.dense_matrix()
    assert dense.dtype == np.uint8
    for u in rows:
        # rel(u, v) is the class of v / u, the x with table[x, u] = v
        want = class_of[np.argsort(table[:, u])]
        assert np.array_equal(scheme.rel_row(u), want)
        assert np.array_equal(dense[u], want)


def test_long_products_match_short_ones():
    loop = build_paige_loop(4)
    rng = np.random.default_rng(17)
    size = 3 * BLOCK_PRODUCTS + 5
    I = rng.integers(0, loop.n, size)
    J = rng.integers(0, loop.n, size)
    short = np.concatenate([loop.mul_vec(I[k:k + 1000], J[k:k + 1000])
                            for k in range(0, size, 1000)])
    assert np.array_equal(loop.mul_vec(I, J), short)
    rows = loop.mul_vec(I[:9, None], J[None, :loop.n])     # 9 x n, above a block
    assert rows.shape == (9, loop.n)
    assert np.array_equal(rows[4], loop.mul_vec(np.full(loop.n, I[4]), J[:loop.n]))
    x = np.int64(1234)
    assert np.array_equal(loop.mul_vec(x, J), loop.mul_vec(np.full(size, x), J))


def test_operands_reach_the_kernel_unbroadcast(paige3):
    loop = PaigeLoop(paige3.spec)                       # lift is wrapped below
    shapes = []
    lift = loop.lift
    loop.lift = lambda I: shapes.append(np.shape(I)) or lift(I)
    x, Z = np.int64(7), np.arange(loop.n)
    loop.mul_vec(x, Z)                                  # one block
    assert shapes == [(), (loop.n,)]
    shapes.clear()
    loop.mul_vec(x, np.tile(Z, 3 * BLOCK_PRODUCTS // loop.n))  # several blocks
    assert len(shapes) > 2 and shapes[0::2] == [()] * (len(shapes) // 2)
    shapes.clear()
    loop.mul_vec(Z[:, None], Z)                         # rows sliced, Z whole
    assert len(shapes) > 2 and shapes[1::2] == [(loop.n,)] * (len(shapes) // 2)


@pytest.mark.slow
def test_mstar8_reaches_closed_form():
    t0 = time.perf_counter()
    loop = build_paige_loop(8, element_cap=paige_loop_order(8))
    report = inner_orbits(loop, policy="randomized")
    scheme = loop_scheme(loop, report)
    table = compute_character_table(intersection_numbers(scheme))
    match = compare_tables(table, closed_form_mstar(8), tol=1e-8)
    elapsed = time.perf_counter() - t0
    assert report.certificate == "exact" and report.n_classes == 9
    assert match.matched
    assert elapsed < 15.0, elapsed
    # the relations were read from the polar form of the norm; a row of
    # true quotients v / u agrees with them
    Z = np.arange(loop.n)
    assert np.array_equal(scheme.rel_row(1), report.class_of[loop.right_div_vec(Z, 1)])


def _mstar_valency(spec, t: int) -> int:
    """The size of the M*(q) trace class of t, odd q: SL(2, q)'s class
    sizes at q^3 in place of q, halved at trace 0."""
    q3, two = spec.q ** 3, int(spec.add_t[1, 1])
    if t in (two, int(spec.neg_t[two])):
        return q3 * q3 - 1
    disc = int(spec.sub_t[spec.mul_t[t, t], spec.mul_t[two, two]])
    split = disc in {int(spec.mul_t[x, x]) for x in range(1, spec.q)}
    k = q3 * (q3 + 1) if split else q3 * (q3 - 1)
    return k // 2 if t == 0 else k


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_trace_class_sizes_follow_the_dilated_rule(q):
    loop = build_paige_loop(q, element_cap=paige_loop_order(q))
    labels = loop.invariant_partition()
    firsts = first_members(labels, int(labels.max()) + 1)
    traces = [int(loop.spec.add_t[D[0], D[7]]) for D in loop.lift(firsts).T]
    want = [1] + [_mstar_valency(loop.spec, t) for t in traces[1:]]
    assert np.bincount(labels).tolist() == want


def _mstar11_report() -> dict:
    """M*(11) from the build to a character table, in this process."""
    t0 = time.perf_counter()
    loop = build_paige_loop(11, element_cap=paige_loop_order(11))
    report = inner_orbits(loop, policy="randomized")
    inter = intersection_numbers(loop_scheme(loop, report))
    table = compute_character_table(inter)
    elapsed = time.perf_counter() - t0
    firsts = first_members(report.class_of, report.n_classes)
    traces = [int(loop.spec.add_t[D[0], D[7]]) for D in loop.lift(firsts).T]
    return {
        "elapsed_s": elapsed,
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "certificate": report.certificate,
        "orthogonal": verify_orthogonality(table).passed,
        "commutes": inter.commutes,
        "row_sums": inter.tensor.sum(axis=2)[0].tolist(),
        "valencies": inter.valencies.tolist(),
        "traces": traces,
    }


# about 10 s and 900 MB on 2 vCPUs; the peak is reached in the refinement
@pytest.mark.slow
def test_mstar11_reaches_a_certified_table():
    src = os.path.dirname(os.path.dirname(schemeforge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)])}
    script = ("import json, test_inner_orbits; "
              "print(json.dumps(test_inner_orbits._mstar11_report()))")
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["certificate"] == "exact" and got["orthogonal"] and got["commutes"]
    assert got["row_sums"] == got["valencies"]
    spec = field_for(11)
    want = [1] + [_mstar_valency(spec, t) for t in got["traces"][1:]]
    assert got["valencies"] == want
    assert sorted(want) == [1, 885115, 1770230, 1770230, 1771560, 1772892, 1772892]
    assert got["elapsed_s"] < 45.0, got["elapsed_s"]
    assert got["peak_mb"] < 1100, got["peak_mb"]
