"""End-to-end acceptance gate.

Each test prints one [PASS]/[FAIL] line; the collected lines are repeated
in a terminal summary section after the run.  Heavy artifacts are built
once and cached at module level so criteria can also be run singly.
"""

import math
import time

import numpy as np
import pytest

from schemeforge.chartab import (CharacterTable, closed_form_mstar,
                                 closed_form_psl2, compare_tables,
                                 compute_character_table, double_coset_table,
                                 transfer_to_group_table,
                                 verify_candidate_table, verify_orthogonality)
from schemeforge.errors import InvalidFusion
from schemeforge.loopcore import (associativity_counterexample, inner_orbits,
                                  loop_scheme, moufang_check)
from schemeforge.permgroup import (coset_action, cyclic, group_scheme,
                                   orbitals, psl2, stabilizer, symmetric)
from schemeforge.scheme import (IntersectionNumbers, fuse,
                                intersection_numbers, verify_scheme_axioms)
from schemeforge.zorn import build_paige_loop

_CACHE: dict = {}


@pytest.fixture()
def record(request):
    def _record(num: int, ok: bool, detail: str):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"
        lines = getattr(request.config, "acceptance_lines", None)
        if lines is None:
            lines = []
            request.config.acceptance_lines = lines
        lines.append(line)
        print(line)
    return _record


def _loops():
    if "loops" not in _CACHE:
        t0 = time.perf_counter()
        loops = {q: build_paige_loop(q) for q in (2, 3, 4, 5)}
        _CACHE["loops"] = (loops, time.perf_counter() - t0)
    return _CACHE["loops"]


def _pipeline(q: int):
    key = f"pipeline{q}"
    if key not in _CACHE:
        loops, _ = _loops()
        t0 = time.perf_counter()
        loop = loops[q]
        orbits = inner_orbits(loop)
        scheme = loop_scheme(loop, orbits)
        table = compute_character_table(scheme)
        _CACHE[key] = (scheme, table, time.perf_counter() - t0)
    return _CACHE[key]


def _psl2_pipeline(q: int):
    key = f"psl{q}"
    if key not in _CACHE:
        t0 = time.perf_counter()
        scheme = group_scheme(psl2(q))
        table = compute_character_table(scheme)
        _CACHE[key] = (scheme, table, time.perf_counter() - t0)
    return _CACHE[key]


def _in_table_order(scheme, computed: CharacterTable, oracle: CharacterTable):
    """Intersection numbers of `scheme` relabeled into the oracle's class order."""
    res = compare_tables(computed, oracle, tol=1e-8)
    assert res.matched
    inv = np.argsort(res.col_perm)
    inter = intersection_numbers(scheme)
    tensor = inter.tensor[np.ix_(inv, inv, inv)]
    return IntersectionNumbers(tensor, inter.valencies[inv], inter.n)


def test_criterion_01_loop_orders(record):
    loops, elapsed = _loops()
    orders = tuple(loops[q].n for q in (2, 3, 4, 5))
    ok = orders == (120, 1080, 16320, 39000) and elapsed < 30
    record(1, ok, f"loop orders {orders} built in {elapsed:.1f}s (< 30s)")
    assert orders == (120, 1080, 16320, 39000)
    assert elapsed < 30


def test_criterion_02_moufang_certification(record):
    loops, _ = _loops()
    t0 = time.perf_counter()
    exhaustive = moufang_check(loops[2])
    sampled = {q: moufang_check(loops[q], samples=100_000)
               for q in (3, 4, 5)}
    witnesses = {q: associativity_counterexample(loops[q]) for q in (2, 3, 4, 5)}
    elapsed = time.perf_counter() - t0
    ok = (exhaustive.passed and exhaustive.mode == "exhaustive"
          and all(r.passed for r in sampled.values())
          and all(w is not None for w in witnesses.values())
          and elapsed < 120)
    record(2, ok, "Moufang holds (exhaustive q=2, 1e5 triples q=3,4,5), "
                  f"associativity fails for all q, in {elapsed:.1f}s (< 2min)")
    assert exhaustive.passed
    assert exhaustive.triples_checked == 120 ** 3
    for q in (3, 4, 5):
        assert sampled[q].passed and sampled[q].triples_checked == 100_000
    for q, witness in witnesses.items():
        assert witness is not None
        x, y, z = witness
        loop = loops[q]
        assert loop.mul(loop.mul(x, y), z) != loop.mul(x, loop.mul(y, z))
    assert elapsed < 120


def test_criterion_03_mstar2_table(record):
    scheme, table, elapsed = _pipeline(2)
    res = compare_tables(table, closed_form_mstar(2), tol=1e-8)
    m = np.sort(table.multiplicities)
    ok = (res.matched and res.max_diff < 1e-8
          and np.allclose(m, [1, 35, 84], atol=1e-6) and elapsed < 10)
    record(3, ok, f"M*(2) table matches closed form, max diff {res.max_diff:.1e}, "
                  f"m=(1,84,35), in {elapsed:.1f}s (< 10s)")
    assert res.matched and res.max_diff < 1e-8
    assert np.allclose(m, [1, 35, 84], atol=1e-6)
    assert elapsed < 10


def test_criterion_04_mstar4_table(record):
    scheme, table, elapsed = _pipeline(4)
    res = compare_tables(table, closed_form_mstar(4), tol=1e-8)
    ok = (table.d + 1 == 5 and not scheme.is_dense
          and res.matched and res.max_diff < 1e-8 and elapsed < 300)
    record(4, ok, f"M*(4) 5-class table matches closed form, max diff "
                  f"{res.max_diff:.1e}, function-backed, in {elapsed:.1f}s (< 5min)")
    assert table.d + 1 == 5
    assert not scheme.is_dense
    assert res.matched and res.max_diff < 1e-8
    assert elapsed < 300


def test_criterion_05_psl2_tables(record):
    results = {}
    total = 0.0
    for q in (4, 8):
        scheme, table, elapsed = _psl2_pipeline(q)
        total += elapsed
        results[q] = compare_tables(table, closed_form_psl2(q), tol=1e-8)
    ok = all(r.matched and r.max_diff < 1e-8 for r in results.values()) and total < 120
    record(5, ok, "PSL(2,4) and PSL(2,8) group-scheme tables match closed "
                  f"forms, max diffs {results[4].max_diff:.1e} / "
                  f"{results[8].max_diff:.1e}, in {total:.1f}s (< 2min)")
    for q in (4, 8):
        assert results[q].matched and results[q].max_diff < 1e-8
    assert total < 120


def test_criterion_06_orthogonality(record):
    tables = [_pipeline(2)[1], _pipeline(4)[1],
              _psl2_pipeline(4)[1], _psl2_pipeline(8)[1]]
    tables += [closed_form_mstar(q) for q in (2, 4, 8)]
    tables += [closed_form_psl2(q) for q in (2, 4, 8)]
    residuals = [verify_orthogonality(t, tol=1e-8) for t in tables]
    worst = max(r.max_residual for r in residuals)
    ok = all(r.passed for r in residuals)
    record(6, ok, f"orthogonality residual < 1e-8 for {len(tables)} tables "
                  f"(pipeline + oracles), worst {worst:.1e}")
    for r in residuals:
        assert r.passed, r
    assert worst < 1e-8


def test_criterion_07_transfer(record):
    sources = [("S3", group_scheme(symmetric(3)))]
    sources += [(f"Z{n}", group_scheme(cyclic(n))) for n in range(2, 13)]
    worst_square = 0.0
    worst_col = 0.0
    for q in (4, 5, 8):
        _, table, _ = _psl2_pipeline(q)
        g = transfer_to_group_table(table)
        worst_col = max(worst_col, g.column_orthogonality_residual())
        f = np.sqrt(table.multiplicities)
        worst_square = max(worst_square, float(np.abs(f - np.round(f)).max()))
    for name, scheme in sources:
        table = compute_character_table(scheme)
        g = transfer_to_group_table(table)
        worst_col = max(worst_col, g.column_orthogonality_residual())
        f = np.sqrt(table.multiplicities)
        worst_square = max(worst_square, float(np.abs(f - np.round(f)).max()))
    ok = worst_square < 1e-6 and worst_col < 1e-8
    record(7, ok, "transfer to group tables for S3, Z2..Z12, PSL(2,4/5/8): "
                  f"multiplicities square within {worst_square:.1e}, column "
                  f"orthogonality residual {worst_col:.1e}")
    assert worst_square < 1e-6
    assert worst_col < 1e-8


def test_criterion_08_double_coset_equivalence(record):
    t0 = time.perf_counter()
    cases = []
    s3 = symmetric(3)
    cases.append(("(S3, S2)", s3, stabilizer(s3, 2)))
    g5 = psl2(5)
    cases.append(("(PSL(2,5), point stab deg 6)", g5, stabilizer(g5, 0)))
    g4 = psl2(4)
    cases.append(("(PSL(2,4), point stab deg 5)", g4, stabilizer(g4, 0)))
    worst = 0.0
    for name, group, sub in cases:
        dct = double_coset_table(group, sub, tol=1e-8)
        action = coset_action(group, sub)
        orbital_table = compute_character_table(orbitals(action.group))
        res = compare_tables(dct.table, orbital_table, tol=1e-8)
        assert res.matched, name
        worst = max(worst, res.max_diff, dct.orbital_match.max_diff)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 60
    record(8, ok, "double-coset tables equal orbital tables for (S3,S2), "
                  f"(PSL(2,5),H6), (PSL(2,4),H5), max diff {worst:.1e}, "
                  f"in {elapsed:.1f}s (< 1min)")
    assert worst < 1e-8
    assert elapsed < 60


def _fused_psl25():
    if "fused25" not in _CACHE:
        scheme = group_scheme(psl2(5))
        k = scheme.valencies.tolist()
        twelves = [i for i, v in enumerate(k) if v == 12]
        cells = [[i] for i in range(len(k)) if i not in twelves] + [twelves]
        fused = fuse(scheme, cells)
        _CACHE["fused25"] = fused
    return _CACHE["fused25"]


def test_criterion_09_fusion(record):
    fused = _fused_psl25()
    table = compute_character_table(fused)
    report = verify_candidate_table(table, fused, tol=1e-8)
    z4 = group_scheme(cyclic(4))
    rejected = False
    try:
        fuse(z4, [[0], [1, 2], [3]])
    except InvalidFusion:
        rejected = True
    ok = fused.d + 1 == 4 and report.passed and rejected
    record(9, ok, "fusing the size-12 pair of X(PSL(2,5)) gives a valid "
                  "4-class scheme with certified table; Z4 fusion {1,2} "
                  "raises InvalidFusion")
    assert fused.d + 1 == 4
    assert report.passed, report.messages
    assert rejected


def test_criterion_10_certification_and_perturbation(record):
    pairs = [(_pipeline(2)[1], _pipeline(2)[0]),
             (_pipeline(4)[1], _pipeline(4)[0]),
             (_psl2_pipeline(4)[1], _psl2_pipeline(4)[0]),
             (_psl2_pipeline(8)[1], _psl2_pipeline(8)[0])]
    # oracles certified against the pipeline intersection numbers relabeled
    # into the oracle class order
    oracle_pairs = [
        (closed_form_mstar(2), _in_table_order(_pipeline(2)[0], _pipeline(2)[1],
                                               closed_form_mstar(2))),
        (closed_form_mstar(4), _in_table_order(_pipeline(4)[0], _pipeline(4)[1],
                                               closed_form_mstar(4))),
        (closed_form_psl2(4), _in_table_order(_psl2_pipeline(4)[0],
                                              _psl2_pipeline(4)[1],
                                              closed_form_psl2(4))),
        (closed_form_psl2(8), _in_table_order(_psl2_pipeline(8)[0],
                                              _psl2_pipeline(8)[1],
                                              closed_form_psl2(8))),
    ]
    all_passed = True
    for table, source in pairs + oracle_pairs:
        report = verify_candidate_table(table, source, tol=1e-8)
        all_passed = all_passed and report.passed
        assert report.passed, report.messages
    perturbations = 0
    failures = 0
    for table, source in [pairs[0], pairs[2], oracle_pairs[0], oracle_pairs[2]]:
        d1 = table.d + 1
        for i in range(d1):
            for j in range(d1):
                P = table.P.copy()
                P[i, j] += 1e-2
                bad = CharacterTable(P, table.valencies, table.multiplicities,
                                     table.n)
                perturbations += 1
                if not verify_candidate_table(bad, source, tol=1e-8).passed:
                    failures += 1
    ok = all_passed and failures == perturbations
    record(10, ok, f"verify_candidate_table passes 8 honest tables; all "
                   f"{perturbations} single-entry 1e-2 perturbations rejected")
    assert failures == perturbations


def test_criterion_11_q5_pair(record):
    t0 = time.perf_counter()
    loops, _ = _loops()
    loop5 = loops[5]
    orbits = inner_orbits(loop5, policy="randomized")
    scheme5 = loop_scheme(loop5, orbits)
    table5 = compute_character_table(scheme5)
    axioms5 = verify_scheme_axioms(scheme5)
    cert5 = verify_candidate_table(table5, scheme5, tol=1e-8)
    elapsed = time.perf_counter() - t0

    fused = _fused_psl25()
    fused_table = compute_character_table(fused)
    fused_axioms = verify_scheme_axioms(fused)
    fused_cert = verify_candidate_table(fused_table, fused, tol=1e-8)

    counts = (fused.d + 1, scheme5.d + 1)
    ok = (axioms5.passed and cert5.passed and fused_axioms.passed
          and fused_cert.passed and elapsed < 3600)
    record(11, ok, f"q=5 pair certified: fused X(PSL(2,5)) has {counts[0]} "
                   f"classes, X(M*(5)) has {counts[1]} classes; M*(5) leg in "
                   f"{elapsed:.1f}s (< 60min)")
    assert axioms5.passed, axioms5.failures
    assert cert5.passed, cert5.messages
    assert fused_axioms.passed, fused_axioms.failures
    assert fused_cert.passed, fused_cert.messages
    assert counts == (4, 4)
    assert elapsed < 3600
