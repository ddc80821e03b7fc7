import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeforge import chartab, loop_scheme
from schemeforge.chartab import (CharacterTable, closed_form_mstar,
                                 closed_form_psl2, compare_tables,
                                 compute_character_table, double_coset_table,
                                 format_complex, gelfand_check,
                                 group_character_table, multiplicities,
                                 parse_complex, table_from_csv, table_to_csv,
                                 table_to_latex, table_to_text,
                                 transfer_to_group_table,
                                 verify_candidate_table, verify_orthogonality)
from schemeforge.config import DEFAULT_SEED, DEFAULT_TOL_EIGEN
from schemeforge.errors import (EigensolverFailure, MismatchWithOrbitalTable,
                                NonCommutative, NonPositiveMultiplicity,
                                NotGroupScheme, ParseError, UnsupportedQ)
from schemeforge.permgroup import (cyclic, group_scheme, orbitals, psl2,
                                   stabilizer, symmetric)
from schemeforge.scheme import (IntersectionNumbers, complete_graph_scheme,
                                fuse, intersection_numbers)

MSTAR2_P = [[1, 63, 56], [1, 3, -4], [1, -9, 8]]
PSL2_2_P = [[1, 3, 2], [1, 0, -1], [1, -3, 2]]


def test_closed_form_mstar_q2():
    t = closed_form_mstar(2)
    assert t.n == 120 and t.d == 2
    assert np.array_equal(t.P.real, np.array(MSTAR2_P, dtype=float))
    assert np.abs(t.P.imag).max() == 0
    assert t.valencies.tolist() == [1, 63, 56]
    assert t.multiplicities.tolist() == [1, 84, 35]


def test_closed_form_mstar_q4():
    q = 4
    t = closed_form_mstar(q)
    assert t.n == 16320 and t.d == 4
    assert t.valencies.tolist() == [1, 4095, 4032, 4032, 4160]
    assert t.P.real[0].tolist() == [1, 4095, 4032, 4032, 4160]
    assert t.P.real[1].tolist() == [1, 15, -48, -48, 80]
    # rows indexed by k = 1: entries q^2 * a_{k l}, a_{k l} = -2 q cos(2 pi k l / (q + 1))
    for row, k in ((2, 1), (3, 2)):
        for col, l in ((2, 1), (3, 2)):
            want = q * q * (-2 * q * math.cos(2 * math.pi * k * l / (q + 1)))
            assert t.P.real[row, col] == pytest.approx(want, abs=1e-9)
        assert t.P.real[row, 1] == -(q ** 3) - 1
        assert t.P.real[row, 4] == 0
    # row indexed by m = 1: entries q^2 * b_{m n}, b_{m n} = 2 q cos(2 pi m n / (q - 1))
    assert t.P.real[4].tolist() == [1, 63, 0, 0, -64]
    assert sum(t.multiplicities) == pytest.approx(16320)


REJECTIONS = {6: "6 is not a prime power", 12: "12 is not a prime power",
              512: "field order must lie in [2, 256], got 512"}


@pytest.mark.parametrize("q", [3, 5, 6, 12, 512])
def test_closed_form_mstar_rejects_odd_q(q):
    message = REJECTIONS.get(q, f"closed form requires q = 2^r, got q = {q}")
    with pytest.raises(UnsupportedQ, match=f"^{re.escape(message)}$"):
        closed_form_mstar(q)


def test_closed_form_psl2_q2():
    t = closed_form_psl2(2)
    assert np.array_equal(t.P.real, np.array(PSL2_2_P, dtype=float))
    assert t.n == 6
    assert t.multiplicities.tolist() == [1, 4, 1]


def test_closed_form_psl2_q4():
    q = 4
    t = closed_form_psl2(q)
    assert t.n == 60 and t.d == 4
    assert t.valencies.tolist() == [1, 15, 12, 12, 20]
    assert t.P.real[1].tolist() == [1, 0, -3, -3, 5]
    for row, k in ((2, 1), (3, 2)):
        for col, l in ((2, 1), (3, 2)):
            want = -2 * q * math.cos(2 * math.pi * k * l / (q + 1))
            assert t.P.real[row, col] == pytest.approx(want, abs=1e-9)
        assert t.P.real[row, 1] == -q - 1
    assert t.P.real[4].tolist() == [1, 3, 0, 0, -4]
    assert t.multiplicities.tolist() == [1, 16, 9, 9, 25]


def test_closed_form_psl2_q8_shape():
    t = closed_form_psl2(8)
    assert t.n == 504 and t.d == 8
    assert t.valencies.tolist() == [1, 63, 56, 56, 56, 56, 72, 72, 72]
    assert t.multiplicities.tolist() == [1, 64, 49, 49, 49, 49, 81, 81, 81]


def test_multiplicities_formula():
    m = multiplicities(np.array(MSTAR2_P, dtype=complex), [1, 63, 56], 120)
    assert np.allclose(m, [1, 84, 35], atol=1e-9)
    m2 = multiplicities(np.array([[1, 5], [1, -1]], dtype=complex), [1, 5], 6)
    assert np.allclose(m2, [1, 5])


def test_multiplicities_rejects_degenerate_input():
    with pytest.raises(NonPositiveMultiplicity):
        multiplicities(np.zeros((2, 2), dtype=complex), [1, 3], 4)


EVEN_Q = [2, 4, 8, 16, 32, 64, 128, 256]


@pytest.mark.parametrize("q", EVEN_Q)
def test_closed_form_mstar_is_the_q2_dilation_of_psl2(q):
    psl, mstar = closed_form_psl2(q), closed_form_mstar(q)
    q2, q3 = q * q, q ** 3
    assert np.array_equal(mstar.P[1:, 2:], q2 * psl.P[1:, 2:])
    assert np.array_equal(mstar.P[1:, 1], q2 * psl.P[1:, 1] + q2 - 1)
    assert np.array_equal(mstar.P[:, 0], np.ones(mstar.d + 1))
    assert mstar.valencies.tolist() == ([1, q3 * q3 - 1] + [q3 * (q3 - 1)] * (q // 2)
                                        + [q3 * (q3 + 1)] * ((q - 2) // 2))
    assert np.array_equal(mstar.P[0].real, mstar.valencies)
    assert mstar.n == q3 * (q ** 4 - 1)
    # where PSL(2, q) has an integer entry, M*(q) has an exact integer
    integral = psl.P == np.round(psl.P.real)
    assert integral[:2].all() and integral[:, :2].all()
    assert np.array_equal(mstar.P[integral], np.round(mstar.P[integral].real))


@pytest.mark.parametrize("q", EVEN_Q)
def test_oracle_orthogonality(q):
    assert verify_orthogonality(closed_form_mstar(q), tol=1e-8).passed
    assert verify_orthogonality(closed_form_psl2(q), tol=1e-8).passed


def test_orthogonality_fails_after_perturbation():
    t = closed_form_mstar(2)
    P = t.P.copy()
    P[1, 2] += 1e-2
    bad = CharacterTable(P, t.valencies, t.multiplicities, t.n)
    report = verify_orthogonality(bad, tol=1e-8)
    assert not report.passed
    assert report.max_residual > 1e-8


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_complete_graph_table(n):
    t = compute_character_table(complete_graph_scheme(n))
    assert np.allclose(t.P.real, [[1, n - 1], [1, -1]], atol=1e-12)
    assert np.allclose(t.multiplicities, [1, n - 1])


def test_cyclic_3_table_is_root_of_unity_grid():
    t = compute_character_table(group_scheme(cyclic(3)))
    w = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    expect_rows = {tuple(np.round([w ** (i * j) for j in range(3)], 9))
                   for i in range(3)}
    got_rows = {tuple(np.round(row, 9)) for row in t.P}
    assert got_rows == expect_rows
    assert np.allclose(t.multiplicities, [1, 1, 1])


def test_s3_group_scheme_table():
    t = compute_character_table(group_scheme(symmetric(3)))
    assert np.allclose(t.P.real, [[1, 2, 3], [1, -1, 0], [1, 2, -3]], atol=1e-12)
    assert np.abs(t.P.imag).max() < 1e-12
    assert np.allclose(t.multiplicities, [1, 4, 1], atol=1e-9)


def test_pipeline_matches_oracle_mstar2(mstar2_scheme):
    got = compute_character_table(mstar2_scheme)
    res = compare_tables(got, closed_form_mstar(2), tol=1e-8)
    assert res.matched
    assert res.max_diff < 1e-8


@pytest.mark.parametrize("q, seed", [(8, 733544948), (16, DEFAULT_SEED)])
def test_pipeline_matches_oracle_psl2(q, seed):
    # seed 733544948 once gave a PSL(2,8) table 1.5e-8 off the closed form
    table = compute_character_table(group_scheme(psl2(q)), seed=seed)
    res = compare_tables(table, closed_form_psl2(q), tol=1e-8)
    assert res.matched
    assert res.max_diff < 1e-8


def test_table_has_unit_column_and_valency_row(mstar2_scheme):
    t = compute_character_table(mstar2_scheme)
    assert np.allclose(t.P[:, 0], 1.0)
    assert np.allclose(t.P[0].real, t.valencies)
    assert abs(t.multiplicities.sum() - t.n) < 1e-8


def test_seed_changes_nothing(mstar2_scheme):
    a = compute_character_table(mstar2_scheme, seed=1)
    b = compute_character_table(mstar2_scheme, seed=12345)
    assert np.allclose(a.P, b.P, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 24))
def test_cyclic_table_entries_are_roots_of_unity(n):
    t = compute_character_table(group_scheme(cyclic(n)))
    assert np.allclose(np.abs(t.P), 1.0, atol=1e-9)
    assert np.allclose(t.P ** n, 1.0, atol=1e-7)
    assert np.allclose(t.multiplicities, 1.0, atol=1e-9)


def test_eigensolver_sweep_small_schemes():
    # a spread of small commutative schemes; residuals should stay tiny
    sources = []
    for n in range(2, 26):
        sources.append(orbitals(cyclic(n)))
    for n in range(2, 26):
        sources.append(complete_graph_scheme(n))
    for n in (3, 4, 5):
        sources.append(group_scheme(symmetric(n)))
    for q in (2, 3, 4, 5, 7):
        sources.append(group_scheme(psl2(q)))
    for n in (4, 6, 8, 9, 10, 12):
        sources.append(group_scheme(cyclic(n)))
    assert len(sources) >= 60
    for scheme in sources:
        table = compute_character_table(scheme)
        report = verify_candidate_table(table, scheme, tol=1e-8)
        assert report.passed, (scheme, report.messages)
        assert report.max_eigen_residual <= 1e-10


@pytest.fixture(scope="module")
def pipeline_schemes(paige2, paige3):
    schemes = {"M*(2)": loop_scheme(paige2), "M*(3)": loop_scheme(paige3)}
    schemes.update({f"PSL(2,{q})": group_scheme(psl2(q)) for q in (4, 8, 16)})
    schemes.update({f"S{n}": group_scheme(symmetric(n)) for n in (3, 4, 5, 6)})
    return {name: intersection_numbers(sch) for name, sch in schemes.items()}


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2])
def test_every_returned_table_passes_the_published_check(pipeline_schemes, seed):
    for name, inter in pipeline_schemes.items():
        table = compute_character_table(inter, seed=seed)
        report = verify_candidate_table(table, inter, tol=10 * DEFAULT_TOL_EIGEN)
        assert report.passed, (name, report.messages)


def test_a_table_that_fails_the_published_check_is_not_returned(monkeypatch,
                                                                mstar2_scheme):
    tols = []

    def refuse(table, source, tol):
        tols.append(tol)
        report = verify_candidate_table(table, source, tol=tol)
        report.passed = False
        report.messages[:] = ["refused"]
        return report
    monkeypatch.setattr(chartab, "verify_candidate_table", refuse)
    with pytest.raises(EigensolverFailure, match="refused"):
        compute_character_table(mstar2_scheme, tol_eigen=1e-9)
    assert tols == [1e-8] * chartab.MAX_TRIES


def test_non_commuting_matrices_rejected():
    tensor = np.zeros((3, 3, 3), dtype=np.int64)
    tensor[:, 0, :] = np.eye(3, dtype=np.int64)
    tensor[:, 1, :] = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    tensor[:, 2, :] = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    fake = IntersectionNumbers(tensor, np.array([1, 1, 1]), 3)
    assert not fake.commutes
    with pytest.raises(NonCommutative):
        compute_character_table(fake)


def test_candidate_report_catches_swapped_rows():
    t = closed_form_mstar(2)
    scheme_like = _mstar2_intersection()
    P = t.P.copy()
    P[[1, 2]] = P[[2, 1]]  # rows swapped but multiplicities left in place
    bad = CharacterTable(P, t.valencies, t.multiplicities, t.n)
    report = verify_candidate_table(bad, scheme_like, tol=1e-8)
    assert not report.passed
    assert not report.checks["orthogonality"] or not report.checks["eigen_relations"]


def _mstar2_intersection():
    # intersection numbers in the oracle's class order, rebuilt from the
    # table itself: B_j = P^{-1} diag(P[:, j]) P has entries (B_j)[h, l] = p_jl^h
    t = closed_form_mstar(2)
    P = t.P.real
    Pinv = np.linalg.inv(P)
    d1 = P.shape[0]
    tensor = np.zeros((d1, d1, d1), dtype=np.int64)
    for j in range(d1):
        Bj = Pinv @ np.diag(P[:, j]) @ P
        tensor[:, j, :] = np.round(Bj).astype(np.int64)
    return IntersectionNumbers(tensor, t.valencies, t.n)


def test_candidate_report_catches_single_entry_perturbation(mstar2_scheme):
    t = compute_character_table(mstar2_scheme)
    # checked with the scheme, and without it
    for source in (mstar2_scheme, None):
        for i in range(3):
            for j in range(3):
                P = t.P.copy()
                P[i, j] += 1e-2
                bad = CharacterTable(P, t.valencies, t.multiplicities, t.n)
                report = verify_candidate_table(bad, source, tol=1e-8)
                assert not report.passed, (source is None, i, j)


def test_candidate_report_passes_for_honest_tables(mstar2_scheme):
    t = compute_character_table(mstar2_scheme)
    for source in (mstar2_scheme, None):
        report = verify_candidate_table(t, source, tol=1e-8)
        assert report.passed
        assert all(report.checks.values())
        assert report.orthogonality.passed
        # the eigen relations need the scheme, and are skipped without it
        assert ("eigen_relations" in report.checks) is (source is not None)
        assert (report.max_eigen_residual is None) is (source is None)


def test_transfer_s3():
    t = compute_character_table(group_scheme(symmetric(3)))
    g = transfer_to_group_table(t)
    assert g.order == 6
    assert sorted(g.degrees.tolist()) == [1, 1, 2]
    assert g.class_sizes.tolist() == [1, 2, 3]
    rows = {tuple(np.round(row.real, 9)) for row in g.T}
    assert rows == {(1, 1, 1), (2, -1, 0), (1, 1, -1)}
    assert g.column_orthogonality_residual() < 1e-10


@pytest.mark.parametrize("n", list(range(2, 13)))
def test_transfer_cyclic_groups(n):
    t = compute_character_table(group_scheme(cyclic(n)))
    g = transfer_to_group_table(t)
    assert np.all(g.degrees == 1)
    assert g.column_orthogonality_residual() < 1e-8
    # character values are n-th roots of unity
    assert np.allclose(np.abs(g.T), 1.0, atol=1e-9)


def test_transfer_psl2_4_degrees():
    t = compute_character_table(group_scheme(psl2(4)))
    g = transfer_to_group_table(t)
    assert sorted(g.degrees.tolist()) == [1, 3, 3, 4, 5]
    assert g.column_orthogonality_residual() < 1e-8


def test_transfer_rejects_non_group_scheme():
    # the loop table's multiplicities (1, 84, 35) are not perfect squares
    with pytest.raises(NotGroupScheme):
        transfer_to_group_table(closed_form_mstar(2))


def test_group_character_table_shortcut():
    g = group_character_table(symmetric(3))
    assert g.order == 6
    assert sorted(g.degrees.tolist()) == [1, 1, 2]
    assert g.verify(tol=1e-8)


def test_gelfand_check_point_stabilizer():
    s3 = symmetric(3)
    rep = gelfand_check(s3, stabilizer(s3, 2))
    assert rep.passed
    assert rep.multiplicities == [1, 1, 0]


def test_gelfand_check_regular_action_not_multiplicity_free():
    rep = gelfand_check(symmetric(3), [0])
    assert not rep.passed
    assert max(rep.multiplicities) == 2


def test_gelfand_check_psl2_5_point_stabilizer():
    g = psl2(5)
    rep = gelfand_check(g, stabilizer(g, 0))
    assert rep.passed


def test_double_coset_table_s3():
    s3 = symmetric(3)
    dct = double_coset_table(s3, stabilizer(s3, 2))
    assert np.allclose(dct.table.P.real, [[1, 2], [1, -1]], atol=1e-10)
    assert dct.table.P[1, 1].real == pytest.approx(-1.0, abs=1e-10)
    assert dct.theta.tolist() == [3, 0, 1]
    assert dct.constituents == [0, 1]
    assert dct.part_sizes == [2, 4]
    assert dct.orbital_match.matched
    assert dct.orbital_match.max_diff < 1e-8


def test_double_coset_table_whole_group():
    s3 = symmetric(3)
    dct = double_coset_table(s3, list(range(6)))
    assert dct.table.P.shape == (1, 1)
    assert dct.table.P[0, 0] == pytest.approx(1.0)


def test_double_coset_table_trivial_subgroup_cyclic():
    z3 = cyclic(3)
    dct = double_coset_table(z3, [0])
    direct = compute_character_table(group_scheme(z3))
    res = compare_tables(dct.table, direct, tol=1e-8)
    assert res.matched


def test_double_coset_mismatch_without_a_bound_names_no_number(monkeypatch):
    from schemeforge import chartab
    monkeypatch.setattr(chartab, "compare_tables",
                        lambda *a, **k: chartab.MatchResult(False, None, None, None))
    s3 = symmetric(3)
    with pytest.raises(MismatchWithOrbitalTable, match=r"\(no matching within tol\)$"):
        double_coset_table(s3, stabilizer(s3, 2))


def test_compare_tables_identity():
    t = closed_form_psl2(4)
    res = compare_tables(t, t)
    assert res.matched and res.max_diff == 0
    assert res.row_perm.tolist() == [0, 1, 2, 3, 4]
    assert res.col_perm.tolist() == [0, 1, 2, 3, 4]


def test_compare_tables_bridges_class_order(mstar2_scheme):
    got = compute_character_table(mstar2_scheme)
    res = compare_tables(got, closed_form_mstar(2))
    assert res.matched
    assert res.col_perm.tolist() == [0, 2, 1]


def test_compare_tables_rejects_different_tables():
    res = compare_tables(closed_form_psl2(2), closed_form_mstar(2))
    assert not res.matched


def _shuffled(t: CharacterTable, seed: int) -> CharacterTable:
    rng = np.random.default_rng(seed)
    rows = np.concatenate([[0], 1 + rng.permutation(t.d)])
    cols = np.concatenate([[0], 1 + rng.permutation(t.d)])
    return CharacterTable(t.P[rows][:, cols], t.valencies[cols],
                          t.multiplicities[rows], t.n)


@pytest.mark.parametrize("oracle", [lambda: closed_form_mstar(8),
                                    lambda: closed_form_psl2(16)],
                         ids=["mstar8", "psl2_16"])
def test_compare_tables_undoes_a_shuffle(oracle):
    t = oracle()
    s = _shuffled(t, seed=t.d)
    res = compare_tables(s, t)
    assert res.matched
    assert np.array_equal(s.valencies, t.valencies[res.col_perm])
    assert np.abs(s.P - t.P[res.row_perm][:, res.col_perm]).max() < 1e-8


@pytest.mark.parametrize("q", [16, 32])
def test_compare_tables_rejects_perturbed_entry(q):
    t = closed_form_psl2(q)
    s = _shuffled(t, seed=q)
    s.P[3, 5] += 1e-6
    res = compare_tables(s, t)
    assert not res.matched
    assert 1e-8 < res.max_diff < 1e-5


def test_compare_tables_rejects_dimension_mismatch():
    res = compare_tables(closed_form_psl2(2), closed_form_psl2(4))
    assert not res.matched and res.max_diff is None


def test_format_and_parse_complex():
    assert format_complex(3.0 + 0j) == "3.0"
    assert format_complex(-4.0 + 0j) == "-4.0"
    assert parse_complex("3") == 3.0
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5-0.866i") == pytest.approx(-0.5 - 0.866j)
    z = -0.5 + 0.8660254037844386j
    assert parse_complex(format_complex(z)) == pytest.approx(z, abs=0)
    with pytest.raises(ParseError):
        parse_complex("fish")


def test_table_csv_roundtrip_exact():
    for t in (closed_form_mstar(4), closed_form_psl2(8),
              compute_character_table(group_scheme(cyclic(5)))):
        text = table_to_csv(t)
        again = table_from_csv(text)
        spaced = table_from_csv("\n" + text.replace("\n", "\n\n"))   # blank lines are skipped
        assert np.array_equal(spaced.P, again.P)
        assert again.n == t.n
        assert np.array_equal(again.P, t.P)
        assert np.array_equal(again.valencies, t.valencies)
        assert np.array_equal(again.multiplicities, t.multiplicities)


@pytest.mark.parametrize("P,valencies,multiplicities,n,fault", [
    ([[1, 2], [1, -1]], [1, 0], [1, 2], 3, "valencies must be positive integers"),
    ([[1, 2], [1, -1]], [1, 2.5], [1, 2], 3, "valencies must be positive integers"),
    ([[1, 2], [1, -1]], [1, float("nan")], [1, 2], 3, "valencies must be positive integers"),
    ([[1, 2], [1, -1]], [1, 2], [-1, 4], 3, "multiplicities must be positive and finite"),
    ([[1, 2], [1, -1]], [1, 2], [1, 0], 3, "multiplicities must be positive and finite"),
    ([[1, 2], [1, -1]], [1, 2], [1, float("inf")], 3,
     "multiplicities must be positive and finite"),
    ([[1, 2], [1, -1]], [1, 2], [1, 2], 0, "n must be at least 1"),
    ([[1, 2], [1, float("nan")]], [1, 2], [1, 2], 3, "entries of P must be finite"),
], ids=["valency-0", "valency-2.5", "valency-nan", "multiplicity-negative",
        "multiplicity-0", "multiplicity-inf", "n-0", "P-nan"])
def test_character_table_refuses_impossible_parameters(P, valencies, multiplicities, n, fault):
    with pytest.raises(ValueError, match=fault):
        CharacterTable(P, valencies, multiplicities, n)


@pytest.mark.parametrize("call,error,message", [
    (lambda: CharacterTable([[1, 2, 3], [1, -1, 0]], [1, 2], [1, 2], 3), ValueError,
     "character table must be square"),
    (lambda: CharacterTable([[1, 2], [1, -1]], [1, 2, 3], [1, 2], 3), ValueError,
     "one valency per column"),
    (lambda: CharacterTable([[1, 2], [1, -1]], [1, 2], [1, 2, 3], 3), ValueError,
     "one multiplicity per row"),
    (lambda: compute_character_table(np.eye(2)), TypeError,
     "expected an AssociationScheme or IntersectionNumbers"),
], ids=["not-square", "valency-count", "multiplicity-count", "source-type"])
def test_table_inputs_of_the_wrong_shape_or_type_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_table_csv_rejects_garbage():
    with pytest.raises(ParseError):
        table_from_csv("kind,character-table\nn,6\n")
    with pytest.raises(ParseError):
        table_from_csv("nonsense\n")


def test_table_json_roundtrip_exact():
    t = closed_form_mstar(4)
    again = CharacterTable.from_json(json.loads(json.dumps(t.to_json())))
    assert np.array_equal(again.P, t.P)
    assert np.array_equal(again.valencies, t.valencies)
    assert again.n == t.n


def test_table_json_rejects_malformed():
    t = closed_form_psl2(2)
    data = t.to_json()
    del data["valencies"]
    with pytest.raises(ParseError):
        CharacterTable.from_json(data)


def test_latex_and_text_rendering():
    t = closed_form_psl2(2)
    tex = table_to_latex(t)
    assert "\\begin{array}" in tex and "-3" in tex
    txt = table_to_text(compute_character_table(group_scheme(cyclic(3))))
    assert "i" in txt  # complex entries rendered
    assert "m" in txt and "k" in txt


def _table(P, valencies) -> CharacterTable:
    P = np.asarray(P, dtype=np.complex128)
    return CharacterTable(P, valencies, np.ones(P.shape[0]), 7)


def test_compare_tables_backtracks_from_a_dead_end():
    # row 1 of s fits rows 2 and 3 of t; pairing it with row 2 first leaves
    # row 3 of s without a column map consistent with the pairings so far
    P = [[1, -1, -1, 0], [1, 1, -1, 1], [1, -1, -2, 1], [1, -2, -1, 1]]
    t = _table(P, [1, 2, 2, 2])
    s = _table(np.asarray(P)[[0, 3, 2, 1]][:, [0, 2, 1, 3]], [1, 2, 2, 2])
    res = compare_tables(s, t)
    assert res.matched and res.max_diff == 0
    assert res.row_perm.tolist() == [0, 3, 2, 1]
    assert res.col_perm.tolist() == [0, 2, 1, 3]


def test_compare_tables_rejects_rows_that_fit_only_one_at_a_time():
    # each row of s equals a row of t up to swapping columns 1 and 2, but
    # row 1 needs the swap and row 2 forbids it
    t = _table([[1, 2, 3], [1, 5, 7], [1, 8, 9]], [1, 2, 2])
    s = _table([[1, 2, 3], [1, 7, 5], [1, 8, 9]], [1, 2, 2])
    res = compare_tables(s, t)
    assert not res.matched
    # no matching within tol, and no finite bound on the deviation known
    assert res.row_perm is None and res.max_diff is None


def test_compute_character_table_gives_up_after_max_tries():
    # no try's table meets the published check at 10 * 1e-300
    with pytest.raises(EigensolverFailure, match=f"after {chartab.MAX_TRIES} tries"):
        compute_character_table(complete_graph_scheme(4), tol_eigen=1e-300)


def test_constituent_multiplicities_must_be_integral(monkeypatch):
    from schemeforge import chartab
    s3 = symmetric(3)
    gct = group_character_table(s3)
    gct.T = gct.T * 0.5
    monkeypatch.setattr(chartab, "group_character_table", lambda *args, **kw: gct)
    with pytest.raises(EigensolverFailure, match="not integral"):
        gelfand_check(s3, stabilizer(s3, 2))
    with pytest.raises(EigensolverFailure, match="not integral"):
        double_coset_table(s3, stabilizer(s3, 2))
