import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeforge.errors import DivisionByZero, UnsupportedField
from schemeforge.gf import FieldSpec, factor_prime_power, field_for, is_prime


def test_is_prime_small_values():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


@pytest.mark.parametrize("q,p,r", [(2, 2, 1), (3, 3, 1), (4, 2, 2), (8, 2, 3),
                                   (9, 3, 2), (25, 5, 2), (27, 3, 3), (7, 7, 1)])
def test_factor_prime_power(q, p, r):
    assert factor_prime_power(q) == (p, r)


@pytest.mark.parametrize("q", [0, 1, 6, 12, 100])
def test_factor_prime_power_rejects_non_prime_powers(q):
    with pytest.raises(UnsupportedField):
        factor_prime_power(q)


def test_field_spec_rejects_composite_characteristic():
    with pytest.raises(UnsupportedField):
        FieldSpec(4, 1)


def test_gf4_tables_match_hand_computation():
    # GF(4) = GF(2)[x]/(x^2+x+1), encoding 2 = x, 3 = x+1
    F = field_for(4)
    add = [[F.add(a, b) for b in range(4)] for a in range(4)]
    mul = [[F.mul(a, b) for b in range(4)] for a in range(4)]
    assert add == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    assert mul == [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_exhaustive(q):
    F = field_for(q)
    xs = range(q)
    for a, b in itertools.product(xs, xs):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.sub(F.add(a, b), b) == a
    for a, b, c in itertools.product(xs, xs, xs):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25])
def test_inverses_and_unit_group(q):
    F = field_for(q)
    for x in range(1, q):
        assert F.mul(x, F.inv(x)) == 1
        assert F.pow(x, q - 1) == 1
        assert F.div(x, x) == 1
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_log_antilog_tables_are_inverse(q):
    F = field_for(q)
    for x in range(1, q):
        assert int(F.exp_t[int(F.log_t[x])]) == x
    # one full period: powers of the generator hit every nonzero element
    assert sorted(int(v) for v in F.exp_t) == list(range(1, q))
    assert int(F.exp_t[0]) == 1


def test_division_by_zero_raises():
    F = field_for(8)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.div(3, 0)


def test_encoding_range_checked():
    F = field_for(4)
    with pytest.raises(ValueError):
        F.add(1, 4)
    with pytest.raises(ValueError):
        F.mul(-1, 2)


def _dot(F, U, V):
    """Dot products of the 3-vectors U[:, k] and V[:, k] through the tables."""
    return F.add_t[F.add_t[F.mul_t[U[0], V[0]], F.mul_t[U[1], V[1]]], F.mul_t[U[2], V[2]]]


def _cross(F, U, V):
    return np.array([F.sub_t[F.mul_t[U[i], V[j]], F.mul_t[U[j], V[i]]]
                     for i, j in ((1, 2), (2, 0), (0, 1))])


def test_dot_cross_gf3():
    F = field_for(3)
    u, v = np.array([1, 2, 0]), np.array([0, 1, 2])
    assert _dot(F, u, v) == 2
    assert _cross(F, u, v).tolist() == [1, 1, 1]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_cross_product_identities(q):
    F = field_for(q)
    rng = np.random.default_rng(7)
    U, V = rng.integers(0, q, (2, 3, 50))
    uxv = _cross(F, U, V)
    assert np.array_equal(uxv, F.neg_t[_cross(F, V, U)])
    assert not _dot(F, U, uxv).any()
    assert not _dot(F, V, uxv).any()
    assert not _cross(F, U, U).any()


def test_field_for_is_cached():
    assert field_for(8) is field_for(8)


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27]),
       data=st.data())
def test_division_solves_linear_equations(q, data):
    F = field_for(q)
    a = data.draw(st.integers(1, q - 1))
    b = data.draw(st.integers(0, q - 1))
    x = F.div(b, a)
    assert F.mul(a, x) == b


def test_vectorized_tables_match_scalar_ops():
    F = field_for(8)
    a = np.arange(8).repeat(8)
    b = np.tile(np.arange(8), 8)
    assert all(int(F.add_t[x, y]) == F.add(int(x), int(y)) for x, y in zip(a, b))
    assert all(int(F.mul_t[x, y]) == F.mul(int(x), int(y)) for x, y in zip(a, b))
