import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeforge.errors import UnsupportedField
from schemeforge.gf import BUILTIN_MODULI, FieldSpec, factor_prime_power, field_for, is_prime


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
    assert F.add_t.tolist() == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    assert F.mul_t.tolist() == [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_exhaustive(q):
    F = field_for(q)
    A, M, S = F.add_t, F.mul_t, F.sub_t
    xs = range(q)
    for a, b in itertools.product(xs, xs):
        assert A[a, b] == A[b, a]
        assert M[a, b] == M[b, a]
        assert S[A[a, b], b] == a
    for a, b, c in itertools.product(xs, xs, xs):
        assert A[A[a, b], c] == A[a, A[b, c]]
        assert M[M[a, b], c] == M[a, M[b, c]]
        assert M[a, A[b, c]] == A[M[a, b], M[a, c]]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25])
def test_inverses_and_unit_group(q):
    F = field_for(q)
    for x in range(1, q):
        assert F.mul_t[x, F.inv_t[x]] == 1
        power = x
        for _ in range(q - 2):
            power = F.mul_t[power, x]
        assert power == 1                       # x^(q-1)


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_log_antilog_tables_are_inverse(q):
    F = field_for(q)
    for x in range(1, q):
        assert int(F.exp_t[int(F.log_t[x])]) == x
    # one full period: powers of the generator hit every nonzero element
    assert sorted(int(v) for v in F.exp_t) == list(range(1, q))
    assert int(F.exp_t[0]) == 1
    # and the generator is the smallest element of order q - 1
    for x in range(2, F.generator):
        assert 1 in F.exp_t[(F.log_t[x] * np.arange(1, q - 1)) % (q - 1)]


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
    x = F.mul_t[b, F.inv_t[a]]
    assert F.mul_t[a, x] == b


def _poly_product(F, x, y):
    """x * y by schoolbook multiplication of the digit polynomials and long
    division by the monic modulus, one coefficient at a time."""
    p, r = F.p, F.r
    a = [x // p ** k % p for k in range(r)]
    b = [y // p ** k % p for k in range(r)]
    c = [0] * (2 * r - 1)
    for i in range(r):
        for j in range(r):
            c[i + j] = (c[i + j] + a[i] * b[j]) % p
    for top in range(2 * r - 2, r - 1, -1):     # cancel c[top] t^top
        lead = c[top]
        for k in range(r + 1):
            c[top - r + k] = (c[top - r + k] - lead * F.modulus[k]) % p
    return sum(c[k] * p ** k for k in range(r))


@pytest.mark.parametrize("q", sorted(BUILTIN_MODULI) + [32, 49, 64, 81, 125])
def test_mul_table_matches_polynomial_product(q):
    F = field_for(q)
    want = [[_poly_product(F, x, y) for y in range(q)] for x in range(q)]
    assert F.mul_t.tolist() == want


# the lexicographically smallest monic irreducible of every order with no
# built-in modulus, coefficients c0..cr by ascending degree
@pytest.mark.parametrize("q,modulus", [
    (32, (1, 0, 1, 0, 0, 1)), (49, (1, 0, 1)), (64, (1, 1, 0, 0, 0, 0, 1)),
    (81, (2, 1, 0, 0, 1)), (121, (1, 0, 1)), (125, (1, 1, 0, 1)),
    (128, (1, 1, 0, 0, 0, 0, 0, 1)), (169, (2, 0, 1)), (243, (1, 2, 0, 0, 0, 1)),
    (256, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
])
def test_searched_moduli_are_pinned(q, modulus):
    assert field_for(q).modulus == modulus


# sha256 (first 16 hex digits) of the generator and the seven tables of every
# field of order at most 256, each table hashed with its name, dtype and shape
_FROZEN_TABLES = {
    2: "83931ef11c4b2cde", 3: "5a1281765545f6a4", 4: "f94088ddf22753ed", 5: "ee32752a61e10fcf",
    7: "72dcba00893d8693", 8: "c88e2d77700d70ff", 9: "c263e5bfc47bfe18", 11: "3f778e3b458ef512",
    13: "e68e00852a0ff0cd", 16: "7b191c45ae69b494", 17: "1a725c64364bb8a5", 19: "1bc1ded4163a5fe2",
    23: "4091275e5a06e90e", 25: "1be745b3c56f55f0", 27: "c87a3c0b682de5db", 29: "131d6c181693991f",
    31: "ed93f3de434228ac", 32: "b722c5ee46ff632f", 37: "415801cffe5411d4", 41: "826a8e3cb24f63cd",
    43: "a30218c7a71e92f6", 47: "d0bca986b37cb5c4", 49: "fb1d7ee6bbc9c767", 53: "67a4dd5d9b7046be",
    59: "0e3fba17ee6e7345", 61: "810c66ea9a4ba0df", 64: "fc75d2561e9bd39f", 67: "048649e7522c17b9",
    71: "df549979c1396f4a", 73: "4770b7178c9a9279", 79: "1574dbda26788ed7", 81: "e4baaf53fda3574b",
    83: "a66924f3fe9e15ed", 89: "939529ead5e651c0", 97: "9cb6a9a1c0909796", 101: "b58d97f90788b4a8",
    103: "5500dead1d4be09f", 107: "3dd08f72a6a3ec7d", 109: "29f2a56188581b04", 113: "9fb408fb5d9f817f",
    121: "c031025bc1871df0", 125: "1074a97ce2b0b162", 127: "9ffc712704c1accd", 128: "6b1fcde3c11db0aa",
    131: "2e4174f0af09e97c", 137: "ce4f0c31f0bf1e56", 139: "d356d7331fd59d8f", 149: "c517c7876c6e2cd2",
    151: "0e4ea3bfea4e607d", 157: "6b94843b407df2c3", 163: "31bbc271525e3a22", 167: "2892d5ccc1456c58",
    169: "67c81c07f285de01", 173: "aa5f5c123e91d8c3", 179: "ef8c39e0643fd6e6", 181: "8071441408c148dd",
    191: "52f1c5dd4f3810a4", 193: "e924c2bf769e8cd0", 197: "390d363b743cf40e", 199: "b90e6d8fde271ef4",
    211: "586575e1a7484485", 223: "3205c0c2abb52aa4", 227: "64098d1f4f45680a", 229: "f5de6b411df9977f",
    233: "0a65c3ec8ecab2d0", 239: "af4e4355725dcbbe", 241: "a1148c4e5255f184", 243: "7be15c8698b204ee",
    251: "8935c77f52cc4ac5", 256: "1c8d01e8e60ccac6",
}


def test_tables_of_every_field_are_frozen():
    orders = []
    for q in range(2, 257):
        try:
            factor_prime_power(q)
        except UnsupportedField:
            continue
        orders.append(q)
        F = field_for(q)
        h = hashlib.sha256(str(F.generator).encode())
        for name in ("add_t", "sub_t", "neg_t", "mul_t", "inv_t", "exp_t", "log_t"):
            table = np.ascontiguousarray(getattr(F, name))
            h.update(f"{name}{table.dtype.str}{table.shape}".encode())
            h.update(table.tobytes())
        assert h.hexdigest()[:16] == _FROZEN_TABLES[q], q
    assert orders == sorted(_FROZEN_TABLES)
