import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import schemeforge
from schemeforge.chartab import compute_character_table
from schemeforge.errors import CapExceeded, ParseError
from schemeforge.gf import field_for
from schemeforge.loopcore import (BLOCK_PRODUCTS, LIFT_BLOCK, associativity_counterexample,
                                  blocked, inner_orbits, loop_scheme, moufang_check)
from schemeforge.permgroup import canonical_labels
from schemeforge.scheme import index_dtype, intersection_numbers
from schemeforge.zorn import (PaigeLoop, _FieldTables, _polar_form, _zorn_product_digits,
                              build_paige_loop, paige_loop_order)

IDENTITY = (1, 0, 0, 0, 0, 0, 0, 1)


# A scalar reference for the kernel, one field operation at a time through
# the q x q tables of FieldSpec, written from the product rule in the zorn
# module docstring.  A vector matrix is a digit row (a, alpha, beta, b).

def _dot(spec, u, v):
    A, M = spec.add_t, spec.mul_t
    return int(A[A[M[u[0], v[0]], M[u[1], v[1]]], M[u[2], v[2]]])


def _cross(spec, u, v):
    M, S = spec.mul_t, spec.sub_t
    return [int(S[M[u[i], v[j]], M[u[j], v[i]]]) for i, j in ((1, 2), (2, 0), (0, 1))]


def oracle_product(spec, m1, m2):
    A, M, S = spec.add_t, spec.mul_t, spec.sub_t
    a, al, be, b = m1[0], m1[1:4], m1[4:7], m1[7]
    c, ga, de, d = m2[0], m2[1:4], m2[4:7], m2[7]
    bxd, axg = _cross(spec, be, de), _cross(spec, al, ga)
    # a gamma + d alpha - beta x delta  and  c beta + b delta + alpha x gamma
    top = [int(S[A[M[a, ga[k]], M[d, al[k]]], bxd[k]]) for k in range(3)]
    bot = [int(A[A[M[c, be[k]], M[b, de[k]]], axg[k]]) for k in range(3)]
    return (int(A[M[a, c], _dot(spec, al, de)]), *top, *bot,
            int(A[_dot(spec, be, ga), M[b, d]]))


def oracle_det(spec, m):
    return int(spec.sub_t[spec.mul_t[m[0], m[7]], _dot(spec, m[1:4], m[4:7])])


def _digits(column):
    return tuple(int(x) for x in column)


def _index_of_digits(loop, digits):
    """Index of the element whose digit row is digits, or for odd q its
    negation, found by searching loop.elems."""
    rows = [digits]
    if loop.q % 2:
        rows.append([int(loop.spec.neg_t[x]) for x in digits])
    for row in rows:
        hit = np.flatnonzero((loop.elems == np.asarray(row)).all(axis=1))
        if hit.size:
            return int(hit[0])
    raise AssertionError(f"{digits} is not an element of the loop")


def test_product_matches_hand_computation_gf2():
    ft = _FieldTables(field_for(2))
    m1 = np.array([1, 1, 0, 1, 0, 1, 1, 0], dtype=np.uint8)
    m2 = np.array([1, 0, 1, 0, 1, 1, 0, 1], dtype=np.uint8)
    assert _digits(_zorn_product_digits(ft, m1, m2)) == (0, 0, 0, 0, 1, 1, 0, 1)
    assert int(ft.det(m1)) == 1
    assert int(ft.det(m2)) == 0


def _random_stacks(q, count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, q, (8, count)).astype(np.uint8)


def test_identity_is_neutral():
    ft = _FieldTables(field_for(3))
    M = _random_stacks(3, 100, 11)
    E = np.array(IDENTITY, dtype=np.uint8)[:, None]
    assert np.array_equal(np.array(_zorn_product_digits(ft, E, M)), M)
    assert np.array_equal(np.array(_zorn_product_digits(ft, M, E)), M)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_determinant_is_multiplicative(q):
    spec = field_for(q)
    ft = _FieldTables(spec)
    A, B = _random_stacks(q, 10_000, q), _random_stacks(q, 10_000, q + 20)
    det_ab = ft.det(_zorn_product_digits(ft, A, B))
    assert np.array_equal(det_ab, spec.mul_t[ft.det(A), ft.det(B)])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_inverse_of_unit_matrices(q):
    # the inverse of [a, alpha; beta, b] is [b, -alpha; -beta, a] / det
    spec = field_for(q)
    ft = _FieldTables(spec)
    M = _random_stacks(q, 1000, q + 40)
    M = M[:, ft.det(M) != 0][:, :200]
    assert M.shape[1] == 200
    s = spec.inv_t[ft.det(M)]
    scaled = spec.mul_t[M, s]
    W = np.concatenate([scaled[7:], spec.neg_t[scaled[1:7]], scaled[:1]])
    E = np.broadcast_to(np.array(IDENTITY, dtype=np.uint8)[:, None], M.shape)
    assert np.array_equal(np.array(_zorn_product_digits(ft, M, W)), E)
    assert np.array_equal(np.array(_zorn_product_digits(ft, W, M)), E)


@pytest.mark.parametrize("q,order", [(2, 120), (3, 1080), (4, 16320), (5, 39000)])
def test_paige_loop_order_formula(q, order):
    assert paige_loop_order(q) == order


def test_build_paige_loop_q2(paige2):
    assert paige2.n == 120
    spec = paige2.spec
    assert _digits(paige2.elems[0]) == IDENTITY
    # every element is a unit vector matrix and rows are distinct
    for i in range(paige2.n):
        assert oracle_det(spec, _digits(paige2.elems[i])) == 1
    codes = paige2.elems.astype(np.int64) @ (2 ** np.arange(7, -1, -1))
    assert np.unique(codes).shape[0] == 120


def test_loop_product_agrees_with_matrix_product(paige2, paige3):
    for loop in (paige2, paige3, build_paige_loop(4), build_paige_loop(5)):
        rng = np.random.default_rng(loop.q)
        I = rng.integers(0, loop.n, 300)
        J = rng.integers(0, loop.n, 300)
        K = loop.mul_vec(I, J)
        for i, j, k in zip(I[:100], J[:100], K[:100]):
            prod = oracle_product(loop.spec, _digits(loop.elems[i]), _digits(loop.elems[j]))
            assert _index_of_digits(loop, prod) == int(k)
        # a scalar operand broadcasts against an array, and two give a scalar
        assert np.array_equal(loop.mul_vec(int(I[0]), J),
                              loop.mul_vec(np.full(300, I[0]), J))
        assert loop.mul_vec(int(I[0]), int(J[0])) == K[0]
        assert loop.mul(int(I[1]), int(J[1])) == K[1]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_kernel_matches_scalar_product(q):
    spec = field_for(q)
    ft = _FieldTables(spec)
    rng = np.random.default_rng(100 + q)
    A = rng.integers(0, q, (8, 2000)).astype(np.uint8)
    B = rng.integers(0, q, (8, 2000)).astype(np.uint8)
    C = np.array(_zorn_product_digits(ft, A, B))
    det = ft.det(A)
    for k in range(A.shape[1]):
        m1, m2 = _digits(A[:, k]), _digits(B[:, k])
        assert _digits(C[:, k]) == oracle_product(spec, m1, m2)
        assert int(det[k]) == oracle_det(spec, m1)
    # numpy scalar digits: the accumulate index exceeds uint16 at q = 16
    scalar = _zorn_product_digits(ft, A[:, 0], B[:, 0])
    assert _digits(scalar) == oracle_product(spec, _digits(A[:, 0]), _digits(B[:, 0]))


def test_kernel_refuses_fields_beyond_its_index_range():
    with pytest.raises(CapExceeded):
        _FieldTables(field_for(17))


@pytest.mark.parametrize("q", [2, 3])
def test_divisions_invert_multiplication(q, paige2, paige3):
    loop = paige2 if q == 2 else paige3
    rng = np.random.default_rng(17)
    X = rng.integers(0, loop.n, 10_000)
    Y = rng.integers(0, loop.n, 10_000)
    P = loop.mul_vec(X, Y)
    assert np.array_equal(loop.right_div_vec(P, Y), X)
    assert np.array_equal(loop.left_div_vec(X, P), Y)


def test_right_division_is_product_with_inverse(paige3):
    # the loop has the inverse property, so a / b = a * b^{-1}
    rng = np.random.default_rng(23)
    A = rng.integers(0, paige3.n, 10_000)
    B = rng.integers(0, paige3.n, 10_000)
    lhs = paige3.right_div_vec(A, B)
    rhs = paige3.mul_vec(A, paige3.left_div_vec(B, 0))
    assert np.array_equal(lhs, rhs)
    # spot check against inversion of the matrix itself: with unit
    # determinant the inverse of [a, alpha; beta, b] is [b, -alpha; -beta, a]
    spec = paige3.spec
    for pos in range(25):
        a, b = _digits(paige3.elems[A[pos]]), _digits(paige3.elems[B[pos]])
        b_inv = (b[7], *(int(spec.neg_t[x]) for x in b[1:7]), b[0])
        w = oracle_product(spec, a, b_inv)
        assert _index_of_digits(paige3, w) == int(lhs[pos])


def test_inverse_indices_are_two_sided(paige2):
    idx = np.arange(paige2.n)
    inv = paige2.left_div_vec(idx, 0)
    assert np.array_equal(paige2.mul_vec(idx, inv), np.zeros(paige2.n, dtype=inv.dtype))
    assert np.array_equal(paige2.mul_vec(inv, idx), np.zeros(paige2.n, dtype=inv.dtype))


def test_element_cap_enforced():
    with pytest.raises(CapExceeded):
        build_paige_loop(4, element_cap=1000)


def test_loop_json_roundtrip(paige2):
    data = paige2.to_json()
    again = PaigeLoop.from_json(data)
    assert again.n == paige2.n
    assert np.array_equal(again.elems, paige2.elems)


def test_loop_json_rejects_corruption(paige2):
    good = paige2.to_json()

    bad = {**good, "order": 121}
    with pytest.raises(ParseError):
        PaigeLoop.from_json(bad)

    bad = {**good, "elements": [list(r) for r in good["elements"]]}
    bad["elements"][5] = bad["elements"][6]
    with pytest.raises(ParseError):
        PaigeLoop.from_json(bad)

    bad = {**good, "elements": [list(r) for r in good["elements"]]}
    bad["elements"][3][0] ^= 1  # breaks det = 1
    with pytest.raises(ParseError):
        PaigeLoop.from_json(bad)

    bad = {**good}
    del bad["q"]
    with pytest.raises(ParseError):
        PaigeLoop.from_json(bad)


@pytest.mark.parametrize("elements", ["0 1 2", {"0": list(IDENTITY)}, 120],
                         ids=["string", "object", "number"])
def test_loop_json_refuses_elements_that_are_not_a_list(paige2, elements):
    with pytest.raises(ParseError, match="elements must be a list of digit rows"):
        PaigeLoop.from_json({**paige2.to_json(), "elements": elements})


def test_loop_json_refuses_rows_out_of_canonical_order(paige2, paige3):
    # indices are ranks of the canonical rows, so a reordered or re-signed
    # element list would give every product a wrong index
    good = paige2.to_json()
    rows = good["elements"]
    rng = np.random.default_rng(5)
    shuffled = rows[:1] + [rows[1 + i] for i in rng.permutation(len(rows) - 1)]
    first = next(i for i, (a, b) in enumerate(zip(shuffled, rows)) if a != b)
    with pytest.raises(ParseError, match=f"element {first} is"):
        PaigeLoop.from_json({**good, "elements": shuffled})

    good = paige3.to_json()
    rows = [list(r) for r in good["elements"]]
    rows[7] = [int(paige3.spec.neg_t[x]) for x in rows[7]]     # the same element, other sign
    with pytest.raises(ParseError, match="element 7 is"):
        PaigeLoop.from_json({**good, "elements": rows})


@pytest.mark.parametrize("broken", [
    lambda row: [row[0] + 0.25, *row[1:]],      # would truncate to the true digit
    lambda row: [str(x) for x in row],
    lambda row: [*row[:7], 2 ** 70],
    lambda row: row[:7],
    lambda row: row + [0],
    lambda row: [*row[:7], row[7:]],
], ids=["fraction", "text", "huge", "short", "long", "nested"])
def test_loop_json_refuses_rows_that_are_not_eight_integer_digits(paige2, broken):
    good = paige2.to_json()
    rows = [list(r) for r in good["elements"]]
    rows[5] = broken(rows[5])
    with pytest.raises(ParseError, match="element 5 is"):
        PaigeLoop.from_json({**good, "elements": rows})


# The Zorn product as it was computed with two-dimensional int64 tables,
# kept as a reference: the flat fused tables must reproduce it byte for byte.

class _FrozenTables:
    def __init__(self, spec):
        q = spec.q
        self.q = q
        self.MUL = spec.mul_t.astype(np.int64)
        self.ADD = spec.add_t.astype(np.int64)
        self.SUB = spec.sub_t.astype(np.int64)
        self.NEG = spec.neg_t.astype(np.int64)

    def dot3(self, U, V):
        MUL, ADD = self.MUL, self.ADD
        return ADD[ADD[MUL[U[0], V[0]], MUL[U[1], V[1]]], MUL[U[2], V[2]]]

    def cross3(self, U, V):
        MUL, SUB = self.MUL, self.SUB
        return (SUB[MUL[U[1], V[2]], MUL[U[2], V[1]]],
                SUB[MUL[U[2], V[0]], MUL[U[0], V[2]]],
                SUB[MUL[U[0], V[1]], MUL[U[1], V[0]]])


def _frozen_product_digits(ft, A, B):
    MUL, ADD, SUB = ft.MUL, ft.ADD, ft.SUB
    a, al, be, b = A[0], A[1:4], A[4:7], A[7]
    c, ga, de, d = B[0], B[1:4], B[4:7], B[7]
    bxd = ft.cross3(be, de)
    axg = ft.cross3(al, ga)
    e = ADD[MUL[a, c], ft.dot3(al, de)]
    f = ADD[ft.dot3(be, ga), MUL[b, d]]
    top = tuple(SUB[ADD[MUL[a, ga[k]], MUL[d, al[k]]], bxd[k]] for k in range(3))
    bot = tuple(ADD[ADD[MUL[c, be[k]], MUL[b, de[k]]], axg[k]] for k in range(3))
    return (e,) + top + bot + (f,)


def _frozen_elems(q):
    spec = field_for(q)
    ft = _FrozenTables(spec)
    codes = np.arange(q ** 8, dtype=np.int64)
    digits = tuple((codes // q ** (7 - k)) % q for k in range(8))
    det = ft.SUB[ft.MUL[digits[0], digits[7]], ft.dot3(digits[1:4], digits[4:7])]
    unit_codes = codes[det == 1]
    if q % 2:
        neg_code = sum(ft.NEG[digits[k]][det == 1] * q ** (7 - k)
                       for k in range(8))
        unit_codes = unit_codes[unit_codes < neg_code]
    ident_code = q ** 7 + 1
    rest = unit_codes[unit_codes != ident_code]
    ordered = np.concatenate([[ident_code], np.sort(rest)])
    elems = np.empty((ordered.shape[0], 8), dtype=np.int16)
    for k in range(8):
        elems[:, k] = (ordered // q ** (7 - k)) % q
    return elems


class _FrozenPaigeLoop(PaigeLoop):
    """Products and inverses through the frozen tables and a q^8 code lookup
    that registers every element's code, and for odd q its negation's.  Its
    lifted elements are digit rows, as a PaigeLoop's, but its times, ldiv
    and rdiv run the frozen product and its index is the lookup, so the
    derived index-level ops and the words in loopcore run on them too.  It
    is built from digit rows, its elements, and lifts an element by taking
    its row.  It applies an inner map by lifting every point, reads its
    trace classes from its own digit rows and its relations from true
    quotients, so no half-code table of PaigeLoop takes part."""

    def __init__(self, spec, elems):
        super().__init__(spec)
        self._rows = np.asarray(elems, dtype=np.uint8)
        self._inv_of = None
        self._old = _FrozenTables(spec)
        self._strides = self.q ** np.arange(7, -1, -1, dtype=np.int64)
        lookup = np.full(self.q ** 8, -1, dtype=np.int32)
        E = self.elems.astype(np.int64)
        lookup[E @ self._strides] = np.arange(self.n, dtype=np.int32)
        if self.q % 2:
            lookup[self._old.NEG[E] @ self._strides] = np.arange(self.n, dtype=np.int32)
        self._lookup = lookup

    @property
    def elems(self):
        return self._rows

    def lift(self, I):
        return np.ascontiguousarray(np.moveaxis(self._rows[I], -1, 0))

    def index(self, D):
        code = np.zeros(np.shape(D[0]), dtype=np.int64)
        for digit in D:
            code = code * self.q + digit
        return self._lookup[code].astype(np.int64)

    def times(self, A, B):
        return _frozen_product_digits(self._old, A, B)

    def _frozen_inverse(self, A):
        # [b, -alpha; -beta, a], all six vector digits negated
        NEG = self._old.NEG
        return (A[7], *(NEG[A[k]] for k in range(1, 7)), A[0])

    def ldiv(self, A, B):
        return self.times(self._frozen_inverse(A), B)

    def rdiv(self, A, B):
        return self.times(A, self._frozen_inverse(B))

    def fixed_map_images(self, word, Z):
        return blocked(LIFT_BLOCK, lambda P: self.index(word(self.lift(P))), Z)

    def invariant_partition(self):
        E = self.elems.astype(np.int64)
        trace = self._old.ADD[E[:, 0], E[:, 7]]
        raw = np.minimum(trace, self._old.NEG[trace]) + 1
        raw[0] = 0
        return canonical_labels(raw)[0]

    def invariant_classes(self, V, U):
        return self.invariant_partition()[self.right_div_vec(V, U)]

    def inv_array(self):
        if self._inv_of is None:
            E = self.elems.astype(np.int64)
            NEG = self._old.NEG
            rows = np.stack([E[:, 7], NEG[E[:, 1]], NEG[E[:, 2]], NEG[E[:, 3]],
                             NEG[E[:, 4]], NEG[E[:, 5]], NEG[E[:, 6]], E[:, 0]], axis=1)
            self._inv_of = self._lookup[rows @ self._strides].astype(np.int64)
        return self._inv_of


def _code(q, columns):
    """Packed int64 codes of eight digit columns, digit 0 most significant."""
    return sum(c * q ** (7 - k) for k, c in enumerate(columns))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_build_matches_frozen_enumeration(q):
    loop = build_paige_loop(q)
    frozen = _frozen_elems(q)
    assert loop.elems.dtype == np.uint8
    assert loop.elems.astype(np.int16).tobytes() == frozen.tobytes()
    assert np.array_equal(loop.index(loop.lift(np.arange(loop.n))), np.arange(loop.n))


@pytest.mark.parametrize("q", [7, 8, 9])
def test_build_is_sorted_unit_sign_representatives(q):
    """Beyond the frozen enumeration's reach: the count, the identity first,
    strictly increasing codes after it, unit determinants and the smaller
    sign representative for odd q fix the element array; the rank of each
    row (and of its negation) is the row's index."""
    n = paige_loop_order(q)
    loop = build_paige_loop(q, element_cap=n)
    old = _FrozenTables(loop.spec)
    assert loop.elems.dtype == np.uint8 and loop.elems.shape == (n, 8)
    assert _digits(loop.elems[0]) == IDENTITY
    cols = [loop.elems[:, k].astype(np.int64) for k in range(8)]
    codes = _code(q, cols)
    assert np.all(np.diff(codes[1:]) > 0)
    det = old.SUB[old.MUL[cols[0], cols[7]], old.dot3(cols[1:4], cols[4:7])]
    assert np.all(det == 1)
    assert np.array_equal(loop.index(loop.elems.T), np.arange(n))
    assert np.array_equal(loop.index(loop.lift(np.arange(n))), np.arange(n))
    # one 4-byte word of half-codes an element, and no other array of size n
    big = [a for a in vars(loop).values() if isinstance(a, np.ndarray) and a.size >= n]
    assert loop._codes.nbytes == 4 * n
    assert all(np.shares_memory(a, loop._codes) for a in big)
    if q % 2:
        assert np.all(codes < _code(q, [old.NEG[c] for c in cols]))
        assert np.array_equal(loop.index(loop._ft.NEG.take(loop.elems.T)), np.arange(n))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_products_match_frozen_kernel(q):
    loop = build_paige_loop(q, element_cap=paige_loop_order(q))
    frozen = _FrozenPaigeLoop(loop.spec, loop.elems)
    # the rank equals the frozen lookup on every unit code, of either sign
    codes = np.flatnonzero(frozen._lookup >= 0)
    assert codes.shape[0] == (2 if q % 2 else 1) * loop.n
    digits = [((codes // q ** (7 - k)) % q).astype(np.uint8) for k in range(8)]
    assert np.array_equal(loop.index(digits), frozen._lookup[codes])
    rng = np.random.default_rng(200 + q)
    I = rng.integers(0, loop.n, 20_000)
    J = rng.integers(0, loop.n, 20_000)
    new, old = loop.mul_vec(I, J), frozen.mul_vec(I, J)
    assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
    inverses = loop.left_div_vec(np.arange(loop.n), 0)
    assert inverses.tobytes() == frozen.inv_array().tobytes()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_inverses_match_the_six_digit_formula(q):
    # [b, -alpha; -beta, a] with all six vector digits negated, ranked
    loop = build_paige_loop(q, element_cap=paige_loop_order(q))
    D = loop.elems.T
    want = loop.index((D[7], *loop._ft.NEG.take(D[1:7]), D[0]))
    assert np.array_equal(loop.left_div_vec(np.arange(loop.n), 0), want)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_lifted_words_match_index_compositions(q):
    # words of three operations on digit rows, ranked once, equal the same
    # words composed from the index-level ops, which rank after every step
    loop = build_paige_loop(q, element_cap=paige_loop_order(q))
    rng = np.random.default_rng(400 + q)
    I, J, K = rng.integers(0, loop.n, (3, 5000))
    A, B, C = loop.lift(I), loop.lift(J), loop.lift(K)
    assert A.shape == (8, 5000) and A.dtype == np.uint8
    assert np.array_equal(loop.index(A), I)
    t, mul, ldiv, rdiv = loop.times, loop.mul_vec, loop.left_div_vec, loop.right_div_vec
    words = [
        (t(t(A, B), C), mul(mul(I, J), K)),
        (t(A, t(B, C)), mul(I, mul(J, K))),
        (loop.ldiv(t(A, B), C), ldiv(mul(I, J), K)),
        (loop.rdiv(A, t(B, C)), rdiv(I, mul(J, K))),
        (loop.rdiv(loop.ldiv(A, B), C), rdiv(ldiv(I, J), K)),
        (loop.ldiv(A, loop.rdiv(B, C)), ldiv(I, rdiv(J, K))),
    ]
    for lifted, composed in words:
        got = loop.index(lifted)
        assert got.dtype == composed.dtype and np.array_equal(got, composed)
    # divisions undo the product on lifted elements
    assert np.array_equal(loop.index(loop.ldiv(A, t(A, B))), J)
    assert np.array_equal(loop.index(loop.rdiv(t(A, B), B)), I)
    # a lifted scalar broadcasts against lifted arrays, and two give a scalar
    x, y = (np.int64(v) for v in rng.integers(0, loop.n, 2))
    X, Y = loop.lift(x), loop.lift(y)
    assert X.shape == (8,)
    assert np.array_equal(loop.index(t(t(X, B), C)), mul(mul(x, J), K))
    assert np.array_equal(loop.index(loop.ldiv(X, t(B, X))), ldiv(x, mul(J, x)))
    assert np.array_equal(loop.index(loop.rdiv(t(t(C, X), Y), t(X, Y))),
                          rdiv(mul(mul(K, x), y), mul(x, y)))
    assert loop.index(loop.ldiv(X, t(X, Y))) == y
    assert loop.index(loop.rdiv(t(X, Y), Y)) == x


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_polar_form_division_keeps_the_trace_class(q):
    # invariant_classes reads the trace of V / U from the polar form of the
    # norm; its class ids must be those of the true quotient
    loop = build_paige_loop(q, element_cap=paige_loop_order(q))
    classes = loop.invariant_partition()

    def same_class(V, U):
        return np.array_equal(loop.invariant_classes(V, U),
                              classes[loop.right_div_vec(V, U)])

    rng = np.random.default_rng(300 + q)
    V, U = rng.integers(0, loop.n, (2, 20_000))
    assert same_class(V, 0) and same_class(0, V) and same_class(0, 0)
    for x in rng.integers(0, loop.n, 3).tolist():
        assert same_class(V, np.int64(x))           # array x scalar: a row
        assert same_class(np.int64(x), V)           # scalar x array: a column
    # a scheme reads one relation, a row or a column; two arrays, which
    # would broadcast against the half-basis rows, are refused
    for pair in [(V, U), (V, V), (V[:200, None], U[:300]), (V[:1], U[:1])]:
        with pytest.raises(ValueError, match="one of V and U must be a single element"):
            loop.invariant_classes(*pair)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_polar_reads_from_half_codes_equal_the_lifted_form(q):
    # a row or column, one side a scalar, is read from q^4 tables of the
    # polar form at the half-codes; it gives the class ids the lifted
    # digits give, point for point, the identity included, in the class
    # dtype
    loop = build_paige_loop(q, element_cap=paige_loop_order(q))
    Z = np.arange(loop.n)
    classes = loop.invariant_partition()
    dtype = index_dtype(int(classes.max()) + 1)
    NEG = loop._ft.NEG
    trace = blocked(BLOCK_PRODUCTS, lambda V: _polar_form(loop._ft, loop.lift(V),
                                                          loop.lift(np.int64(0))), Z)
    # at each trace, the class of the elements other than the identity
    # whose trace is that one up to sign
    of_trace = np.zeros(q, dtype=np.int64)
    of_trace[np.minimum(trace, NEG[trace])[1:]] = classes[1:]
    of_trace = of_trace[np.minimum(np.arange(q), NEG)]

    def polar(V, U):
        trace = _polar_form(loop._ft, loop.lift(V), loop.lift(U))
        return np.where(V == U, 0, of_trace.take(trace))

    def lifted(V, U):
        return blocked(BLOCK_PRODUCTS, polar, V, U)

    rng = np.random.default_rng(600 + q)
    for x in [0, 1, *rng.integers(2, loop.n, 2).tolist()]:
        x = np.int64(x)
        row = loop.invariant_classes(Z, x)
        assert row.dtype == dtype and np.array_equal(row, lifted(Z, x))
        assert row[x] == 0
        assert np.array_equal(loop.invariant_classes(x, Z), lifted(x, Z))
        for y in (x, np.int64(rng.integers(0, loop.n))):
            assert loop.invariant_classes(x, y) == lifted(x, y)
    assert loop.invariant_classes(np.int64(5), np.int64(5)) == 0


def test_mstar3_pipeline_matches_frozen_kernel():
    loop = build_paige_loop(3)
    frozen = _FrozenPaigeLoop(loop.spec, _frozen_elems(3))
    assert np.array_equal(frozen.invariant_partition(), loop.invariant_partition())
    reports = [inner_orbits(lp, policy="randomized") for lp in (loop, frozen)]
    assert reports[0].class_of.tobytes() == reports[1].class_of.tobytes()
    assert reports[0].samples == reports[1].samples
    tables = [compute_character_table(intersection_numbers(loop_scheme(lp, r)))
              for lp, r in zip((loop, frozen), reports)]
    assert tables[0].P.tobytes() == tables[1].P.tobytes()


# Each large build runs in a fresh process, which reports how far the build,
# and then the first whole-loop read, raised the peak resident size, and
# then checks the elements block by block; M*(11) and M*(13) are beyond a
# q^8 lookup.

def _large_build_report(q: int) -> dict:
    n = paige_loop_order(q)
    before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop = build_paige_loop(q, element_cap=n)
    built_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert "_codes" not in vars(loop)
    loop._codes                     # the enumeration every whole-loop read starts with
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    old = _FrozenTables(loop.spec)
    assert loop.n == n and _digits(loop.lift(np.int64(0))) == IDENTITY
    assert q ** 8 < 2 ** 32
    codes = np.empty(n, dtype=np.uint32)
    step = 1 << 18
    for start in range(0, n, step):
        block = np.arange(start, min(start + step, n))
        # unrank equals the enumeration at every element
        assert np.array_equal(loop._unrank(block).view(np.uint32).ravel(), loop._codes[block])
        D = loop.lift(block)
        cols = [c.astype(np.int64) for c in D]
        codes[block] = code = _code(q, cols)
        det = old.SUB[old.MUL[cols[0], cols[7]], old.dot3(cols[1:4], cols[4:7])]
        assert np.all(det == 1)
        if q % 2:
            assert np.all(code < _code(q, [old.NEG[c] for c in cols]))
        assert np.array_equal(loop.index(D), block)
    assert np.all(codes[2:] > codes[1:-1])
    # products against the frozen product, found among the sorted codes
    rng = np.random.default_rng(q)
    I, J = rng.integers(0, n, 20_000), rng.integers(0, n, 20_000)
    A, B = loop.lift(I).astype(np.int64), loop.lift(J).astype(np.int64)
    prod = _frozen_product_digits(old, A, B)
    code = _code(q, prod)
    if q % 2:
        code = np.minimum(code, _code(q, [old.NEG[c] for c in prod]))
    want = np.searchsorted(codes[1:], code) + 1
    want[code == codes[0]] = 0
    assert np.array_equal(codes[want], code)
    assert np.array_equal(loop.mul_vec(I, J), want)
    return {"n": n, "build_mb": built_mb - before_mb, "growth_mb": peak_mb - before_mb}


# The build makes only tables of q^4 and q^5 entries.  The first whole-loop
# read holds each element as one 4-byte word of half-codes, and the
# enumeration's temporaries are blocked, so it grows the peak by about 4
# bytes an element (q = 8: 10 MB, 11: 40 MB, 13: 124 MB); a store of
# 8-byte digit rows grows it about twice as much and fails these bounds.
@pytest.mark.parametrize("q,growth_mb", [
    (8, 14),
    pytest.param(11, 60, marks=pytest.mark.slow),
    pytest.param(13, 160, marks=pytest.mark.slow),
])
def test_large_builds_are_canonical_within_memory(q, growth_mb):
    src = os.path.dirname(os.path.dirname(schemeforge.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)])}
    script = ("import json, sys, test_zorn; "
              "print(json.dumps(test_zorn._large_build_report(int(sys.argv[1]))))")
    run = subprocess.run([sys.executable, "-c", script, str(q)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["n"] == paige_loop_order(q)
    assert report["growth_mb"] < growth_mb
    if q == 8:
        assert report["build_mb"] < 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_unrank_equals_the_enumeration(q):
    loop = build_paige_loop(q, element_cap=paige_loop_order(q))
    pairs = loop._unrank(np.arange(loop.n))
    assert "_codes" not in vars(loop)
    assert pairs.dtype == np.uint16 and pairs.shape == (loop.n, 2)
    assert np.array_equal(pairs.view(np.uint32).ravel(), loop._codes)
    # a scalar gives one pair, and any shape its own shape
    assert np.array_equal(loop._unrank(np.int64(loop.n - 1)), pairs[-1])
    grid = np.arange(12).reshape(3, 4)
    assert np.array_equal(loop._unrank(grid), pairs[grid])


@pytest.mark.parametrize("q", [11, 13, 16])
def test_unrank_round_trips_without_the_element_array(q):
    # beyond the exhaustive range: random indices unrank to unit codes of
    # the smaller sign, in code order, which rank back to the same indices
    n = paige_loop_order(q)
    loop = build_paige_loop(q, element_cap=n)
    rng = np.random.default_rng(700 + q)
    I = np.unique(np.concatenate([[0, 1, n - 1], rng.integers(0, n, 100_000)]))
    pairs = loop._unrank(I)
    assert np.array_equal(loop._rank(pairs[:, 0], pairs[:, 1]), I)
    D = loop.lift(I)
    assert np.array_equal(loop.index(D), I)
    assert np.all(loop._ft.det(D) == 1)
    code = _code(q, [c.astype(np.int64) for c in D])
    assert code[0] == _code(q, IDENTITY)
    assert np.all(np.diff(code[1:]) > 0)
    if q % 2:
        assert np.all(code < _code(q, [loop._ft.NEG[c].astype(np.int64) for c in D]))
    assert "_codes" not in vars(loop)


def test_indices_out_of_range_are_index_errors(paige3):
    n = paige3.n
    for bad in (-1, n):
        with pytest.raises(IndexError, match=f"index {bad} is outside 0..{n - 1}"):
            paige3.mul(bad, 3)
        with pytest.raises(IndexError, match=f"index {bad} is outside"):
            paige3.mul_vec(np.arange(5), np.array([1, 2, bad, 3, 4]))
        with pytest.raises(IndexError, match=f"index {bad} is outside"):
            paige3.lift(np.int64(bad))
        # the whole-loop reads take their points' half-codes from the
        # element array, whose take would wrap -1 round to n - 1
        with pytest.raises(IndexError, match=f"index {bad} is outside 0..{n - 1}"):
            paige3.invariant_classes(np.array([bad, 5]), np.int64(3))
        with pytest.raises(IndexError, match=f"index {bad} is outside 0..{n - 1}"):
            paige3.fixed_map_images(lambda P: P, np.array([bad, 0]))
    assert paige3.mul(n - 1, 0) == n - 1


def test_sampled_checks_build_no_element_array():
    # products, divisions and the sampled checks unrank their operands; only
    # a read of the whole loop enumerates it
    loop = build_paige_loop(8, element_cap=paige_loop_order(8))
    assert moufang_check(loop, samples=40_000).passed
    assert associativity_counterexample(loop) is not None
    I = np.arange(0, loop.n, 97)
    assert np.array_equal(loop.left_div_vec(I, loop.mul_vec(I, 5)), np.full(I.shape, 5))
    assert "_codes" not in vars(loop)
    reads = [lambda lp: lp.elems, lambda lp: lp.to_json(), lambda lp: lp.invariant_partition(),
             lambda lp: lp.invariant_classes(np.arange(lp.n), np.int64(4)),
             lambda lp: lp.fixed_map_images(lambda P: P, np.arange(lp.n))]
    for read in reads:
        loop = build_paige_loop(3)
        read(loop)
        assert "_codes" in vars(loop)
