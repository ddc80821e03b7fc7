import numpy as np
import pytest

from schemeforge.chartab import compute_character_table
from schemeforge.errors import CapExceeded, ParseError, SingularMatrix
from schemeforge.gf import field_for
from schemeforge.loopcore import inner_orbits, loop_scheme
from schemeforge.scheme import intersection_numbers
from schemeforge.zorn import (PaigeLoop, ZornMatrix, _FieldTables,
                              _zorn_product_digits, build_paige_loop,
                              paige_loop_order, zorn_det, zorn_inv, zorn_mul)


def random_matrix(spec, rng):
    return ZornMatrix.from_reps(spec, rng.integers(0, spec.q, 8))


def test_product_matches_hand_computation_gf2():
    spec = field_for(2)
    m1 = ZornMatrix(spec, 1, (1, 0, 1), (0, 1, 1), 0)
    m2 = ZornMatrix(spec, 1, (0, 1, 0), (1, 1, 0), 1)
    assert (m1 * m2).to_reps() == (0, 0, 0, 0, 1, 1, 0, 1)
    assert m1.det().rep == 1
    assert m2.det().rep == 0


def test_identity_is_neutral():
    spec = field_for(3)
    e = ZornMatrix.identity(spec)
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = random_matrix(spec, rng)
        assert (e * m).to_reps() == m.to_reps()
        assert (m * e).to_reps() == m.to_reps()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_determinant_is_multiplicative(q):
    spec = field_for(q)
    rng = np.random.default_rng(q)
    for _ in range(10_000):
        m1 = random_matrix(spec, rng)
        m2 = random_matrix(spec, rng)
        assert zorn_det(zorn_mul(m1, m2)) == m1.det() * m2.det()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_inverse_of_unit_matrices(q):
    spec = field_for(q)
    e = ZornMatrix.identity(spec)
    rng = np.random.default_rng(q + 40)
    found = 0
    while found < 200:
        m = random_matrix(spec, rng)
        if not m.det():
            continue
        found += 1
        w = zorn_inv(m)
        assert (m * w).to_reps() == e.to_reps()
        assert (w * m).to_reps() == e.to_reps()


def test_singular_matrix_has_no_inverse():
    spec = field_for(2)
    with pytest.raises(SingularMatrix):
        ZornMatrix(spec, 1, (0, 1, 0), (1, 1, 0), 1).inverse()


def test_from_reps_needs_eight_digits():
    with pytest.raises(ValueError):
        ZornMatrix.from_reps(field_for(2), (1, 0, 0))


@pytest.mark.parametrize("q,order", [(2, 120), (3, 1080), (4, 16320), (5, 39000)])
def test_paige_loop_order_formula(q, order):
    assert paige_loop_order(q) == order


def test_build_paige_loop_q2(paige2):
    assert paige2.n == 120
    spec = paige2.spec
    ident = ZornMatrix.identity(spec)
    assert paige2.matrix(0).to_reps() == ident.to_reps()
    # every element is a unit vector matrix and rows are distinct
    for i in range(paige2.n):
        assert paige2.matrix(i).det().rep == 1
    codes = paige2.elems.astype(np.int64) @ (2 ** np.arange(7, -1, -1))
    assert np.unique(codes).shape[0] == 120


def test_loop_product_agrees_with_matrix_product(paige2, paige3):
    for loop in (paige2, paige3, build_paige_loop(4), build_paige_loop(5)):
        rng = np.random.default_rng(loop.q)
        I = rng.integers(0, loop.n, 300)
        J = rng.integers(0, loop.n, 300)
        K = loop.mul_vec(I, J)
        for i, j, k in zip(I[:100], J[:100], K[:100]):
            prod = loop.matrix(int(i)) * loop.matrix(int(j))
            assert loop.index_of(prod) == int(k)
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
        m1 = ZornMatrix.from_reps(spec, A[:, k])
        m2 = ZornMatrix.from_reps(spec, B[:, k])
        assert tuple(C[:, k].tolist()) == (m1 * m2).to_reps()
        assert int(det[k]) == m1.det().rep


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
    rhs = paige3.mul_vec(A, paige3.inv_vec(B))
    assert np.array_equal(lhs, rhs)
    # spot check against inversion of the matrix itself
    for pos in range(25):
        w = paige3.matrix(int(A[pos])) * paige3.matrix(int(B[pos])).inverse()
        assert paige3.index_of(w) == int(lhs[pos])


def test_inverse_indices_are_two_sided(paige2):
    inv = paige2.inv_array()
    idx = np.arange(paige2.n)
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


def test_small_loop_table_is_materialized(paige2):
    T = paige2.table()
    assert T is not None and T.shape == (120, 120)
    rng = np.random.default_rng(2)
    I = rng.integers(0, 120, 500)
    J = rng.integers(0, 120, 500)
    assert np.array_equal(T[I, J], paige2.mul_vec(I, J))


# The Zorn product as it was computed with two-dimensional int64 tables,
# kept as a reference: the flat fused tables must reproduce it byte for byte.

class _FrozenTables:
    def __init__(self, spec):
        q = spec.q
        self.q = q
        self.MUL = np.array(spec._mul, dtype=np.int64)
        self.ADD = np.array(spec._add, dtype=np.int64)
        self.SUB = np.array([[spec.sub(x, y) for y in range(q)] for x in range(q)],
                            dtype=np.int64)
        self.NEG = np.array(spec._neg, dtype=np.int64)

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
    unit_codes = codes[det == spec.one.rep]
    if q % 2:
        neg_code = sum(ft.NEG[digits[k]][det == spec.one.rep] * q ** (7 - k)
                       for k in range(8))
        unit_codes = unit_codes[unit_codes < neg_code]
    ident_code = spec.one.rep * q ** 7 + spec.one.rep
    rest = unit_codes[unit_codes != ident_code]
    ordered = np.concatenate([[ident_code], np.sort(rest)])
    elems = np.empty((ordered.shape[0], 8), dtype=np.int16)
    for k in range(8):
        elems[:, k] = (ordered // q ** (7 - k)) % q
    return elems


class _FrozenPaigeLoop(PaigeLoop):
    def _build_lookup(self):
        self._old = _FrozenTables(self.spec)
        self._strides = self.q ** np.arange(7, -1, -1, dtype=np.int64)
        lookup = np.full(self.q ** 8, -1, dtype=np.int32)
        E = self.elems.astype(np.int64)
        lookup[E @ self._strides] = np.arange(self.n, dtype=np.int32)
        if self.q % 2:
            lookup[self._old.NEG[E] @ self._strides] = np.arange(self.n, dtype=np.int32)
        return lookup

    def mul_vec(self, I, J):
        I, J = np.broadcast_arrays(np.asarray(I), np.asarray(J))
        if self._table is not None:
            return self._table[I, J]
        A = self.elems[I].astype(np.int64)
        B = self.elems[J].astype(np.int64)
        prod = _frozen_product_digits(self._old, tuple(A[..., k] for k in range(8)),
                                      tuple(B[..., k] for k in range(8)))
        code = prod[0]
        for k in range(1, 8):
            code = code * self.q + prod[k]
        return self._lookup[code].astype(np.int64)

    def inv_array(self):
        if self._inv_of is None:
            E = self.elems.astype(np.int64)
            NEG = self._old.NEG
            rows = np.stack([E[:, 7], NEG[E[:, 1]], NEG[E[:, 2]], NEG[E[:, 3]],
                             NEG[E[:, 4]], NEG[E[:, 5]], NEG[E[:, 6]], E[:, 0]], axis=1)
            self._inv_of = self._lookup[rows @ self._strides].astype(np.int64)
        return self._inv_of


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_build_matches_frozen_enumeration(q):
    loop = build_paige_loop(q)
    frozen = _frozen_elems(q)
    assert loop.elems.dtype == frozen.dtype
    assert loop.elems.tobytes() == frozen.tobytes()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_products_match_frozen_kernel(q):
    loop = build_paige_loop(q, element_cap=paige_loop_order(q))
    frozen = _FrozenPaigeLoop(loop.spec, loop.elems)
    assert np.array_equal(loop._lookup, frozen._lookup)
    rng = np.random.default_rng(200 + q)
    I = rng.integers(0, loop.n, 20_000)
    J = rng.integers(0, loop.n, 20_000)
    new, old = loop.mul_vec(I, J), frozen.mul_vec(I, J)
    assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
    assert loop.inv_array().tobytes() == frozen.inv_array().tobytes()


def test_mstar3_pipeline_matches_frozen_kernel():
    loop = build_paige_loop(3)
    frozen = _FrozenPaigeLoop(loop.spec, _frozen_elems(3))
    reports = [inner_orbits(lp, policy="randomized") for lp in (loop, frozen)]
    assert reports[0].class_of.tobytes() == reports[1].class_of.tobytes()
    assert reports[0].samples == reports[1].samples
    tables = [compute_character_table(intersection_numbers(loop_scheme(lp, r)))
              for lp, r in zip((loop, frozen), reports)]
    assert tables[0].P.tobytes() == tables[1].P.tobytes()
