"""Zorn vector matrices over GF(q) and the simple Moufang loops inside them.

A vector matrix is [a, alpha; beta, b] with scalars a, b in GF(q) and row
vectors alpha, beta in GF(q)^3.  The product rule mixes dot and cross
products:

    [a, alpha; beta, b] [c, gamma; delta, d] =
        [a c + alpha.delta,          a gamma + d alpha - beta x delta;
         c beta + b delta + alpha x gamma,   beta.gamma + b d]

with determinant a b - alpha.beta.  The unit-determinant matrices form a
Moufang loop; quotienting by the center {I, -I} gives a simple Moufang loop
of order q^3 (q^4 - 1) / gcd(2, q - 1).

Loop elements are stored as rows of eight base-q digits
(a, alpha1, alpha2, alpha3, beta1, beta2, beta3, b); a row packs into a
single integer code with digit 'a' most significant, so lexicographic order
on rows equals numeric order on codes.
"""

from __future__ import annotations

import math

import numpy as np

from .config import element_cap_default
from .errors import CapExceeded, ParseError, SingularMatrix
from .gf import FieldSpec, Vec3, field_for
from .loopcore import LoopStructure


class ZornMatrix:
    """Scalar vector matrix; slow but readable, used for spot checks."""

    __slots__ = ("spec", "a", "alpha", "beta", "b")

    def __init__(self, spec: FieldSpec, a, alpha, beta, b):
        self.spec = spec
        self.a = spec.element(a)
        self.alpha = alpha if isinstance(alpha, Vec3) else spec.vec3(*alpha)
        self.beta = beta if isinstance(beta, Vec3) else spec.vec3(*beta)
        self.b = spec.element(b)

    @classmethod
    def identity(cls, spec: FieldSpec) -> "ZornMatrix":
        return cls(spec, spec.one, (0, 0, 0), (0, 0, 0), spec.one)

    @classmethod
    def from_reps(cls, spec: FieldSpec, reps) -> "ZornMatrix":
        reps = tuple(int(r) for r in reps)
        if len(reps) != 8:
            raise ValueError("a vector matrix needs eight digits")
        return cls(spec, reps[0], reps[1:4], reps[4:7], reps[7])

    def to_reps(self) -> tuple:
        return ((self.a.rep,) + self.alpha.reps + self.beta.reps + (self.b.rep,))

    def det(self):
        return self.a * self.b - self.alpha.dot(self.beta)

    def __mul__(self, other: "ZornMatrix") -> "ZornMatrix":
        a, al, be, b = self.a, self.alpha, self.beta, self.b
        c, ga, de, d = other.a, other.alpha, other.beta, other.b
        return ZornMatrix(
            self.spec,
            a * c + al.dot(de),
            ga.scale(a) + al.scale(d) - be.cross(de),
            be.scale(c) + de.scale(b) + al.cross(ga),
            be.dot(ga) + b * d,
        )

    def inverse(self) -> "ZornMatrix":
        det = self.det()
        if not det:
            raise SingularMatrix("vector matrix with determinant 0 has no inverse")
        s = det.inverse()
        return ZornMatrix(self.spec, self.b * s, -self.alpha.scale(s),
                          -self.beta.scale(s), self.a * s)

    def __neg__(self) -> "ZornMatrix":
        return ZornMatrix(self.spec, -self.a, -self.alpha, -self.beta, -self.b)

    def __eq__(self, other):
        return (isinstance(other, ZornMatrix) and self.spec == other.spec
                and self.to_reps() == other.to_reps())

    def __hash__(self):
        return hash((self.spec, self.to_reps()))

    def __repr__(self):
        r = self.to_reps()
        return f"ZornMatrix(q={self.spec.q}, {r[0]}, {r[1:4]}, {r[4:7]}, {r[7]})"


def zorn_mul(m1: ZornMatrix, m2: ZornMatrix) -> ZornMatrix:
    return m1 * m2


def zorn_det(m: ZornMatrix):
    return m.det()


def zorn_inv(m: ZornMatrix) -> ZornMatrix:
    return m.inverse()


def paige_loop_order(q: int) -> int:
    return q ** 3 * (q ** 4 - 1) // math.gcd(2, q - 1)


class _FieldTables:
    """Field arithmetic as numpy arrays, for whole-array Zorn products."""

    def __init__(self, spec: FieldSpec):
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


def _zorn_product_digits(ft: _FieldTables, A, B):
    """Digit-wise product of stacks of vector matrices.

    A and B are sequences of eight broadcast-compatible digit arrays in the
    order (a, alpha, beta, b); returns the product's eight digit arrays.
    """
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


class PaigeLoop(LoopStructure):
    """The simple Moufang loop of unit vector matrices over GF(q), mod signs.

    Element 0 is the identity matrix; the remaining elements are sorted by
    their packed digit code.  For odd q each element is stored by the
    lexicographically smaller of the two sign representatives, and the code
    lookup registers both signs so products need no canonicalization pass.
    """

    TABLE_LIMIT = 4096

    def __init__(self, spec: FieldSpec, elems: np.ndarray):
        self.spec = spec
        self.q = spec.q
        self.n = elems.shape[0]
        self.elems = np.ascontiguousarray(elems, dtype=np.int16)
        self._ft = _FieldTables(spec)
        self._strides = self.q ** np.arange(7, -1, -1, dtype=np.int64)
        self._lookup = self._build_lookup()
        self._inv_of: np.ndarray | None = None
        self._table: np.ndarray | None = None

    def _codes_of_rows(self, rows: np.ndarray) -> np.ndarray:
        return rows.astype(np.int64) @ self._strides

    def _build_lookup(self) -> np.ndarray:
        q = self.q
        lookup = np.full(q ** 8, -1, dtype=np.int32)
        codes = self._codes_of_rows(self.elems)
        lookup[codes] = np.arange(self.n, dtype=np.int32)
        if q % 2:
            neg_rows = self._ft.NEG[self.elems.astype(np.int64)]
            lookup[neg_rows @ self._strides] = np.arange(self.n, dtype=np.int32)
        return lookup

    # vector matrix views

    def matrix(self, i: int) -> ZornMatrix:
        return ZornMatrix.from_reps(self.spec, self.elems[i])

    def index_of(self, mat: ZornMatrix) -> int:
        code = int(np.array(mat.to_reps(), dtype=np.int64) @ self._strides)
        idx = int(self._lookup[code])
        if idx < 0:
            raise ValueError("matrix is not a unit vector matrix of this loop")
        return idx

    # loop interface

    def mul_vec(self, I, J):
        I, J = np.broadcast_arrays(np.asarray(I), np.asarray(J))
        if self._table is not None:
            return self._table[I, J]
        A = self.elems[I].astype(np.int64)
        B = self.elems[J].astype(np.int64)
        digits_a = tuple(A[..., k] for k in range(8))
        digits_b = tuple(B[..., k] for k in range(8))
        prod = _zorn_product_digits(self._ft, digits_a, digits_b)
        code = prod[0]
        for k in range(1, 8):
            code = code * self.q + prod[k]
        return self._lookup[code].astype(np.int64)

    def mul(self, i: int, j: int) -> int:
        if self._table is not None:
            return int(self._table[i, j])
        return int(self.mul_vec(np.int64(i), np.int64(j)))

    def inv_array(self) -> np.ndarray:
        if self._inv_of is None:
            E = self.elems.astype(np.int64)
            NEG = self._ft.NEG
            # unit determinant: inverse of [a, alpha; beta, b] is [b, -alpha; -beta, a]
            rows = np.stack([E[:, 7],
                             NEG[E[:, 1]], NEG[E[:, 2]], NEG[E[:, 3]],
                             NEG[E[:, 4]], NEG[E[:, 5]], NEG[E[:, 6]],
                             E[:, 0]], axis=1)
            self._inv_of = self._lookup[rows @ self._strides].astype(np.int64)
        return self._inv_of

    def inv_vec(self, I):
        return self.inv_array()[np.asarray(I)]

    def left_div_vec(self, A, B):
        return self.mul_vec(self.inv_vec(A), B)

    def right_div_vec(self, A, B):
        return self.mul_vec(A, self.inv_vec(B))

    def table(self) -> np.ndarray | None:
        if self._table is None and self.n <= self.TABLE_LIMIT:
            rows = np.empty((self.n, self.n), dtype=np.int32)
            Z = np.arange(self.n)
            for i in range(self.n):
                rows[i] = self.mul_vec(np.full(self.n, i), Z)
            self._table = rows
        return self._table

    def scheme_source(self) -> dict:
        return {"kind": "paige-loop-scheme", "q": self.q}

    # serialization

    def to_json(self) -> dict:
        return {"q": self.q, "order": self.n,
                "elements": self.elems.astype(int).tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "PaigeLoop":
        try:
            q = int(data["q"])
            order = int(data["order"])
            elements = data["elements"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed loop description: {exc}") from None
        spec = field_for(q)
        expected = paige_loop_order(q)
        if order != expected or len(elements) != expected:
            raise ParseError(f"order {order} does not match the loop of q={q} "
                             f"(expected {expected})")
        elems = np.asarray(elements, dtype=np.int64)
        if elems.shape != (expected, 8) or elems.min() < 0 or elems.max() >= q:
            raise ParseError("elements must be rows of eight base-q digits")
        ft = _FieldTables(spec)
        digits = tuple(elems[:, k] for k in range(8))
        det = ft.SUB[ft.MUL[digits[0], digits[7]],
                     ft.dot3(digits[1:4], digits[4:7])]
        if not np.all(det == spec.one.rep):
            raise ParseError("every element must have determinant 1")
        ident = np.zeros(8, dtype=np.int64)
        ident[0] = ident[7] = spec.one.rep
        if not np.array_equal(elems[0], ident):
            raise ParseError("element 0 must be the identity matrix")
        strides = q ** np.arange(7, -1, -1, dtype=np.int64)
        codes = elems @ strides
        if q % 2:
            neg_codes = ft.NEG[elems] @ strides
            codes = np.minimum(codes, neg_codes)
        if np.unique(codes).shape[0] != expected:
            raise ParseError("elements repeat up to sign")
        return cls(spec, elems)

    def __repr__(self):
        return f"PaigeLoop(q={self.q}, order={self.n})"


def build_paige_loop(q: int, element_cap: int | None = None) -> PaigeLoop:
    """Enumerate the loop of order q^3 (q^4 - 1) / gcd(2, q - 1) over GF(q)."""
    spec = field_for(q)
    n = paige_loop_order(q)
    cap = element_cap_default() if element_cap is None else element_cap
    if n > cap:
        raise CapExceeded(f"loop of q={q} has {n} elements, above the cap {cap}")
    ft = _FieldTables(spec)
    codes = np.arange(q ** 8, dtype=np.int64)
    digits = tuple((codes // q ** (7 - k)) % q for k in range(8))
    det = ft.SUB[ft.MUL[digits[0], digits[7]],
                 ft.dot3(digits[1:4], digits[4:7])]
    unit = det == spec.one.rep
    unit_codes = codes[unit]
    if q % 2:
        neg_code = sum(ft.NEG[digits[k]][unit] * q ** (7 - k) for k in range(8))
        unit_codes = unit_codes[unit_codes < neg_code]
    ident_code = spec.one.rep * q ** 7 + spec.one.rep
    rest = unit_codes[unit_codes != ident_code]
    ordered = np.concatenate([[ident_code], np.sort(rest)])
    if ordered.shape[0] != n:
        raise RuntimeError(f"enumeration produced {ordered.shape[0]} elements, "
                           f"expected {n}")
    elems = np.empty((n, 8), dtype=np.int16)
    for k in range(8):
        elems[:, k] = (ordered // q ** (7 - k)) % q
    return PaigeLoop(spec, elems)
