"""Zorn vector matrices over GF(q) as digit rows, and the simple Moufang
loops inside them.

A vector matrix is [a, alpha; beta, b] with scalars a, b in GF(q) and row
vectors alpha, beta in GF(q)^3.  The product rule mixes dot and cross
products:

    [a, alpha; beta, b] [c, gamma; delta, d] =
        [a c + alpha.delta,          a gamma + d alpha - beta x delta;
         c beta + b delta + alpha x gamma,   beta.gamma + b d]

with determinant a b - alpha.beta.  The unit-determinant matrices form a
Moufang loop; quotienting by the center {I, -I} gives a simple Moufang loop
of order q^3 (q^4 - 1) / gcd(2, q - 1).

Loop elements are stored as uint8 rows of eight base-q digits
(a, alpha1, alpha2, alpha3, beta1, beta2, beta3, b); a row packs into a
single integer code with digit 'a' most significant, so lexicographic order
on rows equals numeric order on codes.

A vector matrix is only ever such a digit row, or one column of eight
uint8 digit arrays inside a kernel; no object wraps a single matrix.
Products run on flat uint8 field tables: ADD and SUB indexed by x*q + y,
and the fused tables MADD[a,b,c,d] = ab + cd and MSUB[a,b,c,d] = ab - cd
indexed by ((a*q + b)*q + c)*q + d.  Every digit of a product is one ADD
or SUB of two fused lookups, 24 lookups per product; the same tables give
determinants, inverses and packed codes.  Digits are uint8, so the indices
fit uint8 and uint16 for every q <= 16.

A code splits into two half-codes of q^4 values, (a, alpha) and (beta, b).
The build finds the unit matrices without a q^8 array of digits or
determinants: ab - alpha1 beta1 = alpha2 beta2 + alpha3 beta3 + 1 compares
two factor tables, each over two digits of the high half and the whole low
half, broadcast into a q^8 boolean mask whose set positions are the unit
codes in ascending order.  For odd q, the q^4 table NEG4 of negated
half-codes picks the smaller sign representative of each unit code.  Each
half-code's four digits are gathered as one 4-byte word.  The lookup,
inverses and trace classes start from a view of the elements' digit
columns, with no per-element gather.
"""

from __future__ import annotations

import math

import numpy as np

from .config import element_cap_default
from .errors import CapExceeded, ParseError
from .gf import FieldSpec, field_for
from .loopcore import LoopStructure
from .permgroup import canonical_labels

BLOCK_PRODUCTS = 1 << 16    # products per block of a long product, sized for cache


def paige_loop_order(q: int) -> int:
    return q ** 3 * (q ** 4 - 1) // math.gcd(2, q - 1)


KERNEL_MAX_Q = 16   # pair indices x*q + y fit in uint8, quadruple indices in uint16


def _quad_index(q: int, w, x, y, z):
    """((w*q + x)*q + y)*q + z as uint16, for uint8 digits below q <= 16."""
    # unsafe casting admits the int64 scalars older numpy makes of uint8 scalars
    return np.multiply(w * q + x, q * q, dtype=np.uint16, casting="unsafe") + (y * q + z)


def _half_digits(q: int) -> np.ndarray:
    """Digit rows (4, q^4) uint8 of the half-codes 0..q^4 - 1, digit 0 most
    significant."""
    return np.indices((q,) * 4, dtype=np.uint8).reshape(4, q ** 4)


class _FieldTables:
    """GF(q) arithmetic as flat uint8 tables, for whole-array Zorn products.

    ADD and SUB hold x + y and x - y at x*q + y; the fused tables MADD and
    MSUB hold ab + cd and ab - cd at ((a*q + b)*q + c)*q + d; NEG holds -x
    at x, and NEG4 the half-code of the four negated digits at each
    half-code.  Arguments are uint8 digit arrays (or numpy scalars) that
    broadcast against each other.
    """

    def __init__(self, spec: FieldSpec):
        q = spec.q
        if q > KERNEL_MAX_Q:
            raise CapExceeded(f"Zorn arithmetic covers q <= {KERNEL_MAX_Q}, got q={q}")
        self.q = q
        self.ADD = spec.add_t.ravel()
        self.SUB = spec.sub_t.ravel()
        self.NEG = spec.neg_t
        ab = spec.mul_t.ravel()
        self.MADD = spec.add_t[ab[:, None], ab].ravel()
        self.MSUB = spec.sub_t[ab[:, None], ab].ravel()
        self.NEG4 = _quad_index(q, *self.NEG.take(_half_digits(q)))

    def add(self, x, y):
        return self.ADD.take(x * self.q + y)

    def sub(self, x, y):
        return self.SUB.take(x * self.q + y)

    def madd(self, a, b, c, d):
        return self.MADD.take(_quad_index(self.q, a, b, c, d))

    def msub(self, a, b, c, d):
        return self.MSUB.take(_quad_index(self.q, a, b, c, d))

    def det(self, D):
        """ab - alpha.beta of the digit rows D = (a, alpha, beta, b)."""
        return self.sub(self.msub(D[0], D[7], D[1], D[4]),
                        self.madd(D[2], D[5], D[3], D[6]))

    def codes(self, D):
        """Packed uint32 codes of the digit rows D, digit 0 most significant."""
        q = self.q
        return (np.multiply(_quad_index(q, *D[:4]), q ** 4, dtype=np.uint32,
                            casting="unsafe") + _quad_index(q, *D[4:]))

    def neg_codes(self, codes):
        """Codes of the digit-wise negations of the codes, as uint32: one
        NEG4 lookup per half."""
        q4 = self.q ** 4
        hi, lo = np.divmod(codes, q4)
        return (np.multiply(self.NEG4.take(hi), q4, dtype=np.uint32, casting="unsafe")
                + self.NEG4.take(lo))


def _zorn_product_digits(ft: _FieldTables, A, B):
    """Digit-wise product of stacks of vector matrices.

    A and B are sequences of eight broadcast-compatible uint8 digit arrays
    in the order (a, alpha, beta, b); returns the product's eight digit
    arrays.  Each output digit is one ADD or SUB of two fused MADD/MSUB
    lookups, 24 lookups per product.
    """
    a, al, be, b = A[0], A[1:4], A[4:7], A[7]
    c, ga, de, d = B[0], B[1:4], B[4:7], B[7]
    e = ft.add(ft.madd(a, c, al[0], de[0]), ft.madd(al[1], de[1], al[2], de[2]))
    f = ft.add(ft.madd(be[0], ga[0], be[1], ga[1]), ft.madd(be[2], ga[2], b, d))
    top, bot = [], []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        # a gamma + d alpha - beta x delta  and  c beta + b delta + alpha x gamma
        top.append(ft.sub(ft.madd(a, ga[k], d, al[k]),
                          ft.msub(be[i], de[j], be[j], de[i])))
        bot.append(ft.add(ft.madd(c, be[k], b, de[k]),
                          ft.msub(al[i], ga[j], al[j], ga[i])))
    return (e, *top, *bot, f)


def _row_blocks(shape: tuple) -> list[slice]:
    """Slices along axis 0 of an array of the given shape, each holding at
    most BLOCK_PRODUCTS entries (at least one row)."""
    step = max(1, BLOCK_PRODUCTS // math.prod(shape[1:]))
    return [slice(i, min(i + step, shape[0])) for i in range(0, shape[0], step)]


class PaigeLoop(LoopStructure):
    """The simple Moufang loop of unit vector matrices over GF(q), mod signs.

    Element 0 is the identity matrix; the remaining elements are sorted by
    their packed digit code.  For odd q each element is stored by the
    lexicographically smaller of the two sign representatives, and the code
    lookup registers both signs so products need no canonicalization pass.
    The loop holds no multiplication table: every product, of any size,
    runs through the Zorn kernel in mul_vec.
    """

    def __init__(self, spec: FieldSpec, elems: np.ndarray):
        self.spec = spec
        self.q = spec.q
        self.n = elems.shape[0]
        digits = np.ascontiguousarray(elems, dtype=np.uint8)
        self._ft = _FieldTables(spec)
        # each element's eight uint8 digits as one 8-byte word: one gather per element
        self._words = digits.view(np.uint64).ravel()
        # the (n, 8) digit rows, a view of the words
        self.elems = self._words.view(np.uint8).reshape(self.n, 8)
        self._lookup = self._build_lookup()
        self._inv_of: np.ndarray | None = None

    def _digits(self, I) -> np.ndarray:
        """Digit rows (8,) + shape(I) of the elements I, as uint8."""
        rows = self._words.take(I)[..., None].view(np.uint8)
        return np.ascontiguousarray(np.moveaxis(rows, -1, 0))

    def _build_lookup(self) -> np.ndarray:
        codes = self._ft.codes(self.elems.T)
        lookup = np.full(self.q ** 8, -1, dtype=np.int32)
        lookup[codes] = np.arange(self.n, dtype=np.int32)
        if self.q % 2:
            lookup[self._ft.neg_codes(codes)] = np.arange(self.n, dtype=np.int32)
        return lookup

    # loop interface

    def _kernel(self, I, J) -> np.ndarray:
        prod = _zorn_product_digits(self._ft, self._digits(I), self._digits(J))
        return self._lookup.take(self._ft.codes(prod)).astype(np.int64)

    def mul_vec(self, I, J) -> np.ndarray:
        """Broadcast products I * J.  Above BLOCK_PRODUCTS they run in blocks
        of rows along axis 0, so the kernel's temporaries stay in cache; an
        operand that does not vary along axis 0 goes to every block unsliced."""
        I, J = np.asarray(I), np.asarray(J)
        shape = np.broadcast_shapes(I.shape, J.shape)
        if math.prod(shape) <= BLOCK_PRODUCTS:
            return self._kernel(I, J)
        out = np.empty(shape, dtype=np.int64)
        sliced = [A.ndim == len(shape) and A.shape[0] > 1 for A in (I, J)]
        for rows in _row_blocks(shape):
            out[rows] = self._kernel(I[rows] if sliced[0] else I,
                                     J[rows] if sliced[1] else J)
        return out

    def inv_array(self) -> np.ndarray:
        if self._inv_of is None:
            D = self.elems.T
            # unit determinant: the inverse of [a, alpha; beta, b] is
            # [b, -alpha; -beta, a], the same element as [-b, alpha; beta, -a],
            # whose code the lookup holds too; only two digits are negated
            rows = (self._ft.NEG.take(D[7]), *D[1:7], self._ft.NEG.take(D[0]))
            self._inv_of = self._lookup.take(self._ft.codes(rows)).astype(np.int64)
        return self._inv_of

    def inv_vec(self, I):
        return self.inv_array()[np.asarray(I)]

    def left_div_vec(self, A, B):
        return self.mul_vec(self.inv_vec(A), B)

    def right_div_vec(self, A, B):
        return self.mul_vec(A, self.inv_vec(B))

    def invariant_partition(self) -> np.ndarray:
        """Trace classes, canonically labelled: a + b, taken up to sign for
        odd q, with the identity in a class of its own.  Inner maps fix 1
        and preserve the norm ab - alpha.beta, so they preserve the trace
        (Paige 1956; Nagy and Vojtechovsky 2003) and every trace class is a
        union of inner orbits."""
        D = self.elems.T
        trace = self._ft.add(D[0], D[7])
        if self.q % 2:
            trace = np.minimum(trace, self._ft.NEG.take(trace))
        raw = trace.astype(np.int64) + 1
        raw[0] = 0
        return canonical_labels(raw)[0]

    def scheme_source(self) -> dict:
        return {"kind": "paige-loop-scheme", "q": self.q}

    # serialization

    def to_json(self) -> dict:
        return {"q": self.q, "order": self.n,
                "elements": self.elems.tolist()}

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
        D = np.ascontiguousarray(elems.T, dtype=np.uint8)
        if not np.all(ft.det(D) == 1):
            raise ParseError("every element must have determinant 1")
        ident = np.zeros(8, dtype=np.int64)
        ident[0] = ident[7] = 1
        if not np.array_equal(elems[0], ident):
            raise ParseError("element 0 must be the identity matrix")
        codes = ft.codes(D)
        if q % 2:
            codes = np.minimum(codes, ft.neg_codes(codes))
        if np.unique(codes).shape[0] != expected:
            raise ParseError("elements repeat up to sign")
        return cls(spec, elems)

    def __repr__(self):
        return f"PaigeLoop(q={self.q}, order={self.n})"


def _unit_rows(ft: _FieldTables, n: int) -> np.ndarray:
    """Digit rows (n, 8) uint8 of the unit matrices, the smaller sign
    representative for odd q, identity first and then by ascending code."""
    q = ft.q
    q4 = q ** 4
    half = _half_digits(q)          # as the low half: beta1, beta2, beta3, b
    x, y = np.indices((q, q), dtype=np.uint8)[..., None]
    # ab - alpha.beta = 1 as (ab - alpha1 beta1) = (alpha2 beta2 + alpha3 beta3) + 1.
    # The sides are q^6 tables over (a, alpha1, low half) and (alpha2, alpha3, low
    # half); their mask on the code axes (a, alpha1, alpha2, alpha3, low half) has
    # the unit codes, ascending, as its set positions, and each inner loop of the
    # compare covers a whole low half (q^4 cells)
    left = ft.msub(x, half[3], y, half[0])
    right = ft.add(ft.madd(x, half[1], y, half[2]), 1)
    codes = np.flatnonzero(left[:, :, None, None] == right)
    if q % 2:
        codes = codes[codes < ft.neg_codes(codes)]
    ident_code = q ** 7 + 1
    at = int(np.searchsorted(codes, ident_code))
    if codes.shape[0] != n or ident_code not in codes[at:at + 1]:
        raise RuntimeError(f"enumeration produced {codes.shape[0]} elements, "
                           f"expected {n} with the identity among them")
    # the identity first, the others in code order
    codes[1:at + 1] = codes[:at]
    codes[0] = ident_code
    # each half-code's four digits as one 4-byte word
    words = np.ascontiguousarray(half.T).view(np.uint32).ravel()
    hi, lo = np.divmod(codes, q4)
    return np.stack([words.take(hi), words.take(lo)], axis=1).view(np.uint8)


def build_paige_loop(q: int, element_cap: int | None = None) -> PaigeLoop:
    """Enumerate the loop of order q^3 (q^4 - 1) / gcd(2, q - 1) over GF(q)."""
    spec = field_for(q)
    n = paige_loop_order(q)
    cap = element_cap_default() if element_cap is None else element_cap
    if n > cap:
        raise CapExceeded(f"loop of q={q} has {n} elements, above the cap {cap}")
    return PaigeLoop(spec, _unit_rows(_FieldTables(spec), n))
