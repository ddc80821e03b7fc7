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

A matrix's digit row is its eight base-q digits (a, alpha1, alpha2,
alpha3, beta1, beta2, beta3, b); a row packs into a single integer code
with digit 'a' most significant, so lexicographic order on rows equals
numeric order on codes.  A loop element is its index, which maps to and
from the two halves of its code (below) in closed form; only a pass that
reads the whole loop holds every element's halves, one uint32 word each,
read as (hi, lo) uint16 pairs.

A vector matrix is only ever such a digit row, or one column of eight
uint8 digit arrays inside a kernel; no object wraps a single matrix.
Products run on flat uint8 field tables: ADD and SUB indexed by x*q + y,
and the fused tables MADD[a,b,c,d] = ab + cd and MSUB[a,b,c,d] = ab - cd
indexed by ((a*q + b)*q + c)*q + d.  Every digit of a product is a sum
of two fused terms, read as one lookup of MADD pre-scaled by q^4 and one
of an accumulate table XMADD or XMSUB at x*q^4 + i, 16 lookups per
product; the same tables give determinants, inverses and half-codes.
Digits are uint8, so the indices fit uint8 and uint16 for every q <= 16,
and the accumulate indices uint32.

A code splits into two half-codes of q^4 values, hi = (a, alpha) and
lo = (beta, b).  For hi != 0, ab - alpha.beta = 1 is one linear equation in
lo with coefficients (-alpha1, -alpha2, -alpha3, a); with k the last lo
position whose coefficient is nonzero, digit k is fixed by the digits
before it and the three other digits are free.  So each hi != 0 holds
exactly q^3 unit codes, in the mixed-radix order of their free digits, and
an element's index is a closed form over q^4 tables: BASE[hi], the count
of elements whose high half comes first, plus RANKS[OFF[hi] + lo], the
free-digit rank in the row of k.  For odd q, hi != 0 is never its own
negation, so an element is stored by the sign whose high half is below
NEG4[hi] (NEG4 maps each half-code to that of its negated digits); a code
of the other sign points through OFF to a row of ranks of negated low
halves and through BASE to its negation's block.  Unranking inverts this:
apart from the identity, which comes first, an index is the position r
q^3 + f in code order, r the representative's number and f the position
of the free digits; lo is the free digits' code plus digit k, solved from
q^4-sized tables of the representatives, times its place value.  The
enumeration of the whole loop is the same solve over each
representative's q^3 free-digit grid.  No table of size q^8 exists.
Lifting unranks and turns each half-code into its four digits through
one q^4 table of 4-byte digit words.

The digit rows are the loop's lifted elements: a word of several products
and divisions unranks each operand once, multiplies in digit space and
ranks only its result.  Signs need no care on the way: the product is
bilinear and the inverse [-b, alpha; beta, -a] linear, so an intermediate
of either sign leads to a result of either sign, and both signs rank to
the same index.

A map applied to every element with its other operands fixed is often
GF(q)-linear in the element's digits: an inner map T(x), L(x, y) or
R(x, y), since the product is bilinear and the inverse linear, and the
polar form B(v, u) below with u fixed.  An element is the digit-wise sum
of its high half (hi, 0) and its low half (0, lo), so its image is the sum
of theirs.  Such a map runs once on the 2 q^4 half-basis rows (an inner
map with the usual times, ldiv and rdiv), and is then read at each
element from its hi and its lo: an image of eight digits as four quarter
codes of two digits (below q^2 <= 256), summed through the q^4 table QADD
and ranked; a polar form as one digit.  A refinement round or a row or
column read thus runs no product and no lift on the elements, and gives
the same images, and indices, as lifting each element would.

The relations of a loop scheme on the trace classes need no product: the
trace of v u^-1 is the polar form of the norm, a_v b_u + b_v a_u -
alpha_v.beta_u - beta_v.alpha_u.  A scheme reads a row or a column, one
side a single element, so the form is read as two q^4 table reads and one
lookup an element in a q-entry table of class ids, with no element formed.
The trace a + b is the polar form with the identity.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import DEFAULT_ELEMENT_CAP
from .errors import CapExceeded, ParseError
from .gf import FieldSpec, field_for
from .loopcore import BLOCK_PRODUCTS, LoopStructure, blocked
from .permgroup import canonical_labels
from .scheme import first_members, index_dtype


def paige_loop_order(q: int) -> int:
    return q ** 3 * (q ** 4 - 1) // math.gcd(2, q - 1)


KERNEL_MAX_Q = 16   # pair indices x*q + y fit in uint8, quadruple indices in uint16
# elements per block of an unrank or a half-code table read: numpy's intp
# copies of a block's indices stay within 256 KB, in cache, and add nothing
# to the peak
READ_BLOCK = 1 << 13


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

    ADD, SUB and MUL hold x + y, x - y and xy at x*q + y; the fused tables
    MADD and MSUB hold ab + cd and ab - cd at ((a*q + b)*q + c)*q + d; NEG
    and INV hold -x and 1/x at x (INV[0] = 0), NEG4 the half-code of
    the four negated digits at each half-code, and QADD the digit-wise sum
    of two quarter codes x = (x0, x1) and y, x0*q + x1 and y0*q + y1, at
    x*q^2 + y.  The accumulate tables XMADD and XMSUB hold x + MADD[i] and
    x + MSUB[i] at x*q^4 + i, and MADD4 holds MADD[i]*q^4 (uint32) at i, so
    a sum or difference of two fused terms is two lookups.  Arguments are
    uint8 digit arrays (or numpy scalars) that broadcast against each other.
    """

    def __init__(self, spec: FieldSpec):
        q = spec.q
        if q > KERNEL_MAX_Q:
            raise CapExceeded(f"Zorn arithmetic covers q <= {KERNEL_MAX_Q}, got q={q}")
        self.q = q
        self.ADD = spec.add_t.ravel()
        self.SUB = spec.sub_t.ravel()
        self.NEG = spec.neg_t
        self.INV = spec.inv_t
        self.MUL = ab = spec.mul_t.ravel()
        self.MADD = spec.add_t[ab[:, None], ab].ravel()
        self.MSUB = spec.sub_t[ab[:, None], ab].ravel()
        self.MADD4 = self.MADD.astype(np.uint32) * q ** 4
        self.XMADD = spec.add_t[:, self.MADD].ravel()
        self.XMSUB = spec.add_t[:, self.MSUB].ravel()
        D = _half_digits(q)
        self.NEG4 = _quad_index(q, *self.NEG.take(D))
        self.QADD = self.add(D[0], D[2]) * q + self.add(D[1], D[3])

    def add(self, x, y):
        return self.ADD.take(x * self.q + y)

    def mul(self, x, y):
        return self.MUL.take(x * self.q + y)

    def sub(self, x, y):
        return self.SUB.take(x * self.q + y)

    def madd(self, a, b, c, d):
        return self.MADD.take(_quad_index(self.q, a, b, c, d))

    def msub(self, a, b, c, d):
        return self.MSUB.take(_quad_index(self.q, a, b, c, d))

    def accumulate(self, X, i, j):
        """MADD at i plus X at j, X being XMADD (for + MADD[j]) or XMSUB (for
        + MSUB[j]), for quadruple indices i and j."""
        # uint32: the index reaches q^5 > 2^16, also for scalars under older numpy
        return X.take(np.add(self.MADD4.take(i), j, dtype=np.uint32, casting="unsafe"))

    def det(self, D):
        """ab - alpha.beta of the digit rows D = (a, alpha, beta, b)."""
        return self.sub(self.msub(D[0], D[7], D[1], D[4]),
                        self.madd(D[2], D[5], D[3], D[6]))

    def halves(self, D):
        """Half-codes (hi, lo) of the digit rows D, as uint16, digit 0 most
        significant."""
        return _quad_index(self.q, *D[:4]), _quad_index(self.q, *D[4:])


def _zorn_product_digits(ft: _FieldTables, A, B):
    """Digit-wise product of stacks of vector matrices.

    A and B are sequences of eight broadcast-compatible uint8 digit arrays
    in the order (a, alpha, beta, b); returns the product's eight digit
    arrays.  Each output digit is a fused MADD term plus a fused MADD or
    MSUB term, one MADD4 and one XMADD or XMSUB lookup: 16 lookups per
    product.  A difference MADD - MSUB[ab - cd] is read as MADD + MSUB[cd -
    ab]."""
    a, al, be, b = A[0], A[1:4], A[4:7], A[7]
    c, ga, de, d = B[0], B[1:4], B[4:7], B[7]
    quad = functools.partial(_quad_index, ft.q)
    acc, XMADD, XMSUB = ft.accumulate, ft.XMADD, ft.XMSUB
    e = acc(XMADD, quad(a, c, al[0], de[0]), quad(al[1], de[1], al[2], de[2]))
    f = acc(XMADD, quad(be[0], ga[0], be[1], ga[1]), quad(be[2], ga[2], b, d))
    top, bot = [], []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        # a gamma + d alpha - beta x delta  and  c beta + b delta + alpha x gamma
        top.append(acc(XMSUB, quad(a, ga[k], d, al[k]), quad(be[j], de[i], be[i], de[j])))
        bot.append(acc(XMSUB, quad(c, be[k], b, de[k]), quad(al[i], ga[j], al[j], ga[i])))
    return (e, *top, *bot, f)


def _polar_form(ft: _FieldTables, A, B):
    """B(A, B) = a_A b_B + b_A a_B - alpha_A.beta_B - beta_A.alpha_B of the
    broadcast digit rows A and B, the trace of A B^-1 for units: four fused
    and three plain lookups."""
    dot = ft.add(ft.add(ft.madd(A[1], B[4], A[2], B[5]),
                        ft.madd(A[3], B[6], A[4], B[1])),
                 ft.madd(A[5], B[2], A[6], B[3]))
    return ft.sub(ft.madd(A[0], B[7], A[7], B[0]), dot)


def _pivots(q: int) -> np.ndarray:
    """For each half-code hi = (a, alpha), the last low-half position k whose
    coefficient in ab - alpha.beta = 1, (-alpha1, -alpha2, -alpha3, a), is
    nonzero; 0 at hi = 0, which holds no unit code."""
    a, _, alpha2, alpha3 = _half_digits(q)
    return np.select([a != 0, alpha3 != 0, alpha2 != 0], [3, 2, 1], 0)


def _representatives(ft: _FieldTables) -> tuple[np.ndarray, int]:
    """The elements' high half-codes, ascending: every hi != 0 for even q,
    the smaller of hi and its negation for odd q; and the identity's place
    in code order, after the q^3 codes of each representative below q^3."""
    reps = np.flatnonzero(np.arange(ft.q ** 4) <= ft.NEG4)[1:].astype(np.uint16)
    q3 = ft.q ** 3
    return reps, q3 * int(np.searchsorted(reps, q3))


def _rank_tables(ft: _FieldTables, reps: np.ndarray,
                 ident_at: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BASE, OFF and RANKS with BASE[hi] + RANKS[OFF[hi] + lo] the index of
    the element whose code, up to sign for odd q, has halves hi and lo.

    RANKS holds ten q^4 rows: the free-digit rank of lo for k = 0..3, then
    k = 3 again with the identity's lo sent to index 0, and the same five
    ranks taken at the negated lo.  OFF picks the row of hi's pivot, of its
    sign, and of the identity's hi and its negation.  BASE counts the
    elements whose high half is below the representative of hi, shifted by
    one below the identity."""
    q = ft.q
    q3, q4 = q ** 3, q ** 4
    lo = _half_digits(q).astype(np.int32)
    plain = np.empty((5, q4), dtype=np.int32)
    for k in range(4):
        x, y, z = np.delete(lo, k, axis=0)
        plain[k] = (x * q + y) * q + z
    plain[4] = plain[3]
    plain[4, 1] = -ident_at         # lo of the identity, (beta, b) = (0, 1)
    ranks = np.concatenate([plain, plain[:, ft.NEG4]]).ravel()
    hi = np.arange(q4)
    which = _pivots(q)
    which[[q3, ft.NEG4[q3]]] = 4
    off = ((hi > ft.NEG4) * 5 + which) * q4
    first = np.zeros(q4, dtype=np.int64)
    first[reps] = q3 * np.arange(reps.shape[0]) + (reps < q3)
    return first[np.minimum(hi, ft.NEG4)], off, ranks


class PaigeLoop(LoopStructure):
    """The simple Moufang loop of unit vector matrices over GF(q), mod signs.

    Element 0 is the identity matrix; the remaining elements are sorted by
    their packed digit code.  For odd q each element is stored by the
    lexicographically smaller of the two sign representatives.  An element
    is its index: _unrank gives its half-codes (hi, lo) in closed form over
    q^4 tables, and _rank, the closed-form rank of a code, gives the index
    back, at either sign, so products need no canonicalization pass.  The
    loop holds no multiplication table, no table of inverses, and until a
    pass reads the whole loop no array of its n elements.  It defines the
    five lifted operations, on digit rows: lift unranks and turns the
    half-codes into digits, times is the Zorn kernel, ldiv and rdiv
    multiply by the digit-space inverse (two NEG lookups), and index is the
    rank.  Its index-level ops are the ones LoopStructure derives from
    these.  A map linear in the element, one inner map of a refinement
    round (fixed_map_images) or the polar form of a row or column read
    (invariant_classes), is evaluated on the half-basis rows and read at
    each element from its half-codes, taken from _codes, every element's
    4-byte word, which the enumeration builds at the first such read.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.q = q = spec.q
        self._ft = ft = _FieldTables(spec)
        self.n = paige_loop_order(q)
        # each half-code's four digits as one 4-byte word
        self._digit_words = np.ascontiguousarray(_half_digits(q).T).view(np.uint32).ravel()
        self._reps, self._ident_at = _representatives(ft)
        self._base, self._off, self._ranks = _rank_tables(ft, self._reps, self._ident_at)
        # each representative's unit equation, solved for its pivot digit k
        # (_pivots): x_k = S / c_k with S = 1 + sum_{j<k} alpha_{j+1}
        # beta_{j+1} and c_k = a for k = 3, else -alpha_{k+1}.  The digits
        # before k are the first free digits g, so with the alpha digits at
        # and after k masked, x_k = w1 g1 + w2 g2 + w3 g3 + 1/c_k for w =
        # alpha / c_k, at every pivot; a 4-byte word holds (w1, w2, w3, 1/c_k)
        q3, R = q ** 3, self._reps.shape[0]
        half = _half_digits(q)
        H = half[:, self._reps]
        pivot = _pivots(q)[self._reps]
        coef = H[(pivot + 1) % 4, np.arange(R)]
        inv = ft.INV.take(np.where(pivot == 3, coef, ft.NEG.take(coef)))
        alpha = np.where(np.arange(3)[:, None] < pivot, H[1:], 0).astype(np.uint8)
        self._solve = np.stack([*ft.mul(alpha, inv), inv], axis=1).view(np.uint32).ravel()
        # the low halves with digit k zero, in the order of the other three
        # digits, at k q^3 + their position; and for each representative
        # the uint16 pair (k q^3, place value of digit k) as a 4-byte word
        self._free = np.concatenate([np.flatnonzero(half[k] == 0) for k in range(4)]
                                    ).astype(np.uint16)
        place = np.array([q3, q * q, q, 1], dtype=np.uint16)
        pivot_at = np.stack([pivot * q3, place[pivot]], axis=1).astype(np.uint16)
        self._pivot_at = pivot_at.view(np.uint32).ravel()
        self._traces: tuple[np.ndarray, np.ndarray] | None = None

    def _unit_pairs(self, r, f) -> np.ndarray:
        """Half-code pairs (hi, lo), uint16 on a trailing axis, of the unit
        codes of the r-th representative high half at free-digit positions
        f, broadcast: the free digits are those of f, and the pivot digit
        is solved through one MADD4 and one XMADD lookup."""
        q, ft = self.q, self._ft
        w = self._solve.take(r)[..., None].view(np.uint8)
        # f read as a half-code: digits (0, g1, g2, g3), the free digits,
        # copied to contiguous rows, as they broadcast over the representatives
        g = np.moveaxis(self._digit_words.take(f)[..., None].view(np.uint8), -1, 0).copy()
        x = ft.accumulate(ft.XMADD, _quad_index(q, w[..., 0], g[1], w[..., 1], g[2]),
                          _quad_index(q, w[..., 2], g[3], w[..., 3], 1))
        at = self._pivot_at.take(r)[..., None].view(np.uint16)
        lo = self._free.take(at[..., 0] + f) + x * at[..., 1]
        # allocated after the temporaries: the result outlives them
        pairs = np.empty(lo.shape + (2,), dtype=np.uint16)
        pairs[..., 0] = self._reps.take(r)
        pairs[..., 1] = lo
        return pairs

    def _in_range(self, I) -> np.ndarray:
        """I as an array, once every index is checked to lie in 0..n-1;
        IndexError names the first that does not."""
        I = np.asarray(I)
        if I.size and (I.min() < 0 or I.max() >= self.n):
            bad = I[(I < 0) | (I >= self.n)].flat[0]
            raise IndexError(f"element index {bad} is outside 0..{self.n - 1} "
                             f"of M*({self.q})")
        return I

    def _unrank(self, I) -> np.ndarray:
        """Half-code pairs (hi, lo), uint16 on a trailing axis, of the
        elements I, in blocks of READ_BLOCK: the code at position r q^3 + f
        in code order is the r-th representative's at free-digit position
        f, and the identity, at index 0, comes from the place where code
        order has it.  Indices outside 0..n-1 raise IndexError."""
        I = self._in_range(I)
        q3, ident_at = self.q ** 3, self._ident_at

        def pairs(I):
            # indices 1..ident_at sit one place lower in code order
            position = np.subtract(I, I <= ident_at, out=np.empty(I.shape, dtype=np.int64))
            position[I == 0] = ident_at
            r = position // q3
            position -= r * q3
            return self._unit_pairs(r, position)
        return blocked(READ_BLOCK, pairs, I)

    @functools.cached_property
    def _codes(self) -> np.ndarray:
        """Each element's (hi, lo) half-codes as one 4-byte word, in index
        order: the enumeration, for passes that read the whole loop.  Made
        at its first use.

        For each representative, ascending, _unit_pairs runs over the
        whole free-digit grid, in blocks; the identity then moves to index
        0."""
        out = blocked(BLOCK_PRODUCTS, self._unit_pairs,
                      np.arange(self._reps.shape[0])[:, None], np.arange(self.q ** 3))
        codes = out.view(np.uint32).reshape(-1)
        ident = codes[self._ident_at]
        codes[1:self._ident_at + 1] = codes[:self._ident_at]
        codes[0] = ident
        return codes

    @property
    def elems(self) -> np.ndarray:
        """Digit rows (n, 8) uint8 of the elements, derived from the
        half-codes at each read."""
        return self._digit_words.take(self._codes[:, None].view(np.uint16)).view(np.uint8)

    # loop interface: digit rows are the lifted elements

    def lift(self, I) -> np.ndarray:
        """Digit rows (8,) + shape(I) of the elements I, as uint8."""
        rows = self._digit_words.take(self._unrank(I)).view(np.uint8)
        return np.ascontiguousarray(np.moveaxis(rows, -1, 0))

    def index(self, D) -> np.ndarray:
        """Indices (int64) of the elements whose digit rows, or for odd q
        their negations, are the unit rows D."""
        return self._rank(*self._ft.halves(D))

    def _rank(self, hi, lo) -> np.ndarray:
        """Indices (int64) of the elements with half-codes hi and lo, of
        either sign."""
        # in place: each int64 temporary of a block is one allocation
        at = self._off.take(hi)
        at += lo
        index = self._base.take(hi)
        index += self._ranks.take(at)
        return index

    def times(self, A, B):
        return _zorn_product_digits(self._ft, A, B)

    def _inverse(self, A):
        # unit determinant: the inverse of [a, alpha; beta, b] is
        # [b, -alpha; -beta, a], the same element as [-b, alpha; beta, -a],
        # which the rank finds too; only two digits are negated
        NEG = self._ft.NEG
        return (NEG.take(A[7]), *A[1:7], NEG.take(A[0]))

    def ldiv(self, A, B):
        # the loop has the inverse property: a \ b = a^-1 * b
        return self.times(self._inverse(A), B)

    def rdiv(self, A, B):
        return self.times(A, self._inverse(B))

    @functools.cached_property
    def _basis(self) -> np.ndarray:
        """The half-basis, digit rows (8, 2 q^4) uint8: each high half-code
        with a zero low half, then each low half-code with a zero high half;
        an element is the sum of the rows of its hi and of its lo.  Made at
        its first use."""
        q4 = self.q ** 4
        basis = np.zeros((8, 2, q4), dtype=np.uint8)
        basis[:4, 0] = basis[4:, 1] = _half_digits(self.q)
        return basis.reshape(8, 2 * q4)

    def _halves_of(self, Z) -> tuple[np.ndarray, np.ndarray]:
        """The half-codes hi and lo (uint16) of the elements Z; indices
        outside 0..n-1 raise IndexError."""
        halves = self._codes.take(self._in_range(Z))[..., None].view(np.uint16)
        return halves[..., 0], halves[..., 1]

    def fixed_map_images(self, word, Z) -> np.ndarray:
        """Indices of word(lift(Z)) for a word that is GF(q)-linear in its
        digit rows, as an inner map with fixed parameters is.  The word runs
        once, on the 2 q^4 rows of _basis; each image is cut into four
        quarter codes of two digits, and an element's image is read from
        the images of its hi and lo, added quarter by quarter through QADD,
        and ranked, in blocks of READ_BLOCK.  No product or lift runs on
        Z."""
        q2, q4 = self.q ** 2, self.q ** 4
        D = word(self._basis)
        quarters = np.stack([D[k] * self.q + D[k + 1] for k in range(0, 8, 2)], axis=1)
        # the four quarter codes of each half's image as uint16 lanes of one
        # 8-byte word, the high halves' scaled by q^2: a lane sum indexes
        # QADD and stays below q^4 <= 2^16, so adding words adds lanes
        his = (quarters[:q4].astype(np.uint16) * q2).view(np.uint64).ravel()
        los = quarters[q4:].astype(np.uint16).view(np.uint64).ravel()
        QADD = self._ft.QADD

        def images(Z):
            hi, lo = self._halves_of(Z)
            lanes = his.take(hi)
            lanes += los.take(lo)
            Q = QADD.take(lanes[..., None].view(np.uint16))
            return self._rank(np.multiply(Q[..., 0], q2, dtype=np.uint16) + Q[..., 1],
                              np.multiply(Q[..., 2], q2, dtype=np.uint16) + Q[..., 3])
        return blocked(READ_BLOCK, images, Z)

    def _polar_reads(self, W, read):
        """read[B(z, w)] for the elements z, as a function of element arrays
        Z, at the fixed element W; B(z, w) is the trace of z w^-1.  B is
        linear in z: one digit read at the hi from a q^4 table, plus one at
        the lo, through ADD and read composed."""
        q4 = self.q ** 4
        t = _polar_form(self._ft, self._basis, self.lift(W))
        # B of the high halves times q, to index ADD
        F, G = t[:q4] * self.q, t[q4:]
        table = read.take(self._ft.ADD)

        def reads(Z):
            hi, lo = self._halves_of(Z)
            return table.take(F.take(hi) + G.take(lo))
        return reads

    def _trace_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical labels of the trace classes, and the id of each
        trace's class (up to sign, identity aside) in the class dtype."""
        if self._traces is None:
            t = np.arange(self.q, dtype=np.uint8)
            # -t = t in characteristic 2, so the minimum is t itself for even q
            signless = np.minimum(t, self._ft.NEG)
            # the trace a + b is the polar form with the identity
            trace = blocked(READ_BLOCK, self._polar_reads(np.int64(0), signless),
                            np.arange(self.n))
            raw = trace.astype(np.int64) + 1
            raw[0] = 0
            labels, count = canonical_labels(raw)
            rep = first_members(trace[1:], self.q) + 1
            self._traces = labels, labels[rep[signless]].astype(index_dtype(count))
        return self._traces

    def invariant_partition(self) -> np.ndarray:
        """Trace classes, canonically labelled: a + b, taken up to sign for
        odd q, with the identity in a class of its own.  Inner maps fix 1
        and preserve the norm ab - alpha.beta, so they preserve the trace
        (Paige 1956; Nagy and Vojtechovsky 2003) and every trace class is a
        union of inner orbits."""
        return self._trace_classes()[0]

    def invariant_classes(self, V, U) -> np.ndarray:
        """The trace class ids of V / U, in the class dtype, read from the
        polar form of the norm.  For a unit u = [c, gamma; delta, d], u^-1
        is [d, -gamma; -delta, c], so the trace of v u^-1 is the polar form
        B(v, u) = a d + b c - alpha.delta - beta.gamma, with no product and
        no rank.  B is symmetric, and linear in v for a fixed u: a row or
        column, one side a single element, is read from half-code tables
        (_polar_reads) into the q-entry table of class ids, in blocks of
        READ_BLOCK.  Two arrays raise ValueError; V == U is class 0."""
        if np.ndim(V) == 0:
            V, U = U, V
        if np.ndim(U):
            raise ValueError("invariant_classes reads a row or a column: "
                             "one of V and U must be a single element")
        reads = self._polar_reads(U, self._trace_classes()[1])
        return blocked(READ_BLOCK, lambda Z: reads(Z) * (Z != U), V)

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
        if not isinstance(elements, list):
            raise ParseError("elements must be a list of digit rows")
        spec = field_for(q)
        expected = paige_loop_order(q)
        if order != expected or len(elements) != expected:
            raise ParseError(f"order {order} does not match the loop of q={q} "
                             f"(expected {expected})")
        try:
            elems = np.asarray(elements)
        except ValueError:
            elems = None        # ragged rows
        if elems is None or elems.shape != (expected, 8) or elems.dtype.kind not in "iu":
            i = next((i for i, row in enumerate(elements)
                      if not isinstance(row, list) or len(row) != 8
                      or any(type(x) is not int or not 0 <= x < q for x in row)), None)
            where = "" if i is None else f"element {i} is {elements[i]!r}: "
            raise ParseError(f"{where}elements must be rows of eight integer base-q digits")
        # indices are ranks, so only the canonical rows in their order will do
        loop = cls(spec)
        differ = np.flatnonzero(np.any(elems != loop.elems, axis=1))
        if differ.shape[0]:
            i = int(differ[0])
            raise ParseError(f"element {i} is {elems[i].tolist()}, where M*({q}) "
                             f"has {loop.lift(np.int64(i)).tolist()}: the elements are the "
                             f"unit matrices, identity first, then by ascending "
                             f"code (the smaller sign for odd q)")
        return loop

    def __repr__(self):
        return f"PaigeLoop(q={self.q}, order={self.n})"


def build_paige_loop(q: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> PaigeLoop:
    """Enumerate the loop of order q^3 (q^4 - 1) / gcd(2, q - 1) over GF(q)."""
    spec = field_for(q)
    n = paige_loop_order(q)
    if n > element_cap:
        raise CapExceeded(f"loop of q={q} has {n} elements, above the cap {element_cap}")
    return PaigeLoop(spec)
