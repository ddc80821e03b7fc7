"""Exact arithmetic in small finite fields GF(p^r), as table lookups.

An element of GF(p^r) is its table index, an integer in [0, q): its base-p
digits, lowest degree first, are the coefficients of the residue polynomial
modulo a monic irreducible of degree r, built in for some q, else the first
t^r + low(t), low = 0, 1, .., whose residues have no zero divisors.  One
vectorized product over blocks of digit rows tests each candidate modulus
and builds the q x q multiplication table; the generator, the log/antilog
tables and the inverses are read from the products.  Every arithmetic
operation afterwards is an exact lookup on index arrays.  Supported orders
are q = p^r <= 256 with r <= 8.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import UnsupportedField

MAX_ORDER = 256
MAX_DEGREE = 8

# Monic irreducible moduli for the common extension orders, coefficients
# c0..cr by ascending degree (Conway polynomials for these orders).  A prime
# field needs none: its elements are constants, so no product is reduced.
BUILTIN_MODULI: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for f in range(2, int(math.isqrt(n)) + 1):
        if n % f == 0:
            return False
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, r) with p prime, or raise UnsupportedField."""
    if q < 2 or q > MAX_ORDER:
        raise UnsupportedField(f"field order must lie in [2, {MAX_ORDER}], got {q}")
    p = next(f for f in range(2, q + 1) if q % f == 0)    # the least divisor is prime
    r = 0
    m = q
    while m % p == 0:
        m //= p
        r += 1
    if m != 1:
        raise UnsupportedField(f"{q} is not a prime power")
    return p, r


def _products(xs: np.ndarray, ys: np.ndarray, low: np.ndarray, p: int) -> np.ndarray:
    """Digit rows [x, y] of the products x y modulo the monic t^r + low(t),
    for every digit row x of xs and y of ys: x y = sum_j x_j (y t^j), where
    each y t^j is y t^(j-1) shifted up one degree, its top digit times the
    low modulus digits subtracted."""
    r = len(low)
    shifted = np.zeros((r, len(ys), r), dtype=ys.dtype)    # [j, y] = y t^j
    shifted[0] = ys
    for j in range(1, r):
        shifted[j, :, 1:] = shifted[j - 1, :, :-1]
        shifted[j] = (shifted[j] - shifted[j - 1, :, -1:] * low) % p
    # one float64 product is exact here, as no sum exceeds r (p-1)^2 <= 62500,
    # and it is several times faster than an integer one
    prod = xs @ shifted.reshape(r, -1).astype(np.float64)
    return prod.astype(xs.dtype).reshape(len(xs), len(ys), r) % p


def _smallest_modulus(digs: np.ndarray, p: int) -> tuple[int, ...]:
    """The monic t^r + low(t) of least low, digits read lowest first, whose
    residues have no zero divisors.  A reducible one has a factor of degree
    1 .. r/2, and that factor times its cofactor is zero, so it is enough to
    multiply every nonzero x by every y in [p, p^(r//2 + 1))."""
    r = digs.shape[1]
    if r == 1:
        return (0, 1)    # t: a degree-1 modulus has no factor to rule out
    small = digs[p:p ** (r // 2 + 1)]
    # the search ends: there is an irreducible of every degree over GF(p)
    low = next(low for low in digs if _products(digs[1:], small, low, p).any(axis=2).all())
    return (*low.tolist(), 1)


class FieldSpec:
    """Tables-backed GF(p^r): add_t, sub_t, mul_t are q x q, neg_t, inv_t
    and log_t have one entry per element, and exp_t[i] is generator^i.

    mul_t holds the _products of all digit rows modulo the built-in modulus
    of q, or else the _smallest_modulus.  The generator is the smallest x
    none of whose powers x^1 .. x^(q-2) is 1.
    """

    def __init__(self, p: int, r: int = 1):
        if not is_prime(p):
            raise UnsupportedField(f"characteristic {p} is not prime")
        if not (1 <= r <= MAX_DEGREE):
            raise UnsupportedField(f"extension degree must lie in [1, {MAX_DEGREE}], got {r}")
        q = p ** r
        if q > MAX_ORDER:
            raise UnsupportedField(f"field order {q} exceeds {MAX_ORDER}")
        self.p = p
        self.r = r
        self.q = q
        # int32 digits divide faster than int64 ones, and no sum below overflows
        pw = p ** np.arange(r, dtype=np.int32)
        digs = (np.arange(q, dtype=np.int32)[:, None] // pw) % p
        self.modulus = BUILTIN_MODULI.get(q) or _smallest_modulus(digs, p)
        self.add_t = (((digs[:, None, :] + digs[None, :, :]) % p) @ pw).astype(np.uint8)
        self.neg_t = (((p - digs) % p) @ pw).astype(np.uint8)
        self.sub_t = self.add_t[:, self.neg_t]
        low = np.asarray(self.modulus[:r], dtype=np.int32)
        self.mul_t = (_products(digs, digs, low, p) @ pw).astype(np.uint8)

        # multiplicative structure: row k - 1 of powers holds x^k of every x != 0
        nz = np.arange(1, q)
        powers = np.empty((q - 1, q - 1), dtype=np.int64)
        powers[0] = nz
        for k in range(1, q - 1):
            powers[k] = self.mul_t[powers[k - 1], nz]
        gen = 1 + int(np.argmax((powers[:-1] != 1).all(axis=0)))
        self.generator = gen
        exp = np.concatenate(([1], powers[:-1, gen - 1]))
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self.exp_t = exp.astype(np.uint8)
        self.log_t = log  # log[0] is meaningless; every user masks zero first
        inv = np.zeros(q, dtype=np.uint8)
        inv[exp] = exp[(-np.arange(q - 1)) % (q - 1)]
        self.inv_t = inv  # inv[0] stays 0; every user masks zero first

    def __repr__(self):
        return f"FieldSpec(p={self.p}, r={self.r}, modulus={list(self.modulus)})"


@lru_cache(maxsize=None)
def field_for(q: int) -> FieldSpec:
    """Shared FieldSpec for order q, with its built-in or searched modulus."""
    p, r = factor_prime_power(q)
    return FieldSpec(p, r)

