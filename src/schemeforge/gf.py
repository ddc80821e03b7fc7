"""Exact arithmetic in small finite fields GF(p^r), as table lookups.

An element of GF(p^r) is its table index, an integer in [0, q): its base-p
digits, lowest degree first, are the coefficients of the residue polynomial
modulo a fixed monic irreducible of degree r.  Construction builds full
q x q addition and multiplication tables, the latter by one vectorized
product over all pairs of digit rows, and reads a multiplicative generator,
the log/antilog tables and the inverses from the products.  Every
arithmetic operation afterwards is an exact lookup on index arrays.
Supported orders are q = p^r <= 256 with r <= 8.
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


# polynomial helpers over GF(p); coefficients are tuples, ascending degree


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mod(num: tuple[int, ...], den: tuple[int, ...], p: int) -> tuple[int, ...]:
    num = list(_poly_trim(num))
    den = _poly_trim(den)
    dd = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    while len(num) - 1 >= dd and num:
        shift = len(num) - 1 - dd
        factor = (num[-1] * lead_inv) % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
        while num and num[-1] == 0:
            num.pop()
    return tuple(num)


def _poly_is_irreducible(c: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree up to deg(c)//2."""
    c = _poly_trim(c)
    r = len(c) - 1
    if r < 1:
        return False
    if c[0] == 0:  # divisible by x
        return r == 1
    for d in range(1, r // 2 + 1):
        for low in range(p ** d):
            g = []
            m = low
            for _ in range(d):
                g.append(m % p)
                m //= p
            g.append(1)
            if not _poly_mod(c, tuple(g), p):
                return False
    return True


def _lex_smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    if r == 1:
        return (0, 1)  # the polynomial x; any monic degree-1 works, this is smallest
    for low in range(p ** r):
        g = []
        m = low
        for _ in range(r):
            g.append(m % p)
            m //= p
        g.append(1)
        if _poly_is_irreducible(tuple(g), p):
            return tuple(g)
    raise UnsupportedField(f"no irreducible of degree {r} over GF({p})")  # pragma: no cover


class FieldSpec:
    """Tables-backed GF(p^r): add_t, sub_t, mul_t are q x q, neg_t, inv_t
    and log_t have one entry per element, and exp_t[i] is generator^i.

    mul_t holds every product of two digit rows x and y, computed as
    sum_j y_j (x t^j): each x t^j is the previous one shifted up one degree,
    its top digit reduced by the monic modulus.  The generator is the
    smallest x none of whose powers x^1 .. x^(q-2) is 1.
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
        self.modulus = BUILTIN_MODULI.get(q) or _lex_smallest_irreducible(p, r)
        self._build_tables()

    def _build_tables(self):
        p, r, q = self.p, self.r, self.q
        pw = p ** np.arange(r, dtype=np.int64)
        digs = (np.arange(q)[:, None] // pw) % p
        self.add_t = (((digs[:, None, :] + digs[None, :, :]) % p) @ pw).astype(np.uint8)
        self.neg_t = (((p - digs) % p) @ pw).astype(np.uint8)
        self.sub_t = self.add_t[:, self.neg_t]

        # shifted[j] holds the digit rows of x t^j: x t^(j-1) shifted up one
        # degree, its top digit times the low modulus digits subtracted
        low = np.asarray(self.modulus[:r], dtype=np.int64)
        shifted = np.zeros((r, q, r), dtype=np.int64)
        shifted[0] = digs
        for j in range(1, r):
            shifted[j, :, 1:] = shifted[j - 1, :, :-1]
            shifted[j] = (shifted[j] - shifted[j - 1, :, -1:] * low) % p
        prod = (digs @ shifted.transpose(1, 0, 2)) % p    # [x, y] = sum_j y_j x t^j
        self.mul_t = (prod @ pw).astype(np.uint8)

        # multiplicative structure: row k - 1 of powers holds x^k of every x != 0
        nz = np.arange(1, q)
        powers = np.empty((q - 1, q - 1), dtype=np.int64)
        powers[0] = nz
        for k in range(1, q - 1):
            powers[k] = self.mul_t[powers[k - 1], nz]
        gen = 1 + int(np.argmax((powers[:-1] != 1).all(axis=0)))
        self.generator = gen
        exp = np.append(1, powers[:-1, gen - 1])
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
    """Shared FieldSpec for order q with the built-in modulus."""
    p, r = factor_prime_power(q)
    return FieldSpec(p, r)

