"""Exact arithmetic in small finite fields GF(p^r), as table lookups.

An element of GF(p^r) is its table index, an integer in [0, q): its base-p
digits, lowest degree first, are the coefficients of the residue polynomial
modulo a fixed monic irreducible of degree r.  Construction precomputes
log/antilog tables from a multiplicative generator and full q x q operation
tables, so every arithmetic operation afterwards is an exact lookup, on
whole index arrays through the numpy tables or on one index through the
integer methods.  Supported orders are q = p^r <= 256 with r <= 8.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DivisionByZero, UnsupportedField

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
    """Tables-backed GF(p^r).

    The numpy tables (add_t, mul_t, ...) take index arrays by fancy
    indexing; the integer methods (add, mul, ...) take and return single
    indices in [0, q), looked up in the same tables.
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

    # construction

    def _digits(self, x: int) -> tuple[int, ...]:
        ds = []
        for _ in range(self.r):
            ds.append(x % self.p)
            x //= self.p
        return tuple(ds)

    def _undigits(self, ds) -> int:
        x = 0
        for c in reversed(ds):
            x = x * self.p + int(c)
        return x

    def _mul_slow(self, x: int, y: int) -> int:
        """Polynomial product with reduction; used only to bootstrap the tables."""
        a, b = self._digits(x), self._digits(y)
        conv = [0] * (2 * self.r - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] = (conv[i + j] + ai * bj) % self.p
        red = _poly_mod(tuple(conv), self.modulus, self.p)
        return self._undigits(red + (0,) * (self.r - len(red)))

    def _build_tables(self):
        p, r, q = self.p, self.r, self.q
        digs = np.zeros((q, r), dtype=np.int64)
        vals = np.arange(q)
        for k in range(r):
            digs[:, k] = vals % p
            vals = vals // p
        pw = p ** np.arange(r, dtype=np.int64)
        self.add_t = (((digs[:, None, :] + digs[None, :, :]) % p) @ pw).astype(np.uint8)
        self.neg_t = (((p - digs) % p) @ pw).astype(np.uint8)
        self.sub_t = self.add_t[:, self.neg_t]

        # multiplicative structure from a generator
        if q == 2:
            gen = 1
        else:
            gen = None
            for cand in range(2, q):
                acc, k = cand, 1
                while acc != 1:
                    acc = self._mul_slow(acc, cand)
                    k += 1
                if k == q - 1:
                    gen = cand
                    break
            if gen is None:  # pragma: no cover - generator always exists
                raise UnsupportedField(f"no multiplicative generator found for GF({q})")
        self.generator = gen
        exp = np.zeros(max(q - 1, 1), dtype=np.int64)
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            acc = self._mul_slow(acc, gen)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self.exp_t = exp.astype(np.uint8)
        self.log_t = log  # log[0] is meaningless; every user masks zero first

        mul = np.zeros((q, q), dtype=np.uint8)
        nz = np.arange(1, q)
        mul[1:, 1:] = self.exp_t[(log[nz][:, None] + log[nz][None, :]) % (q - 1)]
        self.mul_t = mul
        inv = np.zeros(q, dtype=np.uint8)
        inv[exp] = exp[(-np.arange(q - 1)) % (q - 1)]
        self.inv_t = inv  # inv[0] stays 0; scalar paths raise before using it

    # integer-level arithmetic

    def _check(self, *xs: int):
        for x in xs:
            if not (0 <= x < self.q):
                raise ValueError(f"encoding {x} outside [0, {self.q})")

    def add(self, x: int, y: int) -> int:
        self._check(x, y)
        return int(self.add_t[x, y])

    def sub(self, x: int, y: int) -> int:
        self._check(x, y)
        return int(self.sub_t[x, y])

    def mul(self, x: int, y: int) -> int:
        self._check(x, y)
        return int(self.mul_t[x, y])

    def neg(self, x: int) -> int:
        self._check(x)
        return int(self.neg_t[x])

    def inv(self, x: int) -> int:
        self._check(x)
        if x == 0:
            raise DivisionByZero(f"zero has no inverse in GF({self.q})")
        return int(self.inv_t[x])

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        self._check(x)
        if e < 0:
            return self.pow(self.inv(x), -e)
        if x == 0:
            return 1 if e == 0 else 0
        if self.q == 2:
            return 1
        return int(self.exp_t[(int(self.log_t[x]) * e) % (self.q - 1)])

    def __repr__(self):
        return f"FieldSpec(p={self.p}, r={self.r}, modulus={list(self.modulus)})"


@lru_cache(maxsize=None)
def field_for(q: int) -> FieldSpec:
    """Shared FieldSpec for order q with the built-in modulus."""
    p, r = factor_prime_power(q)
    return FieldSpec(p, r)

