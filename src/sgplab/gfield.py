"""Arithmetic in GF(2^e) with a fixed primitive element.

Elements are small integer codes: 0 is the zero of the field, and code
1 + k stands for gamma^k where gamma = x mod the frozen modulus below.
All arithmetic runs on Zech logarithms; the polynomial representation is
used only to build the tables (and as an independent oracle in the tests).

The moduli are frozen so that every matrix and every root-of-unity value
in the suite is bit-reproducible.  They form a compatible chain: for d | e
the map gamma_d -> gamma_e^((2^e-1)/(2^d-1)) is a field embedding, which
is exactly what `subfield_embed` relies on.  (The chain coincides with the
Conway polynomials for these degrees.)

A FieldCtx is immutable once built; contexts and element codes can be
shared freely across threads.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import InternalCheckError

__all__ = [
    "PRIMITIVE_POLYS", "ZERO", "FieldCtx", "field_ctx",
    "subfield_embed", "frobenius",
]

# e -> modulus bitmask, LSB = constant term.
PRIMITIVE_POLYS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1011011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10001101111,
    11: 0b100000000101,
    12: 0b1000011101011,
    13: 0b10000000011011,
    14: 0b100000010101001,
    15: 0b1000000000110101,
    16: 0b10000000000101101,
}

ZERO = 0  # the distinguished zero code


class FieldCtx:
    """GF(2^e) under the frozen primitive modulus for e.

    Codes: 0 = field zero, 1 + k = gamma^k for 0 <= k < q - 1.
    """

    def __init__(self, e: int):
        if not 1 <= e <= 16:
            raise ValueError(f"field degree e={e} out of range 1..16")
        self.e = e
        self.q = 1 << e
        self.modulus = PRIMITIVE_POLYS[e]
        q = self.q
        # discrete log/exp between poly masks and logs
        exp = [0] * (q - 1)
        log = [-1] * q
        x = 1
        for k in range(q - 1):
            exp[k] = x
            log[x] = k
            x <<= 1
            if x & q:
                x ^= self.modulus
        if x != 1:
            raise InternalCheckError("x is not primitive for the frozen modulus")
        self._exp = exp
        self._log = log
        # zech[k] = log(gamma^k + 1); -1 marks gamma^k + 1 = 0 (k = 0 in char 2)
        self.zech = [(-1 if exp[k] == 1 else log[exp[k] ^ 1]) for k in range(q - 1)]
        self.one = 1
        self.gamma = 2 if q > 2 else 1

    # -- scalar arithmetic on codes -------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == ZERO:
            return b
        if b == ZERO:
            return a
        ka, kb = a - 1, b - 1
        if ka > kb:
            ka, kb = kb, ka
        z = self.zech[kb - ka]
        if z < 0:
            return ZERO
        return 1 + (ka + z) % (self.q - 1)

    def mul(self, a: int, b: int) -> int:
        if a == ZERO or b == ZERO:
            return ZERO
        return 1 + (a - 1 + b - 1) % (self.q - 1)

    def inv(self, a: int) -> int:
        if a == ZERO:
            raise ZeroDivisionError("inverse of the zero field element")
        return 1 + (-(a - 1)) % (self.q - 1)

    def pow(self, a: int, n: int) -> int:
        if a == ZERO:
            if n <= 0:
                raise ZeroDivisionError("0 to a non-positive power")
            return ZERO
        return 1 + ((a - 1) * n) % (self.q - 1)

    def trace_bit(self, a: int) -> int:
        """Absolute trace GF(q) -> GF(2), as 0/1."""
        t = ZERO
        b = a
        for _ in range(self.e):
            t = self.add(t, b)
            b = self.mul(b, b)
        return 0 if t == ZERO else 1

    def poly_of(self, a: int) -> int:
        """Polynomial bitmask of a code (0 for zero)."""
        return 0 if a == ZERO else self._exp[a - 1]

    def code_of_poly(self, mask: int) -> int:
        if mask == 0:
            return ZERO
        return 1 + self._log[mask]

    # -- vectorized tables (built lazily; used by the group engine) -----------

    @cached_property
    def lut_add(self) -> np.ndarray:
        return np.array([[self.add(a, b) for b in range(self.q)]
                         for a in range(self.q)], dtype=np.uint8)

    @cached_property
    def lut_mul(self) -> np.ndarray:
        return np.array([[self.mul(a, b) for b in range(self.q)]
                         for a in range(self.q)], dtype=np.uint8)

    def lut_frob(self, f: int) -> np.ndarray:
        """Table of a -> a^(2^f) on codes."""
        return np.array([frobenius(self, a, f) for a in range(self.q)],
                        dtype=np.uint8)

    def __repr__(self):
        return f"FieldCtx(GF(2^{self.e}), modulus=0b{self.modulus:b})"


@lru_cache(maxsize=None)
def field_ctx(e: int) -> FieldCtx:
    return FieldCtx(e)


def subfield_embed(small: FieldCtx, big: FieldCtx, a: int) -> int:
    """Image of a under the embedding gamma_small -> gamma_big^((Q-1)/(q-1))."""
    if big.e % small.e:
        raise ValueError(f"GF(2^{small.e}) is not a subfield of GF(2^{big.e})")
    if a == ZERO:
        return ZERO
    step = (big.q - 1) // (small.q - 1)
    return 1 + (a - 1) * step % (big.q - 1)


def frobenius(ctx: FieldCtx, a: int, f: int) -> int:
    """a^(2^f)."""
    if a == ZERO:
        return ZERO
    return 1 + ((a - 1) * pow(2, f % ctx.e, ctx.q - 1)) % (ctx.q - 1)
