"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Values are kept reduced modulo the N-th cyclotomic polynomial, so two
elements of the same field are equal iff their coefficient maps are equal;
elements of different fields are compared after lifting both to the lcm
order.  Everything is immutable and safe to share between threads.

No floating point anywhere in here: `to_complex` exists for the lossy CSV
renderer and for test oracles only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InternalCheckError

__all__ = ["Rat", "Cyclo", "root_of_unity", "cyclotomic_poly"]

# Exact rationals: always in lowest terms, denominator > 0.
Rat = Fraction

MAX_ORDER = 2**32 - 1


def _divisors(n: int) -> list[int]:
    small, big = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                big.append(n // d)
        d += 1
    return small + big[::-1]


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, ascending coefficients
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        if c % den[dd]:
            raise InternalCheckError("polynomial division is not exact")
        q = c // den[dd]
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    if any(num):
        raise InternalCheckError("polynomial division leaves a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1  # x^n - 1
    for d in _divisors(n):
        if d < n:
            num = _poly_divide_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


class _Reducer:
    """Per-order reduction data: x^k mod Phi_N for phi(N) <= k < N."""

    __slots__ = ("order", "deg", "_rows")

    def __init__(self, order: int):
        phi = cyclotomic_poly(order)
        self.order = order
        self.deg = len(phi) - 1
        # x^deg == -(low-order part of Phi); rows grown on demand
        first = {i: -c for i, c in enumerate(phi[:-1]) if c}
        self._rows: list[dict[int, int]] = [first]

    def row(self, k: int) -> dict[int, int]:
        d = self.deg
        while len(self._rows) <= k - d:
            prev = self._rows[-1]
            nxt: dict[int, int] = {}
            for e, c in prev.items():
                if e + 1 == d:
                    for e2, c2 in self._rows[0].items():
                        nxt[e2] = nxt.get(e2, 0) + c * c2
                else:
                    nxt[e + 1] = nxt.get(e + 1, 0) + c
            self._rows.append({e: c for e, c in nxt.items() if c})
        return self._rows[k - d]


@lru_cache(maxsize=None)
def _reducer(order: int) -> _Reducer:
    return _Reducer(order)


def _reduce(order: int, raw: dict[int, Fraction]) -> dict[int, Fraction]:
    red = _reducer(order)
    d = red.deg
    out: dict[int, Fraction] = {}
    for e, c in raw.items():
        if not c:
            continue
        e %= order
        if e < d:
            out[e] = out.get(e, 0) + c
        else:
            for e2, m in red.row(e).items():
                out[e2] = out.get(e2, 0) + c * m
    return {e: c for e, c in out.items() if c}


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Cyclo:
    """An element of Q(zeta_order) in reduced form.

    coeffs maps exponents in [0, phi(order)) to nonzero Fractions.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, Fraction] | None = None, *,
                 _reduced: bool = False):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"cyclotomic order {order} out of range")
        raw = {} if coeffs is None else coeffs
        if _reduced:
            self.coeffs = raw
        else:
            self.coeffs = _reduce(order, {e: _as_fraction(c) for e, c in raw.items()})
        self.order = order

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(x) -> "Cyclo":
        x = _as_fraction(x)
        return Cyclo(1, {0: x} if x else {}, _reduced=True)

    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo(1, {}, _reduced=True)

    # -- order reconciliation ------------------------------------------------

    def lift(self, order: int) -> "Cyclo":
        """The same value viewed in Q(zeta_order); self.order must divide order."""
        if order == self.order:
            return self
        k, r = divmod(order, self.order)
        if r:
            raise ValueError(f"{self.order} does not divide {order}")
        return Cyclo(order, {e * k: c for e, c in self.coeffs.items()})

    def _common(self, other: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        n = math.lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    # -- ring operations -----------------------------------------------------

    def _coerce(self, x) -> "Cyclo | None":
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclo.from_rational(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Cyclo(a.order, out, _reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.order, {e: -c for e, c in self.coeffs.items()}, _reduced=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.order == 1:  # rational scalar: no lifting needed
            if not other.coeffs:
                return Cyclo(self.order, {}, _reduced=True)
            s = other.coeffs[0]
            return Cyclo(self.order, {e: c * s for e, c in self.coeffs.items()},
                         _reduced=True)
        if self.order == 1:
            return other * self
        a, b = self._common(other)
        raw: dict[int, Fraction] = {}
        n = a.order
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = (e1 + e2) % n
                raw[e] = raw.get(e, 0) + c1 * c2
        return Cyclo(n, raw)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Cyclo.from_rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # equality crosses field orders; see key() for sorting

    def __bool__(self):
        return bool(self.coeffs)

    # -- structure -----------------------------------------------------------

    def conjugate(self) -> "Cyclo":
        """Image under zeta_N -> zeta_N^(-1) (complex conjugation)."""
        n = self.order
        return Cyclo(n, {(-e) % n: c for e, c in self.coeffs.items()})

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it lies in Q, else None."""
        if not self.coeffs:
            return Fraction(0)
        if set(self.coeffs) == {0}:
            return self.coeffs[0]
        return None

    def key(self) -> tuple:
        """Deterministic sorting key (not a value invariant across orders)."""
        return (self.order,
                tuple((e, c.numerator, c.denominator)
                      for e, c in sorted(self.coeffs.items())))

    # -- interchange ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order,
                "coeffs": [[e, c.numerator, c.denominator]
                           for e, c in sorted(self.coeffs.items())]}

    @staticmethod
    def from_json(obj: dict) -> "Cyclo":
        return Cyclo(obj["order"],
                     {e: Fraction(num, den) for e, num, den in obj["coeffs"]})

    def to_complex(self) -> complex:
        """Lossy float embedding; for CSV rendering and test oracles only."""
        tau = 2.0 * math.pi / self.order
        out = 0j
        for e, c in self.coeffs.items():
            out += float(c) * complex(math.cos(tau * e), math.sin(tau * e))
        return out

    def __repr__(self):
        r = self.as_rational()
        if r is not None:
            return f"Cyclo({r})"
        terms = []
        for e, c in sorted(self.coeffs.items()):
            if e == 0:
                terms.append(f"{c}")
            elif c == 1:
                terms.append(f"z{self.order}^{e}")
            else:
                terms.append(f"{c}*z{self.order}^{e}")
        return "Cyclo(" + " + ".join(terms) + ")"


def root_of_unity(order: int, exponent: int = 1) -> Cyclo:
    """zeta_order^exponent as an exact cyclotomic value."""
    if order < 1:
        raise ValueError("order must be positive")
    return Cyclo(order, {exponent % order: Fraction(1)})
