"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value of order N is held lazily, as integer numerators over one positive
integer denominator in the group ring Z[x]/(x^N - 1), with x standing for
zeta_N.  Sums, products, conjugation (x -> x^-1) and lifting to a multiple
order (x -> x^(M/N)) are ring maps there, so they touch only exponents and
ints.  The form is not unique: the reduction modulo the N-th cyclotomic
polynomial, and the turn to `Fraction`, happen once per value, when its
canonical `coeffs` are first read (by `==`, `bool`, `as_rational`, `repr`,
`to_complex`, or the canonical rows of a character table built from
values).  Two elements of the same field are equal iff their canonical
coefficient maps are equal; elements of different fields are compared
after lifting both to the lcm order.  Operands of equal order and equal
denominator are not lifted at all: their stored dicts are read as they
are.  Values are immutable (the canonical form is only cached) and safe
to share between threads.

Many values at once are reduced as integer rows instead: a matrix of
exponent counts times the fixed int64 reduction matrix R_N
(`_canonical_rows`), which gives the canonical rows of a computed
character table and the batched alpha sums.

No floating point anywhere in here, nor in `PolyQ`, the one type of every
closed form: `to_complex` exists for the lossy CSV renderer and test oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InternalCheckError

__all__ = ["Cyclo", "root_of_unity", "cyclotomic_poly", "PolyQ"]

MAX_ORDER = 2**32 - 1


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, increasing."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _divide_binomial(poly: list[int], k: int) -> list[int]:
    """poly / (x^k - 1), ascending coefficients; the division must be exact."""
    m = len(poly) - k
    s = [0] * k  # s[k + i] is quotient coefficient i: q_i = q_(i-k) - poly_i
    for c in poly[:m]:
        s.append(s[-k] - c)
    if s[m:] != poly[m:]:
        raise InternalCheckError("polynomial division leaves a remainder")
    return s[k:]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending:
    the product of (x^(n/d) - 1)^mu(d) over the squarefree divisors d of n.
    The mu = +1 binomials are multiplied in first, so that each division by
    a mu = -1 binomial is exact."""
    up, down = [1], []  # squarefree divisors with mu = +1, mu = -1
    for r in _prime_factors(n):
        up, down = up + [d * r for d in down], down + [d * r for d in up]
    poly = [1]
    for d in up:
        k = n // d
        poly = [a - b for a, b in zip([0] * k + poly, poly + [0] * k)]
    for d in down:
        poly = _divide_binomial(poly, n // d)
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_tail(order: int) -> tuple[int, tuple]:
    """phi(order) and the nonzero (i, c) of Phi_order below its leading term."""
    phi = cyclotomic_poly(order)
    return len(phi) - 1, tuple((i, c) for i, c in enumerate(phi[:-1]) if c)


def _canonical(order: int, num: dict, den: int) -> dict[int, Fraction]:
    """num/den reduced modulo Phi_order: exponents below phi(order)."""
    deg, tail = _phi_tail(order)
    if all(e < deg for e in num):
        low = num.items()
    else:
        acc = [0] * order
        for e, c in num.items():
            acc[e] = c
        # x^e = x^(e-deg) * x^deg and x^deg = -sum(c_i x^i), top exponent first
        for e in range(order - 1, deg - 1, -1):
            c = acc[e]
            if c:
                base = e - deg
                for i, p in tail:
                    acc[base + i] -= c * p
        low = enumerate(acc[:deg])
    return {e: Fraction(c, den) for e, c in low if c}


@lru_cache(maxsize=None)
def _reduction(n: int) -> np.ndarray:
    """R_n, the read-only n x phi(n) int64 matrix whose row e holds the
    canonical coefficients of zeta_n^e (`_canonical`)."""
    R = np.zeros((n, len(cyclotomic_poly(n)) - 1), dtype=np.int64)
    for e in range(n):
        for k, c in _canonical(n, {e: 1}, 1).items():
            R[e, k] = int(c)
    R.flags.writeable = False
    return R


def _canonical_rows(M: np.ndarray) -> np.ndarray:
    """M @ R_n for an integer matrix M of exponent counts with n columns:
    row a holds the canonical coefficients of sum_e M[a, e] zeta_n^e,
    those `Cyclo` gives it.  The one map from exponent counts to canonical
    coefficients.  Exact in int64: every partial sum is at most max|M|
    times the largest column sum of |R_n|, which must stay below 2^63.
    Both factors are Python ints, since |INT64_MIN| and a column sum can
    wrap in int64."""
    R = _reduction(M.shape[1])
    m = max(int(M.max(initial=0)), -int(M.min(initial=0)))
    if m * max((sum(map(abs, col)) for col in R.T.tolist()), default=0) >= 1 << 63:
        raise InternalCheckError(f"canonical rows of order {M.shape[1]} overflow int64")
    return M @ R


def _num_den(x) -> tuple[int, int]:
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _lowest(num: dict, den: int) -> tuple[dict, int]:
    """num/den with the common factor of den and all numerators taken out."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            return {e: c // g for e, c in num.items()}, den // g
    return num, den


def _make(order: int, num: dict, den: int) -> "Cyclo":
    """A Cyclo from exponents in [0, order), nonzero ints and den > 0."""
    out = object.__new__(Cyclo)
    out.order, out._coeffs = order, None
    out._num, out._den = _lowest(num, den)
    return out


class Cyclo:
    """An element of Q(zeta_order).

    Stored as `_num / _den`: `_num` maps exponents in [0, order) to nonzero
    ints, `_den` is a positive int.  `coeffs` is the canonical form: it maps
    exponents in [0, phi(order)) to nonzero Fractions.  Sums and products
    lift each operand to the lcm order (and a sum to the lcm denominator);
    an operand already there is not lifted, and its `_num` is read in place,
    so a sum starts from a copy of it, never from the shared dict.
    """

    __slots__ = ("order", "_num", "_den", "_coeffs")

    def __init__(self, order: int, coeffs: dict | None = None):
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"cyclotomic order {order} out of range")
        terms = [(e % order, *_num_den(c)) for e, c in (coeffs or {}).items()]
        den = math.lcm(1, *(d for _, _, d in terms))
        num: dict[int, int] = {}
        for e, a, d in terms:
            num[e] = num.get(e, 0) + a * (den // d)
        self.order, self._coeffs = order, None
        self._num, self._den = _lowest({e: c for e, c in num.items() if c}, den)

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """The canonical form, computed on first use and cached."""
        c = self._coeffs
        if c is None:
            c = self._coeffs = _canonical(self.order, self._num, self._den)
        return c

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(x) -> "Cyclo":
        a, d = _num_den(x)
        return _make(1, {0: a} if a else {}, d)

    @staticmethod
    def zero() -> "Cyclo":
        return _make(1, {}, 1)

    # -- order reconciliation ------------------------------------------------

    def lift(self, order: int) -> "Cyclo":
        """The same value viewed in Q(zeta_order); self.order must divide order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        k = order // self.order
        return _make(order, {e * k: c for e, c in self._num.items()}, self._den)

    # -- ring operations -----------------------------------------------------

    def _scaled(self, a: int, d: int) -> "Cyclo":
        """self * a / d for ints a and d > 0."""
        if not a:
            return _make(self.order, {}, 1)
        return _make(self.order, {e: c * a for e, c in self._num.items()}, self._den * d)

    def _terms(self, order: int, den: int, sign: int = 1) -> dict:
        """sign * `_num` lifted to Q(zeta_order) over the denominator den: the
        stored dict itself, not a copy, when nothing needs lifting."""
        if sign == 1 and order == self.order and den == self._den:
            return self._num
        k, f = order // self.order, sign * (den // self._den)
        return {e * k: c * f for e, c in self._num.items()}

    def _sum(self, other, sign: int):
        """self + sign * other, in the lcm order over the lcm denominator."""
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        elif not isinstance(other, Cyclo):
            return NotImplemented
        n = self.order if self.order == other.order else math.lcm(self.order, other.order)
        den = self._den if self._den == other._den else math.lcm(self._den, other._den)
        out = dict(self._terms(n, den))  # a copy: the stored dict is shared
        for e, c in other._terms(n, den, sign).items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _make(n, out, den)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(*_num_den(other))
        if not isinstance(other, Cyclo):
            return NotImplemented
        if other.order == 1:  # rational scalar: no lifting needed
            return self._scaled(other._num.get(0, 0), other._den)
        if self.order == 1:
            return other * self
        n = self.order if self.order == other.order else math.lcm(self.order, other.order)
        bterms = other._terms(n, other._den).items()
        out: dict[int, int] = {}
        for e1, c1 in self._terms(n, self._den).items():
            for e2, c2 in bterms:
                e = e1 + e2
                if e >= n:
                    e -= n
                out[e] = out.get(e, 0) + c1 * c2
        return _make(n, {e: c for e, c in out.items() if c}, self._den * other._den)

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
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        elif not isinstance(other, Cyclo):
            return NotImplemented
        n = math.lcm(self.order, other.order)
        return self.lift(n).coeffs == other.lift(n).coeffs

    __hash__ = None  # equality crosses field orders: no order-free hash agrees with it

    def __bool__(self):
        return bool(self._num) and bool(self.coeffs)

    # -- structure -----------------------------------------------------------

    def conjugate(self) -> "Cyclo":
        """Image under zeta_N -> zeta_N^(-1) (complex conjugation)."""
        n = self.order
        return _make(n, {-e % n: c for e, c in self._num.items()}, self._den)

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it lies in Q, else None."""
        coeffs = self.coeffs
        if not coeffs:
            return Fraction(0)
        if set(coeffs) == {0}:
            return coeffs[0]
        return None

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
    """zeta_order^exponent as an exact cyclotomic value, built in stored form."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"cyclotomic order {order} out of range")
    return _make(order, {exponent % order: 1}, 1)



class PolyQ:
    """A polynomial in one indeterminate, q, with exact rational coefficients;
    a constant equals, and hashes like, an int or Fraction of its value."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | int | Fraction = 0):
        if not isinstance(coeffs, dict):
            coeffs = {0: coeffs}
        coeffs = {e: Fraction(c) for e, c in coeffs.items()}    # None raises, not 0
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    @staticmethod
    def q(exp: int = 1) -> "PolyQ":
        return PolyQ({exp: 1})

    def __add__(self, other):
        other = _as_poly(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return PolyQ(out)

    __radd__ = __add__

    def __neg__(self):
        return PolyQ({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return PolyQ(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return math.prod([self] * k, start=PolyQ(1))

    def __truediv__(self, k):
        return PolyQ({e: c / k for e, c in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyQ(other)
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(tuple(sorted(self.coeffs.items())))

    def eval(self, q) -> Fraction:
        return sum((c * Fraction(q) ** e for e, c in self.coeffs.items()),
                   Fraction(0))

    def eval_int(self, q) -> int:
        v = self.eval(q)
        if v.denominator != 1:
            raise InternalCheckError(f"{self} is not integral at q={q}")
        return int(v)

    def to_json(self) -> dict:
        return {str(e): [c.numerator, c.denominator]
                for e, c in sorted(self.coeffs.items())}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e, c in sorted(self.coeffs.items(), reverse=True):
            base = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
            if c == 1 and base:
                terms.append(base)
            elif base:
                terms.append(f"{c}*{base}")
            else:
                terms.append(str(c))
        return " + ".join(terms)


def _as_poly(x) -> PolyQ:
    return x if isinstance(x, PolyQ) else PolyQ(x)
