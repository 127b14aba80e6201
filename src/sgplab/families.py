"""Parametric (polynomial-in-q) character data and closed forms.

This module carries the families that the engine checks concrete tables
against: the SL2(q) table for even q, the wreath-product degree list, the
index-2 splitting rule and total degree for the twisted Sp2(q^2) extension,
the Suzuki degree list, the Sp4(q) total/max degree facts, and the exact
root-of-unity sums behind the parabolic inner product.  Group orders and
the tau_H(1) of maximal rows are read from `groups.closed_forms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chartab import Character, CharTable
from .errors import InternalCheckError
from .exactnum import Cyclo, PolyQ, _canonical_rows, root_of_unity
from .groups import (FinGroup, build_group, closed_forms, conjugacy_classes,
                     element_order, element_powers, suzuki_r)

__all__ = [
    "PolyQ", "DegreeRow", "DegreeSpec", "AlphaParams",
    "sl2_table", "wreath_degree_spec", "ext_degree_spec", "ext_split_rule",
    "ext_total_degree", "suzuki_degree_spec", "sp4_degree_facts",
    "alpha_sum", "alpha_sums", "parabolic_inner_product",
]


_Q = PolyQ.q()


@dataclass(frozen=True)
class DegreeRow:
    label: str
    degree: PolyQ
    multiplicity: PolyQ


@dataclass(frozen=True)
class DegreeSpec:
    """A family's degree/multiplicity list, polynomial in q."""

    rows: tuple
    order_poly: PolyQ

    def degrees_at(self, q) -> list:
        out = []
        for row in self.rows:
            d = row.degree.eval_int(q)
            m = row.multiplicity.eval_int(q)
            if m < 0:
                raise InternalCheckError(f"negative multiplicity in {row.label}")
            out.extend([d] * m)
        return sorted(out)

    def total_degree(self, q) -> int:
        return sum(row.degree.eval_int(q) * row.multiplicity.eval_int(q)
                   for row in self.rows)

    def sum_degree_squares(self, q) -> int:
        return sum(row.degree.eval_int(q) ** 2 * row.multiplicity.eval_int(q)
                   for row in self.rows)

    def to_json(self) -> list:
        return [[row.label, row.degree.to_json(), row.multiplicity.to_json()]
                for row in self.rows]


# -- SL2(q), q even: the table built from closed formulas --------------------


def _identify_sl2_classes(G: FinGroup):
    """Map each class of an SL2(q)-shaped group onto the labels 1/c/a^t/b^m."""
    cd = conjugacy_classes(G)
    if G.ops.dim != 2:
        raise InternalCheckError(f"{G.label} is not an SL2-shaped group")
    ctx = G.ops.ctx
    q = ctx.q

    # a = diag(gamma, gamma^-1) for the a-family, b the first key of order
    # q + 1 for the b-family; their powers come from one element_powers call
    a = G.ops.pack_one([[ctx.gamma, 0], [0, ctx.inv(ctx.gamma)]])
    b = next(key for key in G.keys if element_order(G.ops, key) == q + 1)
    _, powers = element_powers(G.ops, [a, b])
    at = [cd.class_of[G.index_of(pw)] for pw in powers]
    torus = {int(at[t][0]): t for t in range(1, (q - 2) // 2 + 1)}
    bpow = {int(at[m][1]): m for m in range(1, q // 2 + 1)}

    labels = []
    for j in range(len(cd)):
        if j == cd.identity_class:
            labels.append(("1", 0))
        elif cd.orders[j] == 2:
            labels.append(("c", 0))
        elif j in torus:
            labels.append(("a", torus[j]))
        elif j in bpow:
            labels.append(("b", bpow[j]))
        else:
            raise InternalCheckError("unclassified SL2 conjugacy class")
    return cd, labels, q


def _root(m: int, e: int) -> Cyclo:
    """zeta_m^e at its own order: zeta_(m/g)^(e/g), g = gcd(m, e)."""
    g = math.gcd(m, e)
    return root_of_unity(m // g, e // g)


def sl2_table(q: int, group: FinGroup | None = None) -> CharTable:
    """The SL2(q) character table for even q, from the closed formulas.

    Each root of unity is written at its own order (`_root`), which divides
    that of its class, as `CharTable` requires.  `group` may be any
    enumerated copy on 2x2 operations (e.g. the index-2 subgroup of the
    twisted extension).
    """
    e = q.bit_length() - 1
    if q < 4 or (1 << e) != q:
        raise ValueError(f"sl2_table needs an even prime power q >= 4, got {q}")
    G = group if group is not None else build_group(f"sl2:{q}")
    cd, labels, q2 = _identify_sl2_classes(G)
    if q2 != q:
        raise ValueError(f"group is SL2({q2}), not SL2({q})")

    def row(name, fn):
        return Character(G, tuple(fn(kind, t) for kind, t in labels), name)

    chars = [row("Tr", lambda kind, t: Cyclo.from_rational(1))]

    def psi(kind, t):
        return Cyclo.from_rational({"1": q, "c": 0, "a": 1, "b": -1}[kind])

    chars.append(row("psi", psi))
    for s in range(1, (q - 2) // 2 + 1):
        def chi(kind, t, s=s):
            if kind == "1":
                return Cyclo.from_rational(q + 1)
            if kind == "c":
                return Cyclo.from_rational(1)
            if kind == "a":
                return _root(q - 1, s * t) + _root(q - 1, -s * t)
            return Cyclo.zero()
        chars.append(row(f"chi_{s}", chi))
    for j in range(1, q // 2 + 1):
        def theta(kind, t, j=j):
            if kind == "1":
                return Cyclo.from_rational(q - 1)
            if kind == "c":
                return Cyclo.from_rational(-1)
            if kind == "a":
                return Cyclo.zero()
            return -(_root(q + 1, j * t) + _root(q + 1, -j * t))
        chars.append(row(f"theta_{j}", theta))
    return CharTable(G, cd, chars)


# -- degree/multiplicity families ---------------------------------------------


def wreath_degree_spec() -> DegreeSpec:
    """Degree list for Sp2(q) wr 2, q = 2^e, e > 1 (16 rows)."""
    q = _Q
    one = PolyQ(1)
    rows = (
        DegreeRow("(Tr.Tr)_1", PolyQ(1), one),
        DegreeRow("(Tr.Tr)_2", PolyQ(1), one),
        DegreeRow("Tr.psi", 2 * q, one),
        DegreeRow("Tr.chi", 2 * (q + 1), (q - 2) / 2),
        DegreeRow("Tr.theta", 2 * (q - 1), q / 2),
        DegreeRow("(psi.psi)_1", q * q, one),
        DegreeRow("(psi.psi)_2", q * q, one),
        DegreeRow("psi.chi", 2 * q * (q + 1), (q - 2) / 2),
        DegreeRow("psi.theta", 2 * q * (q - 1), q / 2),
        DegreeRow("(chi.chi)_1", (q + 1) * (q + 1), (q - 2) / 2),
        DegreeRow("(chi.chi)_2", (q + 1) * (q + 1), (q - 2) / 2),
        DegreeRow("chi.chi'", 2 * (q + 1) * (q + 1), (q - 2) * (q - 4) / 8),
        DegreeRow("chi.theta", 2 * (q * q - 1), q * (q - 2) / 4),
        DegreeRow("(theta.theta)_1", (q - 1) * (q - 1), q / 2),
        DegreeRow("(theta.theta)_2", (q - 1) * (q - 1), q / 2),
        DegreeRow("theta.theta'", 2 * (q - 1) * (q - 1), q * (q - 2) / 8),
    )
    return DegreeSpec(rows, closed_forms("wreath-sp2")[0])


def ext_degree_spec() -> DegreeSpec:
    """Degree list for the subgroup Sp2(q^2) inside its index-2 extension."""
    q = _Q
    q2 = q * q
    rows = (
        DegreeRow("Tr", PolyQ(1), PolyQ(1)),
        DegreeRow("psi", q2, PolyQ(1)),
        DegreeRow("chi", q2 + 1, (q2 - 2) / 2),
        DegreeRow("theta", q2 - 1, q2 / 2),
    )
    return DegreeSpec(rows, closed_forms("ext-sp2q2-embedded")[0] / 2)


def ext_split_rule(q: int, s: int) -> str:
    """Whether chi_s of Sp2(q^2) splits or fuses in the index-2 extension.

    Splits exactly when q^2 - 1 divides s(q+1) or s(q-1).
    """
    if not 1 <= s <= (q * q - 2) // 2:
        raise ValueError(f"s={s} out of range 1..{(q*q-2)//2}")
    mod = q * q - 1
    if (s * (q + 1)) % mod == 0 or (s * (q - 1)) % mod == 0:
        return "split"
    return "fuse"


def ext_total_degree(q: int) -> Fraction:
    """deg tau of Sp2(q^2):2 = q^4 + q^3 + q, the closed form of its maximal row."""
    return closed_forms("ext-sp2q2-embedded")[1].eval(q)


def _suzuki_r(q: int) -> int:
    """r = sqrt(2q) of q = 2^(2n+1), n >= 1; ValueError for any other q."""
    e = q.bit_length() - 1
    r = suzuki_r(e) if q >= 8 and (1 << e) == q else None
    if r is None:
        raise ValueError(f"the Suzuki degree list needs q = 2^(2n+1), n >= 1, got {q}")
    return r


def suzuki_degree_spec(q: int) -> DegreeSpec:
    """Suzuki group degree list at q = 2^(2n+1), n >= 1.

    Uses r = 2^(n+1) in the two minus-type families; only that choice makes
    sum of squared degrees equal |Sz(q)|.
    """
    r = _suzuki_r(q)
    qq = _Q
    rows = (
        DegreeRow("trivial", PolyQ(1), PolyQ(1)),
        DegreeRow("doubly-transitive", qq * qq, PolyQ(1)),
        DegreeRow("torus-plus", qq * qq + 1, (qq - 2) / 2),
        DegreeRow("complex-pair", (r // 2) * (qq - 1), PolyQ(2)),
        DegreeRow("minus-small", (qq - r + 1) * (qq - 1), (qq + r) / 4),
        DegreeRow("minus-large", (qq + r + 1) * (qq - 1), (qq - r) / 4),
    )
    return DegreeSpec(rows, closed_forms("sz")[0])


def suzuki_total_degree(q: int) -> Fraction:
    """r (q-1) - q(q-1) + q^3, r = sqrt(2q): the sz row's closed form, in r."""
    return closed_forms("sz")[1].eval(_suzuki_r(q))


def sp4_degree_facts(q: int) -> tuple:
    """(total degree, max irreducible degree) of Sp4(q) by the closed formulas.

    The total q^6 + q^4 - q^2 holds for every even q.  The max formula
    q^4 + 2q^3 + 2q^2 + 2q + 1 describes the top principal-series family,
    which is nonempty only from q = 8 on; at q = 4 the exact table tops out
    at 340 (the formula value 425 is still returned as the formula's value,
    and None is returned at q = 2).
    """
    total = closed_forms("sp4-sub")[1].eval(q)
    if q == 2:
        return total, None
    mx = (PolyQ.q(4) + 2 * PolyQ.q(3) + 2 * PolyQ.q(2) + 2 * _Q + 1).eval(q)
    return total, mx


# -- the alpha sums of the parabolic inner product -----------------------------


def _check_alpha_q(q: int) -> None:
    e = q.bit_length() - 1
    if q < 4 or (1 << e) != q:
        raise ValueError(f"q={q} is not an even prime power >= 4")


@dataclass(frozen=True)
class AlphaParams:
    """Parameters of the triple alpha-sum over (q-1)-th roots of unity."""

    q: int
    k: int
    m: int
    n: int

    def __post_init__(self):
        q = self.q
        _check_alpha_q(q)
        for name, v in (("k", self.k), ("m", self.m), ("n", self.n)):
            if not 1 <= v <= q - 2:
                raise ValueError(f"{name}={v} out of range 1..{q-2}")
        if self.m == self.n:
            raise ValueError("m and n must differ")
        if self.m + self.n == q - 1:
            raise ValueError("m + n must not equal q - 1")


def alpha_sum(p: AlphaParams) -> Fraction:
    """sum_{j=1}^{(q-2)/2} alpha_jk alpha_jm alpha_jn, two independent ways.

    alpha_ij = zeta^(ij) + zeta^(-ij) for a fixed primitive (q-1)-th root of
    unity zeta.  Route one evaluates the sum exactly in the cyclotomic field;
    route two counts sign choices with k +/- m +/- n divisible by q - 1.
    Disagreement raises: it would mean an arithmetic bug.
    """
    q, k, m, n = p.q, p.k, p.m, p.n
    ord_ = q - 1

    def alpha(i, j):
        return root_of_unity(ord_, i * j) + root_of_unity(ord_, -i * j)

    total = Cyclo.zero()
    for j in range(1, (q - 2) // 2 + 1):
        total = total + alpha(j, k) * alpha(j, m) * alpha(j, n)
    exact = total.as_rational()
    if exact is None:
        raise InternalCheckError("alpha sum did not collapse to a rational")

    c = sum(1 for s1 in (1, -1) for s2 in (1, -1)
            if (k + s1 * m + s2 * n) % ord_ == 0)
    counted = Fraction(c * (q - 1) - 4)
    if exact != counted:
        raise InternalCheckError(
            f"alpha_sum routes disagree: cyclotomic {exact} vs counted {counted}")
    return exact


def alpha_sums(q: int, triples):
    """`alpha_sum` of every (k, m, n) in `triples`, one q, as an int64 array.

    Route one as counts: alpha_jk alpha_jm alpha_jn expands into the 8
    monomials zeta^(j x), x = +-k +- m +- n, so the sums are one t x (q-1)
    matrix of exponent counts, and its canonical rows
    (`exactnum._canonical_rows`) are their canonical coefficients.  The
    exponents j x over j depend on x mod q - 1 alone, so the matrix is the
    offset `bincount` of the 8 x of each triple times that of the j x of
    each x.  Each sum must be the rational c(q-1) - 4 of route two, the
    sign count; anything else raises.
    """
    import numpy as np  # loaded with chartab already; not a module-level import

    def counted_rows(E, n):
        """Row i of the result counts the values in row i of E, all in [0, n)."""
        offset = E + n * np.arange(len(E))[:, None]
        return np.bincount(offset.ravel(), minlength=len(E) * n).reshape(len(E), n)

    _check_alpha_q(q)
    T = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    ord_ = q - 1
    k, m, n = T.T
    if not ((T >= 1) & (T <= q - 2)).all() or (m == n).any() or (m + n == ord_).any():
        raise ValueError(f"a triple outside the range of AlphaParams at q={q}")
    signs = np.array([(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)])
    j = np.arange(1, (q - 2) // 2 + 1)
    x_counts = counted_rows(T @ signs.T % ord_, ord_)               # triple -> x
    jx_counts = counted_rows(np.arange(ord_)[:, None] * j % ord_, ord_)  # x -> j x
    counts = x_counts @ jx_counts
    rows = _canonical_rows(counts)
    if rows[:, 1:].any():
        raise InternalCheckError("alpha sum did not collapse to a rational")

    c = sum(((k + s1 * m + s2 * n) % ord_ == 0).astype(np.int64)
            for s1 in (1, -1) for s2 in (1, -1))
    counted = c * ord_ - 4
    bad = np.flatnonzero(rows[:, 0] != counted)
    if bad.size:
        i = bad[0]
        raise InternalCheckError(
            f"alpha_sum routes disagree: cyclotomic {rows[i, 0]} vs counted {counted[i]}")
    return rows[:, 0]


def parabolic_inner_product(q: int, k: int, m: int, n: int) -> Fraction:
    """The closed-form inner product (3 + q + alpha_sum) / (q - 1).

    Defined for q > 5; this is the multiplicity whose value 2 witnesses
    failure of the strong Gelfand property for the parabolic subgroups.
    """
    if q <= 5:
        raise ValueError("the closed form needs q > 5")
    a = alpha_sum(AlphaParams(q, k, m, n))
    return (Fraction(3 + q) + a) / (q - 1)
