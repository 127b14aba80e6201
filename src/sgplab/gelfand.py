"""Strong Gelfand pair decisions: multiplicity checks, the total-character
shortcut, the maximal-subgroup scans, and the Schur-ring cross-check.

The full check reads every multiplicity <chi|_H, psi> at once, from the
verified restriction-multiplicity matrix of the pair
(`chartab.restriction_matrix`), and confirms a not_sgp witness with one
exact inner product from the other side of Frobenius reciprocity.  The
Gelfand-pair check reads the trivial column of the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chartab import (CharTable, Character, carry_table, dixon_schneider,
                      induce, inner_product, restrict, restriction_matrix,
                      trivial_character)
from .errors import InternalCheckError, ResourceBoundError
from .groups import (MAX_ORDER_DEFAULT, FinGroup, _require_subgroup, build_group,
                     h_classes, maximal_subgroups_sp4)

__all__ = [
    "SgpVerdict", "Witness", "is_multiplicity_free", "is_strong_gelfand_pair",
    "is_gelfand_pair", "total_char_shortcut", "scan_maximal_sp4",
    "schur_commutes",
]

SCHUR_MAX_ORDER = 20000
# tau maps each row onto its partner (so4- onto ext-sp2q2 only at q <= 4, the scan's range)
TAU_PARTNERS = {"parabolic-q": "parabolic-p", "so4+": "wreath-sp2", "so4-": "ext-sp2q2-embedded"}


@dataclass(frozen=True)
class Witness:
    g_index: int
    h_index: int
    multiplicity: int
    g_degree: int
    h_degree: int

    def to_json(self) -> dict:
        return {"g_char_degree": self.g_degree, "h_char_degree": self.h_degree,
                "multiplicity": self.multiplicity}


@dataclass(frozen=True)
class SgpVerdict:
    g_label: str
    h_label: str
    verdict: str                 # "sgp" | "not_sgp"
    method: str                  # "full_check" | "total_char_shortcut"
    witness: Witness | None = None

    def to_json(self) -> dict:
        return {"G": self.g_label, "H": self.h_label, "verdict": self.verdict,
                "method": self.method,
                "witness": self.witness.to_json() if self.witness else None}

    def __str__(self):
        tail = ""
        if self.witness:
            w = self.witness
            tail = (f"  [deg {w.g_degree} restricts to deg {w.h_degree} "
                    f"with multiplicity {w.multiplicity}]")
        return f"({self.g_label}, {self.h_label}): {self.verdict} via {self.method}{tail}"


def is_multiplicity_free(chi: Character, T: CharTable):
    """(True, None) or (False, (irreducible index, multiplicity)).

    A multiplicity that is not a non-negative integer means a corrupt table
    or character and raises InternalCheckError instead of giving an answer.
    """
    for idx, irr in enumerate(T.irreducibles):
        m = inner_product(chi, irr)
        if m.denominator != 1 or m < 0:
            raise InternalCheckError(f"not a character: multiplicity {m} on irr {idx}")
        if m > 1:
            return False, (idx, int(m))
    return True, None


def is_strong_gelfand_pair(G: FinGroup, H: FinGroup, *,
                           side: str = "restrict") -> SgpVerdict:
    """Full check: no entry of M[i, j] = <chi_i|_H, psi_j>
    (`restriction_matrix`) may exceed 1.

    The witness is the first row of M in table order with an entry above 1,
    then the first such column (side "restrict"), or the first such column,
    then the first such row (side "induce").  Its multiplicity is confirmed
    by one `Cyclo` inner product from the other side of Frobenius
    reciprocity; a mismatch raises InternalCheckError, as does a matrix
    that `restriction_matrix` cannot verify.
    """
    _require_subgroup(H, G)
    if side not in ("restrict", "induce"):
        raise ValueError(f"unknown side {side!r}")
    TG, TH = dixon_schneider(G), dixon_schneider(H)
    M = restriction_matrix(TG, TH)
    found = np.argwhere(M > 1) if side == "restrict" else np.argwhere(M.T > 1)[:, ::-1]
    if not len(found):
        return SgpVerdict(G.label, H.label, "sgp", "full_check")
    gi, hi = (int(k) for k in found[0])
    m = int(M[gi, hi])
    chi, psi = TG.irreducibles[gi], TH.irreducibles[hi]
    # Frobenius reciprocity: the other side must give the same m
    other_m = (inner_product(induce(psi, G), chi) if side == "restrict"
               else inner_product(restrict(chi, H), psi))
    if other_m != m:
        raise InternalCheckError(
            f"({G.label}, {H.label}): multiplicity {m} by {side}, "
            f"{other_m} from the other side")
    w = Witness(gi, hi, m, int(chi.degree), int(psi.degree))
    return SgpVerdict(G.label, H.label, "not_sgp", "full_check", w)


def is_gelfand_pair(G: FinGroup, H: FinGroup) -> bool:
    """Whether the trivial character of H induces multiplicity-free: no
    entry of the trivial column M[:, j] = <chi_i, 1_H^G> of
    `restriction_matrix` exceeds 1.  A matrix that `restriction_matrix`
    cannot verify, or an H table without the trivial character, raises
    InternalCheckError."""
    _require_subgroup(H, G)
    TH = dixon_schneider(H)
    rows = [psi.values for psi in TH.irreducibles]
    one = trivial_character(H).values
    if one not in rows:
        raise InternalCheckError(f"{H.label}: the table has no trivial character")
    M = restriction_matrix(dixon_schneider(G), TH)
    return bool((M[:, rows.index(one)] <= 1).all())


def total_char_shortcut(tau_h_degree, max_irr_degree_g) -> str:
    """Degree shortcut: a G-irreducible larger than deg tau_H rules out
    the strong Gelfand property; otherwise nothing is concluded.
    """
    tau_h_degree = Fraction(tau_h_degree)
    max_irr_degree_g = Fraction(max_irr_degree_g)
    if tau_h_degree <= 0 or max_irr_degree_g <= 0:
        raise ValueError("degrees must be positive")
    if tau_h_degree < max_irr_degree_g:
        return "not_sgp"
    return "inconclusive"


def scan_maximal_sp4(q: int, *, max_order: int = MAX_ORDER_DEFAULT) -> list:
    """Verdicts for the maximal subgroups of sp4:q (q = 2 or 4 only).

    Tries the total-character shortcut against the exact maximal degree of
    the computed sp4:q table; subgroups it cannot settle get the full
    check (`is_strong_gelfand_pair`).  The graph automorphism tau maps
    parabolic-q onto parabolic-p, so4+ onto wreath-sp2 and, at q <= 4,
    so4- onto ext-sp2q2: each takes its table from that declared partner
    (`TAU_PARTNERS`) by `carry_table`, whose checks raise if tau does not.
    """
    if q not in (2, 4):
        raise ResourceBoundError("the maximal-subgroup scan is desk-scale: q in {2, 4}")
    G = build_group(f"sp4:{q}", max_order=max_order)
    rows = maximal_subgroups_sp4(q, max_order=max_order)
    by_label = {H.label: H for H, _ in rows}
    max_deg = dixon_schneider(G).max_degree()
    out = []
    for H, label in rows:
        partner = TAU_PARTNERS.get(H.label.split(":")[0])
        TH = (carry_table(dixon_schneider(by_label[f"{partner}:{q}"]), H, H.ops.graph_aut)
              if partner and H._chartable is None else dixon_schneider(H))
        tau_h = TH.total_degree()
        if total_char_shortcut(tau_h, max_deg) == "not_sgp":
            out.append(SgpVerdict(G.label, label, "not_sgp", "total_char_shortcut"))
        else:
            v = is_strong_gelfand_pair(G, H)
            out.append(SgpVerdict(G.label, label, v.verdict, v.method, v.witness))
    return out


def schur_commutes(G: FinGroup, H: FinGroup) -> bool:
    """Whether the Schur ring spanned by the H-classes of G is commutative.

    Checks, for every pair of H-classes C, D and every H-class representative
    g, that #{(c,d) in CxD : cd = g} = #{(d,c) in DxC : dc = g}.  Equality at
    representatives suffices: the pair counts are constant on the H-class of g.
    """
    if G.order > SCHUR_MAX_ORDER:
        raise ResourceBoundError(
            f"|G| = {G.order} exceeds the Schur-ring bound {SCHUR_MAX_ORDER}")
    hc = h_classes(G, H)
    k = len(hc)
    hcls = hc.class_of
    inv_keys = G.ops.inv(G.keys)
    for rep in hc.reps:
        g = G.keys[rep]
        y = G.ops.mul(inv_keys, g)            # y[x] = x^-1 g, so x * y = g
        d = hcls[G.index_of(y)]
        counts = np.zeros((k, k), dtype=np.int64)
        np.add.at(counts, (hcls, d), 1)
        if not np.array_equal(counts, counts.T):
            return False
    return True
