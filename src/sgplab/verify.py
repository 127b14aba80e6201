"""The acceptance harness behind `sgp-lab verify-paper` and the test suite.

Each check is a named callable of the enumeration bound returning (ok,
detail); every group it builds is refused above that bound (exit 3), as
for any other verb.  Tiers: 1 runs in seconds (formula/family checks and
small groups), 2 adds the mid-size tables (sl2:16, wreath, ext, Suzuki),
3 adds the full sp4:4 reproduction.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from . import families, gelfand
from .chartab import (dixon_schneider, induce, inner_product, restrict,
                      split_fuse, tables_equal_upto_permutation)
from .errors import InternalCheckError, ResourceBoundError
from .groups import (MAX_ORDER_DEFAULT, FinGroup, build_group, cyclic_subgroup,
                     element_order, squares_subgroup, subgroup)

__all__ = ["CHECKS", "run_checks", "Check"]


@dataclass(frozen=True)
class Check:
    name: str
    tier: int
    fn: object


@cache
def _c1_sl2_tables(qs, max_order):
    for q in qs:
        G = build_group(f"sl2:{q}", max_order=max_order)
        fam = families.sl2_table(q, G)
        dix = dixon_schneider(G)
        if not tables_equal_upto_permutation(fam, dix):
            return False, f"sl2:{q} family table differs from the computed table"
    return True, f"computed tables equal the closed-form tables for q in {qs}"


@cache
def _c2_wreath(max_order):
    spec = families.wreath_degree_spec()
    T = dixon_schneider(build_group("wreath-sp2:4", max_order=max_order))
    total = T.total_degree()
    if total != 316:
        return False, f"total degree {total} != 316"
    if spec.degrees_at(4) != T.degrees:
        return False, "degree multiset mismatch against the 16-row family"
    if gelfand.total_char_shortcut(total, families.sp4_degree_facts(4)[1]) != "not_sgp":
        return False, "316 < 425 did not trigger not_sgp"
    return True, "total degree 316, degree multiset matches, shortcut fires"


@cache
def _c3_ext(max_order):
    q = 4
    G = build_group(f"ext-sp2q2:{q}", max_order=max_order)
    S = build_group(f"sl2:{q * q}", max_order=max_order)
    # the twist-0 keys of G are sl2:q^2's, and their product is the matrix
    # product, so sl2:q^2's generators generate them
    keys = G.keys[G.ops.fiber_of(G.keys) == 0]
    if not np.array_equal(keys, S.keys.astype(G.ops.dtype)):
        raise InternalCheckError(f"{G.label}: its twist-0 keys are not those of {S.label}")
    H = FinGroup(f"sp2q2-in-ext:{q}", G.ops, keys, S.gens_keys)
    TH = families.sl2_table(q * q, H)
    verdicts = {}
    for ch in TH.irreducibles:
        verdicts[ch.name] = split_fuse(ch, G)
    if verdicts["Tr"] != "split" or verdicts["psi"] != "split":
        return False, "Tr or psi failed to split"
    thetas = [v for k, v in verdicts.items() if k.startswith("theta")]
    if len(thetas) != 8 or set(thetas) != {"fuse"}:
        return False, f"expected all 8 theta_j to fuse, got {thetas}"
    split_s = sorted(int(k.split("_")[1]) for k, v in verdicts.items()
                     if k.startswith("chi") and v == "split")
    if split_s != [3, 5, 6]:
        return False, f"chi split set {split_s} != [3, 5, 6]"
    rule = sorted(s for s in range(1, (q * q - 2) // 2 + 1)
                  if families.ext_split_rule(q, s) == "split")
    if rule != split_s:
        return False, f"closed-form split rule {rule} disagrees with tables"
    total = dixon_schneider(G).total_degree()
    if total != 324 or families.ext_total_degree(q) != 324:
        return False, f"total degree {total} != 324"
    split_deg = sum(int(ch.degree) for ch in TH.irreducibles
                    if verdicts[ch.name] == "split")
    fuse_deg = sum(int(ch.degree) for ch in TH.irreducibles
                   if verdicts[ch.name] == "fuse")
    if (split_deg, fuse_deg) != (68, 188) or 2 * split_deg + fuse_deg != 324:
        return False, f"split/fuse degree identity failed: 2*{split_deg}+{fuse_deg}"
    return True, "Tr/psi split, 8 thetas fuse, chi splits at {3,5,6}, 2*68+188=324"


@cache
def _c4_alpha():
    for q in (8, 16, 32):
        a = families.alpha_sum(families.AlphaParams(q, q - 4, 1, 2))
        if a != q - 5:
            return False, f"alpha_sum(q={q}) = {a} != q-5"
        ip = families.parabolic_inner_product(q, q - 4, 1, 2)
        if ip != 2:
            return False, f"inner product at q={q} is {ip}, not 2"
    # the evaluation routes agree (each raises on a disagreement with the
    # sign count): alpha_sum's cyclotomic one exhaustively at q = 8, the
    # batched count of alpha_sums on seeded triples at q = 16 and 32
    n_exhaustive = 0
    q = 8
    for k in range(1, q - 1):
        for m in range(1, q - 1):
            for n in range(1, q - 1):
                if m == n or m + n == q - 1:
                    continue
                families.alpha_sum(families.AlphaParams(q, k, m, n))
                n_exhaustive += 1
    rng = random.Random(20260810)
    for q in (16, 32):
        triples = []
        while len(triples) < 10_000:
            k, m, n = (rng.randint(1, q - 2) for _ in range(3))
            if m == n or m + n == q - 1:
                continue
            triples.append((k, m, n))
        families.alpha_sums(q, triples)
    return True, (f"alpha = q-5 and inner product = 2 at q in (8,16,32); "
                  f"routes agree on {n_exhaustive} exhaustive + 2x10^4 random triples")


@cache
def _c5_suzuki(max_order):
    T = dixon_schneider(build_group("sz:8", max_order=max_order))
    want = [1, 14, 14, 35, 35, 35, 64, 65, 65, 65, 91]
    if T.degrees != want:
        return False, f"degree multiset {T.degrees} != {want}"
    total = T.total_degree()
    if total != 484 or families.suzuki_total_degree(8) != 484:
        return False, f"total degree {total} != 484"
    spec = families.suzuki_degree_spec(8)
    if spec.degrees_at(8) != want or spec.sum_degree_squares(8) != 29120:
        return False, "closed-form degree list mismatch"
    return True, "sz:8 degrees match the six-family list; total 484"


@cache
def _c6_s6_scan(max_order):
    verdicts = gelfand.scan_maximal_sp4(2, max_order=max_order)
    bad = [v for v in verdicts if v.verdict != "sgp"]
    if bad:
        return False, f"maximal subgroup(s) not sgp: {[v.h_label for v in bad]}"
    s6 = build_group("sp4:2", max_order=max_order)
    s5 = build_group("so4-:2", max_order=max_order)
    a5 = squares_subgroup(s5, "a5")
    if gelfand.is_strong_gelfand_pair(s6, a5).verdict != "not_sgp":
        return False, "(S6, A5) should not be a strong Gelfand pair"
    c6key = next(k for k in s6.keys if element_order(s6.ops, k) == 6)
    c6 = cyclic_subgroup(s6, c6key, "c6")
    if gelfand.is_strong_gelfand_pair(s6, c6).verdict != "not_sgp":
        return False, "(S6, C6) should not be a strong Gelfand pair"
    return True, f"all {len(verdicts)} maximal subgroups sgp; A5 and C6 are not"


@cache
def _c7_sp4_scan(max_order):
    verdicts = gelfand.scan_maximal_sp4(4, max_order=max_order)
    if len(verdicts) != 7 or any(v.verdict != "not_sgp" for v in verdicts):
        return False, "expected seven not_sgp verdicts"
    para = [v for v in verdicts if v.h_label.startswith("parabolic")]
    if len(para) != 2:
        return False, "expected two parabolic rows"
    for v in para:
        if v.method != "full_check" or v.witness is None or v.witness.multiplicity < 2:
            return False, f"{v.h_label}: no full-check witness of multiplicity >= 2"
    shortcut = [v for v in verdicts if not v.h_label.startswith("parabolic")]
    if any(v.method != "total_char_shortcut" for v in shortcut):
        return False, "shortcut was expected to settle the five non-parabolic rows"
    T = dixon_schneider(build_group("sp4:4", max_order=max_order))
    total = T.total_degree()
    ftotal, fmax = families.sp4_degree_facts(4)
    if total != 4336 or ftotal != 4336:
        return False, f"total degree {total} != 4336"
    if fmax != 425:
        return False, f"max-degree formula value {fmax} != 425"
    if T.max_degree() != 340:
        return False, f"exact table max degree {T.max_degree()} != 340"
    return True, ("seven not_sgp (parabolics via witnesses of multiplicity 2); "
                  "table total 4336; max-degree formula 425 (table max is 340: "
                  "the formula's family is empty below q = 8)")


@cache
def _c8_subfield(max_order):
    for q0 in (2, 4):
        for r in (2, 3):
            q = q0 ** r
            lhs = (q0 ** 6 + q0 ** 4 - q0 ** 2)
            total0, _ = families.sp4_degree_facts(q0)
            _, rhs = families.sp4_degree_facts(q)
            if total0 != lhs or not lhs < rhs:
                return False, f"q0={q0}, r={r}: {lhs} !< {rhs}"
    s6 = build_group("sp4:2", max_order=max_order)
    tau = dixon_schneider(s6).total_degree()
    if tau != 76 or not tau < 425:
        return False, f"tau_S6(1) = {tau}, expected 76 < 425"
    return True, "q0^6+q0^4-q0^2 < q^4+2q^3+2q^2+2q+1 at all four (q0, r); 76 < 425"


@cache
def _c9_schur(max_order):
    from .groups import all_subgroups, perm_group
    s4 = perm_group([(1, 0, 2, 3), (1, 2, 3, 0)], "s4-perm")
    count = 0
    for ks in all_subgroups(s4):
        H = subgroup(s4, ks, f"s4-sub-{ks.size}")
        sc = gelfand.schur_commutes(s4, H)
        full = gelfand.is_strong_gelfand_pair(s4, H).verdict == "sgp"
        if sc != full:
            return False, f"disagreement on a subgroup of order {ks.size}"
        count += 1
    s6 = build_group("sp4:2", max_order=max_order)
    for H, want in ((build_group("so4-:2", max_order=max_order), True),
                    (build_group("a6", max_order=max_order), True)):
        if gelfand.schur_commutes(s6, H) is not want:
            return False, f"schur_commutes(S6, {H.label}) != {want}"
        if (gelfand.is_strong_gelfand_pair(s6, H).verdict == "sgp") is not want:
            return False, f"full check disagrees on {H.label}"
    return True, f"equivalence holds on all {count} subgroups of S4 and on (S6,S5), (S6,A6)"


@cache
def _c10_properties(max_order):
    # orthogonality and sum d^2 = |G| are asserted inside dixon_schneider for
    # every computed table; recheck row orthonormality on S6 here
    s6 = build_group("sp4:2", max_order=max_order)
    T = dixon_schneider(s6)
    if sum(d * d for d in T.degrees) != s6.order:
        return False, "sum of squared degrees != |S6|"
    for i, a in enumerate(T.irreducibles):
        for j, b in enumerate(T.irreducibles):
            want = Fraction(1 if i == j else 0)
            if inner_product(a, b) != want:
                return False, f"row orthogonality fails at ({i}, {j})"
    # Frobenius reciprocity on 100 seeded random (psi, chi) pairs for (S6, S5)
    s5 = build_group("so4-:2", max_order=max_order)
    TH, TG = dixon_schneider(s5), T
    rng = random.Random(20260810)
    for _ in range(100):
        psi = TH.irreducibles[rng.randrange(len(TH.irreducibles))]
        chi = TG.irreducibles[rng.randrange(len(TG.irreducibles))]
        lhs = inner_product(induce(psi, s6), chi)
        rhs = inner_product(psi, restrict(chi, s5))
        if lhs != rhs:
            return False, "Frobenius reciprocity failed"
    # monotonicity on chains H <= K <= G inside S6
    a5 = squares_subgroup(s5, "a5")
    c5key = next(k for k in a5.keys if element_order(a5.ops, k) == 5)
    c5 = cyclic_subgroup(s6, c5key, "c5")
    for low, mid in ((c5, a5), (a5, s5)):
        mid_v = gelfand.is_strong_gelfand_pair(s6, mid).verdict
        low_v = gelfand.is_strong_gelfand_pair(s6, low).verdict
        if mid_v == "not_sgp" and low_v != "not_sgp":
            return False, f"monotonicity fails on chain through {mid.label}"
    return True, "orthogonality, 100 reciprocity pairs, and chain monotonicity hold"


CHECKS = (
    Check("sl2-closed-form-small", 1, lambda max_order: _c1_sl2_tables((4, 8), max_order)),
    Check("sl2-closed-form-16", 2, lambda max_order: _c1_sl2_tables((16,), max_order)),
    Check("wreath-total-316", 2, _c2_wreath),
    Check("ext-split-fuse-324", 2, _c3_ext),
    Check("alpha-sums", 1, lambda max_order: _c4_alpha()),      # builds no group
    Check("suzuki-sz8", 2, _c5_suzuki),
    Check("s6-maximal-scan", 1, _c6_s6_scan),
    Check("sp4-4-scan", 3, _c7_sp4_scan),
    Check("subfield-inequality", 1, _c8_subfield),
    Check("schur-equivalence", 1, _c9_schur),
    Check("property-suite", 1, _c10_properties),
)


def run_checks(tier: int, report=print, *, max_order: int = MAX_ORDER_DEFAULT) -> bool:
    """Run all checks up to `tier`; one pass/fail line each; True iff all pass.
    The seconds of each check that runs go to stderr, one line each.  A
    group above `max_order` raises ResourceBoundError, once a REFUSED line
    names the check."""
    all_ok = True
    for chk in CHECKS:
        if chk.tier > tier:
            report(f"SKIP {chk.name} (tier {chk.tier})")
            continue
        start = time.perf_counter()
        try:
            ok, detail = chk.fn(max_order)
        except ResourceBoundError as exc:
            report(f"REFUSED {chk.name}: {exc}")
            raise
        print(f"time {chk.name}: {time.perf_counter() - start:.2f} s",
              file=sys.stderr)
        all_ok &= ok
        report(f"{'PASS' if ok else 'FAIL'} {chk.name}: {detail}")
    return all_ok
