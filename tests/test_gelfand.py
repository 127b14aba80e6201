"""Strong Gelfand pair decisions and the Schur-ring cross-check."""

from fractions import Fraction

import numpy as np
import pytest

import sgplab.gelfand as gelfand
import sgplab.groups as groups
import sgplab.chartab as ct
from sgplab.chartab import (CharTable, Character, dixon_schneider, induce,
                            inner_product, restrict, restriction_matrix,
                            trivial_character)
from sgplab.errors import InternalCheckError, ResourceBoundError, SubgroupError
from sgplab.gelfand import (SgpVerdict, Witness, is_gelfand_pair,
                            is_multiplicity_free, is_strong_gelfand_pair,
                            scan_maximal_sp4, schur_commutes,
                            total_char_shortcut)
from sgplab.groups import (all_subgroups, build_group, cyclic_subgroup,
                           element_order, maximal_subgroups_sp4, perm_group,
                           squares_subgroup, subgroup)


def _s5():
    return build_group("so4-:2")


def test_multiplicity_free_of_regular_character():
    s3 = build_group("sl2:2")
    T = dixon_schneider(s3)
    regular = induce(trivial_character(subgroup(s3, [s3.ops.identity], "1")), s3)
    ok, witness = is_multiplicity_free(regular, T)
    assert not ok
    idx, mult = witness
    assert int(T.irreducibles[idx].degree) == 2 and mult == 2


def test_multiplicity_free_of_irreducibles_and_a_permutation_character():
    """1_B^G for the Borel subgroup B of SL2(4) = A5 is 1 + the Steinberg
    character: reducible, and multiplicity-free."""
    g = build_group("sl2:4")
    T = dixon_schneider(g)
    for ch in T.irreducibles:
        assert is_multiplicity_free(ch, T) == (True, None)
    borel = subgroup(g, g.keys[g.ops.unpack(g.keys)[:, 1, 0] == 0], "borel")
    assert borel.order == 12
    perm = induce(trivial_character(borel), g)
    assert inner_product(perm, perm) == 2
    assert is_multiplicity_free(perm, T) == (True, None)


def test_multiplicity_free_rejects_non_characters():
    from sgplab.chartab import Character
    from sgplab.exactnum import Cyclo
    g = build_group("sl2:2")
    T = dixon_schneider(g)
    cd = T.classes
    # the indicator of the identity has multiplicity chi(1)/|G|, never integral
    vals = [Cyclo.from_rational(1 if j == cd.identity_class else 0)
            for j in range(len(cd))]
    with pytest.raises(InternalCheckError):
        is_multiplicity_free(Character(g, tuple(vals)), T)


def test_self_pair_is_sgp():
    g = build_group("sl2:4")
    v = is_strong_gelfand_pair(g, g)
    assert v.verdict == "sgp" and v.witness is None


def test_s6_pairs():
    s6 = build_group("s6")
    a6 = squares_subgroup(s6, "a6")
    assert is_strong_gelfand_pair(s6, a6).verdict == "sgp"
    assert is_strong_gelfand_pair(s6, _s5()).verdict == "sgp"


def test_restrict_and_induce_sides_agree():
    s6 = build_group("s6")
    for H in (_s5(), squares_subgroup(_s5(), "a5")):
        a = is_strong_gelfand_pair(s6, H, side="restrict")
        b = is_strong_gelfand_pair(s6, H, side="induce")
        assert a.verdict == b.verdict


def test_gelfand_pair_examples():
    s6 = build_group("s6")
    assert is_gelfand_pair(s6, s6)
    assert is_gelfand_pair(s6, _s5())


def test_sgp_implies_gelfand():
    s6 = build_group("s6")
    for H in (squares_subgroup(s6, "a6"), _s5(), build_group("so4+:2")):
        if is_strong_gelfand_pair(s6, H).verdict == "sgp":
            assert is_gelfand_pair(s6, H)


def test_shortcut_values():
    assert total_char_shortcut(316, 425) == "not_sgp"
    assert total_char_shortcut(324, 425) == "not_sgp"
    assert total_char_shortcut(76, 16) == "inconclusive"
    with pytest.raises(ValueError):
        total_char_shortcut(0, 5)


def test_shortcut_soundness_against_full_check():
    # whenever the shortcut fires on a computed pair, the full check agrees
    s6 = build_group("s6")
    maxdeg = dixon_schneider(s6).max_degree()
    k = next(k for k in s6.keys if element_order(s6.ops, k) == 6)
    for H in (cyclic_subgroup(s6, k, "c6"), squares_subgroup(_s5(), "a5")):
        tau = dixon_schneider(H).total_degree()
        if total_char_shortcut(tau, maxdeg) == "not_sgp":
            assert is_strong_gelfand_pair(s6, H).verdict == "not_sgp"


def test_subgroup_validation():
    with pytest.raises(SubgroupError):
        is_strong_gelfand_pair(build_group("sl2:4"), build_group("wreath-sp2:2"))


def test_scan_q2_all_sgp():
    verdicts = scan_maximal_sp4(2)
    assert len(verdicts) == 7
    assert all(v.verdict == "sgp" for v in verdicts)
    labels = {v.h_label for v in verdicts}
    assert "a6" in labels and "so4-:2" in labels


def test_scan_rejects_large_q():
    with pytest.raises(ResourceBoundError):
        scan_maximal_sp4(8)


def test_schur_self_and_trivial():
    g = build_group("sl2:4")
    assert schur_commutes(g, g)   # the class algebra is the center
    triv = subgroup(g, np.array([g.ops.identity], dtype=np.uint64), "triv")
    # singleton H-classes span the whole group algebra: commutative iff G is
    assert not schur_commutes(g, triv)


def test_schur_matches_sgp_on_s4_d8_q8():
    s4 = perm_group([(1, 0, 2, 3), (1, 2, 3, 0)], "s4")
    for ks in all_subgroups(s4):
        H = subgroup(s4, ks, f"h{ks.size}")
        assert schur_commutes(s4, H) == (is_strong_gelfand_pair(s4, H).verdict == "sgp")
    d8 = next(subgroup(s4, ks, "d8") for ks in all_subgroups(s4) if ks.size == 8)
    for ks in all_subgroups(d8):
        H = subgroup(d8, ks, f"d8h{ks.size}")
        assert schur_commutes(d8, H) == (is_strong_gelfand_pair(d8, H).verdict == "sgp")
    q8 = _quaternion_group()
    assert len(all_subgroups(q8)) == 6
    for ks in all_subgroups(q8):
        H = subgroup(q8, ks, f"q8h{ks.size}")
        assert schur_commutes(q8, H) == (is_strong_gelfand_pair(q8, H).verdict == "sgp")


def _quaternion_group():
    # Q8 = {+-1, +-i, +-j, +-k} in its regular representation on 8 points
    def qmul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    units = [tuple(s if t == u else 0 for t in range(4))
             for u in range(4) for s in (1, -1)]
    i, j = units[2], units[4]
    G = perm_group([tuple(units.index(qmul(g, x)) for x in units) for g in (i, j)],
                   "q8")
    assert G.order == 8
    assert sum(element_order(G.ops, k) == 2 for k in G.keys) == 1
    return G


def test_schur_agrees_on_s6_pairs():
    s6 = build_group("s6")
    assert schur_commutes(s6, _s5())
    assert schur_commutes(s6, squares_subgroup(s6, "a6"))
    k = next(k for k in s6.keys if element_order(s6.ops, k) == 6)
    assert not schur_commutes(s6, cyclic_subgroup(s6, k, "c6"))


def test_schur_resource_bound():
    class Fat:
        order = 50000
    with pytest.raises(ResourceBoundError):
        schur_commutes(Fat(), Fat())


def test_monotonicity_on_chains():
    # not_sgp(G, K) forces not_sgp(G, H) for H <= K
    s6 = build_group("s6")
    s5 = _s5()
    a5 = squares_subgroup(s5, "a5")
    k5 = next(k for k in a5.keys if element_order(a5.ops, k) == 5)
    c5 = cyclic_subgroup(s6, k5, "c5")
    chain = [(a5, c5)]
    for K, H in chain:
        if is_strong_gelfand_pair(s6, K).verdict == "not_sgp":
            assert is_strong_gelfand_pair(s6, H).verdict == "not_sgp"


@pytest.mark.parametrize("corrupt,at_build", [(lambda v: -v, False),
                                              (lambda v: v * Fraction(1, 2), True)],
                         ids=["negative", "fractional"])
def test_corrupt_table_raises_instead_of_a_verdict(corrupt, at_build):
    """A negative or non-integral multiplicity is a bug, not a verdict.  A
    halved irreducible has values that are not algebraic integers, so its
    table is refused when it is built; a negated one, by both sides."""
    s6 = build_group("s6")
    s5 = subgroup(s6, _s5().keys, "s5-copy")    # a fresh group: its own table
    T = dixon_schneider(s5)
    bad = [Character(s5, tuple(corrupt(v) for v in T.irreducibles[0].values))]
    if at_build:
        with pytest.raises(InternalCheckError, match="not an int64 integer"):
            CharTable(s5, T.classes, bad + list(T.irreducibles[1:]))
        return
    s5._chartable = CharTable(s5, T.classes, bad + list(T.irreducibles[1:]))
    for side in ("restrict", "induce"):
        with pytest.raises(InternalCheckError):
            is_strong_gelfand_pair(s6, s5, side=side)


def test_corrupt_table_in_gelfand_pair_is_internal_error():
    """A halved irreducible of G is InternalCheckError (exit 4), not
    ValueError (exit 2, a usage error): its values are not algebraic
    integers, so its table is refused when it is built, before
    `is_gelfand_pair` can read it."""
    s6 = build_group("s6")
    s5 = subgroup(s6, _s5().keys, "s5-copy")    # a fresh group: its own table
    T = dixon_schneider(s5)
    half = Character(s5, tuple(v * Fraction(1, 2) for v in T.irreducibles[0].values))
    with pytest.raises(InternalCheckError, match="not an int64 integer"):
        CharTable(s5, T.classes, [half] + list(T.irreducibles[1:]))


def test_table_without_a_trivial_character_in_gelfand_pair_is_internal_error():
    """An H table whose trivial character was replaced by a copy of another
    irreducible has no trivial column to read: InternalCheckError (exit 4),
    not the ValueError of a failed list lookup (exit 2)."""
    s6 = build_group("s6")
    s5 = subgroup(s6, _s5().keys, "s5-copy")    # a fresh group: its own table
    T = dixon_schneider(s5)
    j = next(j for j, ch in enumerate(T.irreducibles)
             if all(v == 1 for v in ch.values))
    rows = list(T.irreducibles)
    rows[j] = rows[j - 1]
    s5._chartable = CharTable(s5, T.classes, rows)
    with pytest.raises(InternalCheckError, match="has no trivial character"):
        is_gelfand_pair(s6, s5)


def test_verdict_json():
    s6 = build_group("s6")
    a5 = squares_subgroup(_s5(), "a5")
    v = is_strong_gelfand_pair(s6, a5)
    blob = v.to_json()
    assert blob["verdict"] == "not_sgp" and blob["method"] == "full_check"
    assert blob["witness"]["multiplicity"] >= 2
    assert set(blob["witness"]) == {"g_char_degree", "h_char_degree", "multiplicity"}


@pytest.mark.parametrize("side,patched", [("restrict", "induce"), ("induce", "restrict")])
def test_witness_is_confirmed_from_the_other_side(monkeypatch, side, patched):
    """A not_sgp witness is re-derived by Frobenius reciprocity; a corrupt
    other side (here: every character doubled) raises instead of a verdict."""
    s6 = build_group("s6")
    a5 = squares_subgroup(_s5(), "a5")
    assert is_strong_gelfand_pair(s6, a5, side=side).verdict == "not_sgp"
    real = getattr(gelfand, patched)

    def doubled(ch, group):
        out = real(ch, group)
        return Character(out.group, tuple(v + v for v in out.values))

    monkeypatch.setattr(gelfand, patched, doubled)
    with pytest.raises(InternalCheckError, match="other side"):
        is_strong_gelfand_pair(s6, a5, side=side)


def test_s6_scan_passes_max_order_to_every_builder(monkeypatch):
    seen = []
    real = groups.build_group

    def recording(spec, **kwargs):
        seen.append((spec, kwargs.get("max_order")))
        return real(spec, **kwargs)

    monkeypatch.setattr(gelfand, "build_group", recording)
    monkeypatch.setattr(groups, "build_group", recording)
    verdicts = scan_maximal_sp4(2, max_order=5000)
    assert len(verdicts) == 7
    assert {spec for spec, _ in seen} == {
        "sp4:2", "parabolic-p:2", "parabolic-q:2", "wreath-sp2:2",
        "ext-sp2q2-embedded:2", "so4+:2", "so4-:2"}
    assert all(m == 5000 for _, m in seen), seen


# -- the restriction-multiplicity matrix against the per-pair loop it replaced


def _sgp_by_loop(G, H, side):
    """The per-pair loop `restriction_matrix` replaced: restrict (or induce)
    each irreducible in table order, `is_multiplicity_free` against the
    other table, then the other-side confirmation of the first witness."""
    TG, TH = dixon_schneider(G), dixon_schneider(H)
    if side == "restrict":
        chars, other = (restrict(chi, H) for chi in TG.irreducibles), TH
    else:
        chars, other = (induce(psi, G) for psi in TH.irreducibles), TG
    for i, ch in enumerate(chars):
        ok, found = is_multiplicity_free(ch, other)
        if not ok:
            j, m = found
            gi, hi = (i, j) if side == "restrict" else (j, i)
            chi, psi = TG.irreducibles[gi], TH.irreducibles[hi]
            other_m = (inner_product(induce(psi, G), chi) if side == "restrict"
                       else inner_product(restrict(chi, H), psi))
            assert other_m == m
            w = Witness(gi, hi, m, int(chi.degree), int(psi.degree))
            return SgpVerdict(G.label, H.label, "not_sgp", "full_check", w)
    return SgpVerdict(G.label, H.label, "sgp", "full_check")


def _s4():
    return perm_group([(1, 0, 2, 3), (1, 2, 3, 0)], "s4")


def _subgroup_pairs(G):
    return [(G, subgroup(G, ks, f"{G.label}h{n}"))
            for n, ks in enumerate(all_subgroups(G))]


def _small_pairs(name):
    """The oracle's small cases: every subgroup of S4, D8, Q8 and A4 (whose
    characters are not all real), and (S6, A5), (S6, C6)."""
    if name == "s4":
        return _subgroup_pairs(_s4())
    if name == "a4":
        return _subgroup_pairs(squares_subgroup(_s4(), "a4"))
    if name == "d8":
        s4 = _s4()
        return _subgroup_pairs(next(subgroup(s4, ks, "d8")
                                    for ks in all_subgroups(s4) if ks.size == 8))
    if name == "q8":
        return _subgroup_pairs(_quaternion_group())
    s6 = build_group("s6")
    k = next(k for k in s6.keys if element_order(s6.ops, k) == 6)
    return [(s6, squares_subgroup(_s5(), "a5")), (s6, cyclic_subgroup(s6, k, "c6"))]


def _scan_pairs(q):
    G = build_group(f"sp4:{q}")
    return [(G, H) for H, _ in maximal_subgroups_sp4(q)]


@pytest.mark.parametrize("side", ["restrict", "induce"])
@pytest.mark.parametrize("pairs", [
    lambda: _small_pairs("s4"), lambda: _small_pairs("d8"),
    lambda: _small_pairs("q8"), lambda: _small_pairs("a4"),
    lambda: _small_pairs("s6"), lambda: _scan_pairs(2),
    pytest.param(lambda: _scan_pairs(4), marks=pytest.mark.slow)],
    ids=["s4", "d8", "q8", "a4", "s6", "scan-q2", "scan-q4"])
def test_verdicts_match_the_per_pair_loop(pairs, side):
    """Equal verdicts and witnesses, indices included, on both sides."""
    for G, H in pairs():
        assert is_strong_gelfand_pair(G, H, side=side) == _sgp_by_loop(G, H, side)


def test_gelfand_pair_matches_the_induced_trivial_character():
    """The oracle is the route the trivial column of `restriction_matrix`
    replaced: induce 1_H to G and check it against G's table.  On the 30
    subgroups of S4 and on S6 against S6, S5, A6, A5 and C6."""
    s6 = build_group("s6")
    pairs = (_small_pairs("s4") + [(s6, s6), (s6, _s5()),
                                   (s6, squares_subgroup(s6, "a6"))]
             + _small_pairs("s6"))
    assert len(pairs) == 35
    found = [is_gelfand_pair(G, H) for G, H in pairs]
    assert found == [is_multiplicity_free(induce(trivial_character(H), G),
                                          dixon_schneider(G))[0]
                     for G, H in pairs]
    assert set(found) == {True, False}


@pytest.mark.parametrize("name", ["s4", "d8", "q8", "a4", "s6"])
def test_restriction_matrix_is_the_inner_products(name):
    for G, H in _small_pairs(name):
        TG, TH = dixon_schneider(G), dixon_schneider(H)
        M = restriction_matrix(TG, TH)
        assert M.dtype == np.int64
        assert M.tolist() == [[inner_product(restrict(chi, H), psi)
                               for psi in TH.irreducibles]
                              for chi in TG.irreducibles]


@pytest.mark.parametrize("side", ["restrict", "induce"])
def test_swapped_fusion_map_raises(monkeypatch, side):
    """A fusion map with two entries swapped (the first two that differ) is
    caught by the checks in `restriction_matrix`, not turned into a verdict:
    on (S6, A5), (S6, C6) and the six sp4:2 rows after A6.  (A swap that an
    automorphism of the pair explains, as the two classes of 5-cycles in A6
    or the transpositions and 4-cycles in S4, gives a consistent matrix.)"""
    real = ct._fusion_map
    cases = []
    for G, H in _small_pairs("s6") + _scan_pairs(2)[1:]:
        fusion = real(H, G)
        cases.append((G, H, next((a, b) for b in range(len(fusion))
                                 for a in range(b) if fusion[a] != fusion[b])))

    def swapped(h, g):
        out = real(h, g)
        out[a], out[b] = out[b], out[a]
        return out

    monkeypatch.setattr(ct, "_fusion_map", swapped)
    for G, H, (a, b) in cases:
        with pytest.raises(InternalCheckError, match="reciprocity"):
            is_strong_gelfand_pair(G, H, side=side)


def test_restriction_matrix_refuses_what_one_prime_cannot_read(monkeypatch):
    """A table value of an order that does not divide exp(G) (the same
    value, lifted to order 7 * 60) has no image at the embedding: as it
    does not divide the element order of its class either, its table is
    refused when it is built.  A prime with r_H * p^2 >= 2^63 would
    overflow the int64 products: it raises instead of giving a matrix."""
    s6 = build_group("s6")
    s5 = subgroup(s6, _s5().keys, "s5-copy")    # a fresh group: its own table
    TG, T = dixon_schneider(s6), dixon_schneider(s5)
    lifted = Character(s5, tuple(v.lift(7 * 60) for v in T.irreducibles[0].values))
    with pytest.raises(InternalCheckError, match="a value of order 420 at element order"):
        CharTable(s5, T.classes, [lifted] + list(T.irreducibles[1:]))
    real = ct._dixon_prime
    monkeypatch.setattr(ct, "_dixon_prime", lambda e, bound: real(e, 1 << 31))
    with pytest.raises(InternalCheckError, match="do not fit the prime"):
        restriction_matrix(TG, T)


@pytest.mark.slow
def test_scan_q4_makes_at_most_two_inner_products(monkeypatch):
    calls = []
    real = gelfand.inner_product
    monkeypatch.setattr(gelfand, "inner_product",
                        lambda a, b: calls.append(1) or real(a, b))
    verdicts = scan_maximal_sp4(4)
    assert [v.method for v in verdicts].count("full_check") == 2
    assert len(calls) <= 2


@pytest.mark.slow
def test_scan_q4_makes_cyclo_values_only_for_the_witnesses(monkeypatch):
    """From fresh builds, the Sp4(4) scan reads degrees and multiplicities
    off the integer tables: every `Cyclo` it makes (by the constructor or
    by arithmetic) is made inside the exact inner products and inductions
    that confirm its two witnesses, and only the witness characters of
    the computed tables get their values built."""
    from functools import lru_cache

    from sgplab import exactnum
    monkeypatch.setattr(groups, "_build_cached",       # nothing cached yet
                        lru_cache(maxsize=None)(groups._build_cached.__wrapped__))
    made, confirming, witnesses = {True: 0, False: 0}, [0], []

    def counted(real):
        def make(*args):
            made[bool(confirming[0])] += 1
            return real(*args)
        return make

    def confirmation(real):
        def run(*args):
            witnesses.extend(a for a in args if isinstance(a, Character))
            confirming[0] += 1
            try:
                return real(*args)
            finally:
                confirming[0] -= 1
        return run

    monkeypatch.setattr(exactnum.Cyclo, "__init__", counted(exactnum.Cyclo.__init__))
    monkeypatch.setattr(exactnum, "_make", counted(exactnum._make))
    for name in ("inner_product", "induce", "restrict"):
        monkeypatch.setattr(gelfand, name, confirmation(getattr(gelfand, name)))
    verdicts = scan_maximal_sp4(4)
    assert [v.method for v in verdicts].count("full_check") == 2
    assert made[False] == 0 and made[True] > 0
    G = build_group("sp4:4")
    tables = [dixon_schneider(G)] + [dixon_schneider(H) for H, _ in
                                     maximal_subgroups_sp4(4)]
    built = [ch for T in tables for ch in T.irreducibles if ch._values is not None]
    assert all(any(ch is w for w in witnesses) for ch in built)
    assert {ch.group.label for ch in built} == {"sp4:4", "parabolic-p:4", "parabolic-q:4"}


def _fresh_build_cache(monkeypatch):
    from functools import lru_cache
    monkeypatch.setattr(groups, "_build_cached",       # nothing cached yet
                        lru_cache(maxsize=None)(groups._build_cached.__wrapped__))


@pytest.mark.slow
def test_scan_q4_tables_five_groups_and_carries_three(monkeypatch):
    """From fresh builds, one Sp4(4) scan splits the class algebras of five
    groups and carries the tables of the other three rows along the graph
    automorphism; the partition of sp4:4 builds conjugation permutations
    for 3 of its 4 trace fibers, the fourth carried along F."""
    _fresh_build_cache(monkeypatch)
    split, carried, perm_fibers = [], [], []
    central, carry, perm = ct._central_characters, gelfand.carry_table, groups._conjugation_perm

    def splitting(G, cd, p):
        split.append(G.label)
        return central(G, cd, p)

    def carrying(T, H, aut):
        carried.append((T.group.label, H.label))
        return carry(T, H, aut)

    def permuting(G, keys, g):
        if G.label == "sp4:4":
            perm_fibers.append(int(G.ops.fiber_of(keys[:1])[0]))
        return perm(G, keys, g)
    monkeypatch.setattr(ct, "_central_characters", splitting)
    monkeypatch.setattr(gelfand, "carry_table", carrying)
    monkeypatch.setattr(groups, "_conjugation_perm", permuting)
    scan_maximal_sp4(4)
    assert sorted(split) == ["ext-sp2q2-embedded:4", "parabolic-p:4", "sp4-sub:4:2",
                             "sp4:4", "wreath-sp2:4"]
    assert carried == [("parabolic-p:4", "parabolic-q:4"), ("wreath-sp2:4", "so4+:4"),
                       ("ext-sp2q2-embedded:4", "so4-:4")]
    assert len(perm_fibers) == 6 and sorted(set(perm_fibers)) == [0, 1, 2]


@pytest.mark.parametrize("q", [2, pytest.param(4, marks=pytest.mark.slow)])
def test_carried_tables_equal_computed_ones(monkeypatch, q):
    """The rows the scan carries (parabolic-q, so4+, so4-) have the
    ClassData and the JSON table of the same group built anew and tabled
    by `dixon_schneider`."""
    _fresh_build_cache(monkeypatch)
    scan_maximal_sp4(q)
    carried = [H for H, _ in maximal_subgroups_sp4(q)
               if H._chartable is not None and "carried_from" in H._chartable.stats]
    assert [H.label for H in carried] == [f"parabolic-q:{q}", f"so4+:{q}", f"so4-:{q}"]
    for H in carried:
        name, args = groups.parse_group_spec(H.label)
        D = groups._SPECS[name][1](*args, groups.MAX_ORDER_DEFAULT)     # not cached
        got, want = H._chartable, dixon_schneider(D)
        assert "carried_from" not in want.stats
        for field in ("sizes", "reps", "inverse_class", "orders", "identity_class",
                      "power_classes"):
            assert getattr(got.classes, field) == getattr(want.classes, field), field
        assert np.array_equal(got.classes.class_of, want.classes.class_of)
        assert got.classes.class_of.dtype == want.classes.class_of.dtype
        assert ct.table_to_json(got) == ct.table_to_json(want)


@pytest.mark.parametrize("mutant,message", [
    ("identity", "parabolic-q:2 is not mapped onto parabolic-p:2"),
    ("inverse", "parabolic-q:2: the classes carried from parabolic-p:2 are not its classes")],
    ids=["identity", "inverse"])
def test_carry_refuses_a_map_that_is_not_an_isomorphism(monkeypatch, capsys, mutant,
                                                        message):
    """Keys that tau would not map onto the other row's (the identity map),
    or a bijection that is not a homomorphism (tau of the inverse), raise
    in the carry; the scan carries parabolic-q from its declared partner,
    so it raises there too and exits 4."""
    from sgplab.cli import EXIT_INTERNAL, main
    P, Q = build_group("parabolic-p:2"), build_group("parabolic-q:2")
    tau = groups.MatOps.graph_aut
    aut = ((lambda self, keys: groups._as_key_array(keys, self.dtype))
           if mutant == "identity" else (lambda self, keys: tau(self, self.inv(keys))))
    with pytest.raises(InternalCheckError, match=message):
        ct.carry_table(dixon_schneider(P), Q, lambda keys: aut(Q.ops, keys))
    _fresh_build_cache(monkeypatch)
    monkeypatch.setattr(groups.MatOps, "graph_aut", aut)
    assert main(["scan-maximal", "2"]) == EXIT_INTERNAL
    assert message in capsys.readouterr().err
