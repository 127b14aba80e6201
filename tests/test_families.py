"""Closed-form character families against the computed tables."""

import random

import numpy as np
import pytest

from sgplab.chartab import dixon_schneider, tables_equal_upto_permutation
from sgplab.errors import InternalCheckError
from sgplab.families import (AlphaParams, PolyQ, alpha_sum, alpha_sums, ext_degree_spec,
                             ext_split_rule, ext_total_degree,
                             parabolic_inner_product, sl2_table,
                             sp4_degree_facts, suzuki_degree_spec,
                             suzuki_total_degree, wreath_degree_spec)
from sgplab.groups import build_group, closed_forms, maximal_rows_sp4


Q = PolyQ.q()


def test_polyq_arithmetic():
    p = (Q + 1) * (Q - 1)
    assert p == Q * Q - 1
    assert p.eval(7) == 48
    assert ((Q ** 0) if False else PolyQ(1)).eval(5) == 1
    assert (Q * Q / 2).eval(4) == 8
    with pytest.raises(InternalCheckError):
        (Q / 2).eval_int(3)


def test_sl2_table_degrees_and_values():
    T = sl2_table(4)
    assert sorted(int(ch.degree) for ch in T.irreducibles) == [1, 3, 3, 4, 5]
    by_name = {ch.name: ch for ch in T.irreducibles}
    labels = _sl2_labels(T)
    psi = by_name["psi"]
    assert psi.values[labels["c"]] == 0
    assert all(psi.values[j] == 1 for j in labels["a"])
    assert all(psi.values[j] == -1 for j in labels["b"])
    tr = by_name["Tr"]
    assert all(v == 1 for v in tr.values)
    chi = by_name["chi_1"]
    assert chi.values[labels["c"]] == 1
    assert all(chi.values[j] == 0 for j in labels["b"])


def _sl2_labels(T):
    cd = T.classes
    out = {"a": [], "b": []}
    for j in range(len(cd)):
        if j == cd.identity_class:
            out["1"] = j
        elif cd.orders[j] == 2:
            out["c"] = j
        elif (T.group.ops.ctx.q - 1) % cd.orders[j] == 0:
            out["a"].append(j)
        else:
            out["b"].append(j)
    return out


@pytest.mark.parametrize("q", [4, 8, 16])
def test_sl2_table_matches_dixon(q):
    fam = sl2_table(q)
    dix = dixon_schneider(build_group(f"sl2:{q}"))
    assert tables_equal_upto_permutation(fam, dix)


def test_sl2_table_orthogonality():
    from sgplab.chartab import inner_product
    T = sl2_table(8)
    for i, a in enumerate(T.irreducibles):
        for j, b in enumerate(T.irreducibles):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_sl2_table_validation():
    with pytest.raises(ValueError):
        sl2_table(6)
    with pytest.raises(ValueError):
        sl2_table(2)
    with pytest.raises(InternalCheckError, match="sp4:2 is not an SL2-shaped group"):
        sl2_table(4, build_group("sp4:2"))


def test_wreath_spec_symbolic_identities():
    spec = wreath_degree_spec()
    total = PolyQ(0)
    sum_sq = PolyQ(0)
    for row in spec.rows:
        total = total + row.degree * row.multiplicity
        sum_sq = sum_sq + row.degree * row.degree * row.multiplicity
    assert total == PolyQ.q(4) + PolyQ.q(3) - Q          # q^4 + q^3 - q
    assert sum_sq == spec.order_poly                      # 2 q^2 (q^2-1)^2
    assert len(spec.rows) == 16
    # the one encoding of each: the order on the spec table, tau_H(1) on the
    # row table, shared with so4+
    for name in ("wreath-sp2", "so4+"):
        order, tau = closed_forms(name)
        assert sum_sq == order and total == tau


@pytest.mark.parametrize("q", [4, 8, 16])
def test_wreath_spec_integrality_and_totals(q):
    spec = wreath_degree_spec()
    degs = spec.degrees_at(q)           # raises if any multiplicity non-integral
    assert spec.total_degree(q) == q**4 + q**3 - q
    assert spec.sum_degree_squares(q) == 2 * q**2 * (q**2 - 1) ** 2
    assert len(degs) == sum(r.multiplicity.eval_int(q) for r in spec.rows)


def test_wreath_split_rows_pair_up():
    spec = wreath_degree_spec()
    split = [r for r in spec.rows if r.label.endswith(("_1", "_2"))]
    assert len(split) % 2 == 0
    ones = {r.label[:-2] for r in split if r.label.endswith("_1")}
    twos = {r.label[:-2] for r in split if r.label.endswith("_2")}
    assert ones == twos
    for base in ones:
        pair = [r for r in split if r.label.startswith(base)]
        assert pair[0].degree == pair[1].degree
        assert pair[0].multiplicity == pair[1].multiplicity


def test_wreath_degrees_match_computed_table():
    spec = wreath_degree_spec()
    T = dixon_schneider(build_group("wreath-sp2:4"))
    assert spec.degrees_at(4) == T.degrees


def test_ext_split_rule_q4():
    assert [s for s in range(1, 8) if ext_split_rule(4, s) == "split"] == [3, 5, 6]


def test_ext_split_rule_q8_counts():
    split = [s for s in range(1, 32) if ext_split_rule(8, s) == "split"]
    assert len(split) == 7
    plus = [s for s in split if (s * 9) % 63 == 0]
    minus = [s for s in split if (s * 7) % 63 == 0]
    assert len(plus) == 4 and len(minus) == 3     # q/2 and (q-2)/2


def test_ext_split_rule_range():
    with pytest.raises(ValueError):
        ext_split_rule(4, 0)
    with pytest.raises(ValueError):
        ext_split_rule(4, 8)


def test_ext_totals():
    assert ext_total_degree(4) == 324
    assert ext_total_degree(8) == 4616
    spec = ext_degree_spec()
    assert spec.sum_degree_squares(4) == 4080    # |Sp2(16)|
    assert spec.total_degree(4) == 256
    # As PolyQ identities against the one encoding: Sp2(q^2) has index 2 in
    # the ext-sp2q2 specs and so4-.  An invariant irreducible of Sp2(q^2)
    # extends to two of the extension, a non-invariant pair fuses into one,
    # so tau(1) of the extension is sum d m plus the invariant degrees: Tr,
    # psi and the q - 1 chi_s that split (`ext_split_rule`).
    total = sum((row.degree * row.multiplicity for row in spec.rows), PolyQ(0))
    sum_sq = sum((row.degree ** 2 * row.multiplicity for row in spec.rows), PolyQ(0))
    invariant = 1 + Q**2 + (Q - 1) * (Q**2 + 1)
    for name in ("ext-sp2q2-embedded", "so4-"):
        order, tau = closed_forms(name)
        assert 2 * sum_sq == order and total + invariant == tau
    assert 2 * sum_sq == closed_forms("ext-sp2q2")[0]
    for q in (4, 8, 16):
        rule = [ext_split_rule(q, s) for s in range(1, (q * q - 2) // 2 + 1)]
        assert rule.count("split") == q - 1


def test_suzuki_spec():
    spec = suzuki_degree_spec(8)
    assert spec.degrees_at(8) == [1, 14, 14, 35, 35, 35, 64, 65, 65, 65, 91]
    assert spec.total_degree(8) == 484
    assert suzuki_total_degree(8) == 484
    assert spec.sum_degree_squares(8) == 29120
    spec32 = suzuki_degree_spec(32)
    assert spec32.sum_degree_squares(32) == 32**2 * (32**2 + 1) * 31
    with pytest.raises(ValueError):
        suzuki_degree_spec(4)
    with pytest.raises(ValueError):
        suzuki_degree_spec(2)
    # against the one encoding: the sz row's tau_H(1), a polynomial in
    # r = sqrt(2q), and the sz order on the spec table
    order = closed_forms("sz")[0]
    for q, tau in ((8, 484), (32, 32024), (128, 2082928)):
        spec = suzuki_degree_spec(q)
        [row_tau] = [closed for spec_, *_, closed in maximal_rows_sp4(q) if spec_ == f"sz:{q}"]
        assert spec.total_degree(q) == row_tau == suzuki_total_degree(q) == tau
        assert spec.sum_degree_squares(q) == order.eval_int(q)


@pytest.mark.parametrize("q", [2, 3, 4, 16, 64])
def test_suzuki_forms_refuse_a_q_outside_their_range(q):
    """The Suzuki degree list and its total need q = 2^(2n+1), n >= 1: both
    share one check, so neither evaluates at a q the other refuses."""
    for form in (suzuki_degree_spec, suzuki_total_degree):
        with pytest.raises(ValueError, match=f"Suzuki degree list needs .* got {q}$"):
            form(q)


def test_sp4_degree_facts_values():
    assert sp4_degree_facts(4) == (4336, 425)
    # the max-degree formula indexes a family that exists only from q = 8 on;
    # these are the formula's values regardless
    assert sp4_degree_facts(8) == (266176, 5265)
    total2, max2 = sp4_degree_facts(2)
    assert total2 == 76 and max2 is None


def test_alpha_params_validation():
    with pytest.raises(ValueError):
        AlphaParams(6, 1, 2, 3)        # q not a 2-power
    with pytest.raises(ValueError):
        AlphaParams(8, 0, 1, 2)        # k out of range
    with pytest.raises(ValueError):
        AlphaParams(8, 1, 2, 2)        # m = n
    with pytest.raises(ValueError):
        AlphaParams(8, 1, 3, 4)        # m + n = q - 1


@pytest.mark.parametrize("q", [8, 16, 32])
def test_alpha_sum_paper_choice(q):
    assert alpha_sum(AlphaParams(q, q - 4, 1, 2)) == q - 5
    assert parabolic_inner_product(q, q - 4, 1, 2) == 2


def test_alpha_sum_symmetric_triple():
    assert alpha_sum(AlphaParams(8, 1, 2, 4)) == 3


def test_alpha_sum_routes_agree_exhaustively_q8():
    count = 0
    for k in range(1, 7):
        for m in range(1, 7):
            for n in range(1, 7):
                if m == n or m + n == 7:
                    continue
                alpha_sum(AlphaParams(8, k, m, n))  # raises on disagreement
                count += 1
    assert count == 6 * 24  # m != n kills 6 pairs, m+n = 7 another 6


def _valid_triples(q):
    return [(k, m, n) for k in range(1, q - 1) for m in range(1, q - 1)
            for n in range(1, q - 1) if m != n and m + n != q - 1]


@pytest.mark.parametrize("q,size", [(8, None), (16, 300), (32, 300), (64, 100)])
def test_alpha_sums_match_alpha_sum(q, size):
    """The batched count route against the one-triple cyclotomic route:
    every triple at q = 8, seeded ones at q = 16, 32 and 64."""
    triples = _valid_triples(q)
    if size is not None:
        triples = random.Random(q).sample(triples, size)
    got = alpha_sums(q, triples)
    assert got.dtype == np.int64 and len(got) == len(triples)
    assert got.tolist() == [alpha_sum(AlphaParams(q, *t)) for t in triples]


def test_alpha_sums_refuse_what_alpha_params_refuses():
    assert alpha_sums(8, []).tolist() == []
    for q, triples in ((6, [(1, 2, 3)]), (8, [(1, 2, 3), (0, 1, 2)]),
                       (8, [(1, 2, 2)]), (8, [(1, 3, 4)]), (8, [(1, 2, 7)])):
        with pytest.raises(ValueError):
            alpha_sums(q, triples)


def test_alpha_sums_past_the_int64_bound_exit_4(monkeypatch, capsys):
    """A count matrix whose product with R_(q-1) could overflow int64
    raises instead of wrapping, and `verify-paper` exits 4 on it: here
    R_15 is replaced by a matrix whose column sum is just above 2^62, so
    a count of 2 or more, which every row of 56 counts in 15 bins has,
    crosses 2^63."""
    from sgplab import exactnum
    from sgplab.cli import EXIT_INTERNAL, main
    real = exactnum._reduction
    monkeypatch.setattr(exactnum, "_reduction", lambda n: (
        np.full((n, 1), (1 << 62) // n + 1, dtype=np.int64) if n == 15 else real(n)))
    with pytest.raises(InternalCheckError, match="canonical rows of order 15 overflow int64"):
        alpha_sums(16, [(12, 1, 2)])
    assert main(["verify-paper"]) == EXIT_INTERNAL
    assert "canonical rows of order 15 overflow int64" in capsys.readouterr().err


def test_parabolic_inner_product_is_nonneg_integer():
    for q in (8, 16):
        for (k, m, n) in ((q - 4, 1, 2), (1, 2, 3), (3, 1, 4)):
            v = parabolic_inner_product(q, k, m, n)
            assert v.denominator == 1 and v >= 0


def test_parabolic_inner_product_needs_q_above_5():
    with pytest.raises(ValueError):
        parabolic_inner_product(4, 1, 1, 2)


def test_general_position_of_paper_choice():
    # exactly one of k +/- m +/- n is divisible by q-1 for k=q-4, m=1, n=2
    for q in (8, 16, 32, 64):
        k, m, n = q - 4, 1, 2
        hits = [1 for s1 in (1, -1) for s2 in (1, -1)
                if (k + s1 * m + s2 * n) % (q - 1) == 0]
        assert sum(hits) == 1


def test_degree_spec_json():
    blob = wreath_degree_spec().to_json()
    assert len(blob) == 16
    label, deg, mult = blob[3]
    assert label == "Tr.chi" and isinstance(deg, dict) and isinstance(mult, dict)


@pytest.mark.parametrize("q", [4, 8, 16])
def test_ext_spec_sums(q):
    spec = ext_degree_spec()
    assert spec.sum_degree_squares(q) == q**2 * (q**4 - 1)
    assert spec.total_degree(q) == q**4  # 1 + q^2 + (q^2+1)(q^2-2)/2 + (q^2-1)q^2/2


def test_alpha_sum_routes_agree_exhaustively_q16():
    for k in range(1, 15):
        for m in range(1, 15):
            for n in range(1, 15):
                if m == n or m + n == 15:
                    continue
                alpha_sum(AlphaParams(16, k, m, n))  # raises on disagreement
