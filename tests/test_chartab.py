"""Character tables: the class-matrix computation and the standard operations."""

import json

import numpy as np
import pytest

from sgplab.chartab import (Character, dixon_schneider, induce, inner_product,
                            regular_character, restrict, split_fuse,
                            table_to_csv, table_to_json,
                            tables_equal_upto_permutation, total_character,
                            trivial_character)
from sgplab.errors import ResourceBoundError, SubgroupError
from sgplab.groups import (build_group, conjugacy_classes, squares_subgroup,
                           subgroup)


def test_trivial_group_table():
    T = dixon_schneider(build_group("trivial"))
    assert T.degrees == [1]
    assert T.irreducibles[0].values[0] == 1


def test_s3_table():
    T = dixon_schneider(build_group("sl2:2"))
    assert T.degrees == [1, 1, 2]


def test_s6_degree_multiset():
    T = dixon_schneider(build_group("s6"))
    assert T.degrees == [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16]
    assert sum(d * d for d in T.degrees) == 720


@pytest.mark.parametrize("spec", ["sl2:2", "sl2:4", "sl2:8", "sp4:2", "sz:2"])
def test_row_orthonormality(spec):
    T = dixon_schneider(build_group(spec))
    for i, a in enumerate(T.irreducibles):
        for j, b in enumerate(T.irreducibles):
            assert inner_product(a, b) == (1 if i == j else 0)


def test_degree_conjugate_invariants():
    T = dixon_schneider(build_group("sl2:8"))
    cd = T.classes
    for ch in T.irreducibles:
        d = ch.values[cd.identity_class].as_rational()
        assert d is not None and d.denominator == 1 and d > 0
        for j in range(len(cd)):
            assert ch.values[j].conjugate() == ch.values[cd.inverse_class[j]]


def test_determinism():
    a = table_to_json(dixon_schneider(build_group("sl2:4")))
    b = table_to_json(dixon_schneider(build_group("sl2:4")))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_inner_product_group_mismatch():
    a = trivial_character(build_group("sl2:4"))
    b = trivial_character(build_group("sl2:8"))
    with pytest.raises(SubgroupError):
        inner_product(a, b)


def test_inner_product_with_regular_character():
    g = build_group("sp4:2")
    T = dixon_schneider(g)
    reg = regular_character(g)
    for ch in T.irreducibles:
        assert inner_product(reg, ch) == ch.degree


def test_induce_degree_is_index_times_degree():
    s6 = build_group("s6")
    h = build_group("so4-:2")
    ind = induce(trivial_character(h), s6)
    assert ind.degree == s6.order // h.order


def test_restrict_preserves_degree_and_trivial():
    s6 = build_group("s6")
    h = build_group("so4+:2")
    T = dixon_schneider(s6)
    for ch in T.irreducibles[:4]:
        assert restrict(ch, h).degree == ch.degree
    r = restrict(trivial_character(s6), h)
    assert all(v == 1 for v in r.values)


def test_frobenius_reciprocity_all_pairs():
    s6 = build_group("s6")
    s5 = build_group("so4-:2")
    TG, TH = dixon_schneider(s6), dixon_schneider(s5)
    for psi in TH.irreducibles:
        ind = induce(psi, s6)
        for chi in TG.irreducibles:
            assert inner_product(ind, chi) == inner_product(psi, restrict(chi, s5))


def test_split_fuse_on_s6_a6():
    s6 = build_group("s6")
    a6 = squares_subgroup(s6, "a6")
    TA = dixon_schneider(a6)
    verdicts = [split_fuse(psi, s6) for psi in TA.irreducibles]
    # trivial character always splits (into trivial + sign)
    triv_idx = next(i for i, ch in enumerate(TA.irreducibles) if ch.degree == 1)
    assert verdicts[triv_idx] == "split"
    # index-2 total identity: tau_G(1) = 2 * sum(split) + sum(fuse)
    split_deg = sum(int(ch.degree) for ch, v in zip(TA.irreducibles, verdicts)
                    if v == "split")
    fuse_deg = sum(int(ch.degree) for ch, v in zip(TA.irreducibles, verdicts)
                   if v == "fuse")
    assert 2 * split_deg + fuse_deg == int(total_character(dixon_schneider(s6)).degree)
    # fused characters pair up with equal induced characters
    fused = [ch for ch, v in zip(TA.irreducibles, verdicts) if v == "fuse"]
    assert len(fused) % 2 == 0
    for ch in fused:
        ind = induce(ch, s6)
        partners = [o for o in fused if o is not ch
                    and all(x == y for x, y in zip(induce(o, s6).values, ind.values))]
        assert len(partners) == 1


def test_split_fuse_restriction_returns_split_character():
    s6 = build_group("s6")
    a6 = squares_subgroup(s6, "a6")
    TA, TG = dixon_schneider(a6), dixon_schneider(s6)
    for psi in TA.irreducibles:
        if split_fuse(psi, s6) != "split":
            continue
        ind = induce(psi, s6)
        comps = [chi for chi in TG.irreducibles if inner_product(ind, chi) == 1]
        assert len(comps) == 2
        for chi in comps:
            r = restrict(chi, a6)
            assert all(x == y for x, y in zip(r.values, psi.values))


def test_split_fuse_needs_index_two():
    s6 = build_group("s6")
    with pytest.raises(SubgroupError):
        split_fuse(trivial_character(build_group("so4+:2")), s6)


def test_class_bound():
    g = build_group("sl2:16")
    fresh = subgroup(g, g.keys, "sl2:16-copy")  # no cached table on this object
    with pytest.raises(ResourceBoundError):
        dixon_schneider(fresh, max_classes=5)


def test_table_comparator_negative():
    A = dixon_schneider(build_group("sl2:4"))
    B = dixon_schneider(build_group("sl2:8"))
    assert not tables_equal_upto_permutation(A, B)


def test_table_comparator_permutation_invariance():
    T = dixon_schneider(build_group("sl2:4"))
    rev = type(T)(T.group, T.classes, tuple(reversed(T.irreducibles)))
    assert tables_equal_upto_permutation(T, rev)


def test_table_comparator_rejects_swapped_columns():
    """Two classes of order 7 in sl2:8 have the same size; swapping their
    columns is no permutation of the irreducibles."""
    T = dixon_schneider(build_group("sl2:8"))
    i, j = [k for k, o in enumerate(T.classes.orders) if o == 7][:2]

    def swapped(values):
        values = list(values)
        values[i], values[j] = values[j], values[i]
        return tuple(values)

    S = type(T)(T.group, T.classes,
                [Character(ch.group, swapped(ch.values), ch.name)
                 for ch in T.irreducibles])
    assert not tables_equal_upto_permutation(T, S)


def test_csv_and_json_exports():
    T = dixon_schneider(build_group("sl2:4"))
    blob = table_to_json(T)
    assert blob["order"] == 60 and len(blob["irreducibles"]) == 5
    sizes = sorted(c["size"] for c in blob["classes"])
    assert sizes == [1, 12, 12, 15, 20]
    csv = table_to_csv(T)
    assert csv.startswith("#") and "lossy" in csv
    assert len(csv.strip().splitlines()) == 2 + 5


def test_total_character_values():
    # tau(g) is a nonnegative rational integer count only at the identity;
    # spot-check the S6 total character degree and multiplicity-freeness
    T = dixon_schneider(build_group("s6"))
    tau = total_character(T)
    assert tau.degree == 76
    for ch in T.irreducibles:
        assert inner_product(tau, ch) == 1


def test_induced_thetas_vanish_off_subgroup():
    # q = 2: the theta family of Sp2(4) induced to its index-2 extension is
    # zero on every class outside the subgroup (the twisted classes)
    from sgplab.families import sl2_table
    G = build_group("ext-sp2q2:2")
    sub_keys = G.keys[[bool(G.ops.sl2_view(k)) for k in G.keys]]
    H = subgroup(G, sub_keys, "sp2q2-in-ext:2")
    TH = sl2_table(4, H)
    cd = conjugacy_classes(G)
    outside = [j for j, rep in enumerate(cd.reps)
               if G.ops.sl2_view(G.keys[rep]) is None]
    assert outside
    for psi in TH.irreducibles:
        if not psi.name.startswith("theta"):
            continue
        ind = induce(psi, G)
        assert all(not ind.values[j] for j in outside)


@pytest.mark.slow
def test_orthogonal_stabilizer_degree_multisets_q4():
    # the two orthogonal stabilizers carry the same character degrees as the
    # groups they are isomorphic to
    pairs = [("so4+:4", "wreath-sp2:4"), ("so4-:4", "ext-sp2q2:4")]
    for a, b in pairs:
        Ta = dixon_schneider(build_group(a))
        Tb = dixon_schneider(build_group(b))
        assert Ta.degrees == Tb.degrees, (a, b)


@pytest.mark.parametrize("spec", ["sp4:2", "ext-sp2q2:2"])
def test_class_elements_match_loop(spec):
    from sgplab.chartab import _class_elements
    cd = conjugacy_classes(build_group(spec))
    by_class = [[] for _ in cd.sizes]
    for idx, c in enumerate(cd.class_of):     # the loop it replaced
        by_class[c].append(idx)
    got = _class_elements(cd)
    assert [ix.tolist() for ix in got] == by_class


# -- class-matrix columns on demand, against the full class matrix ------------


def _class_matrix_ref(G, cd, members, i):
    """The full class matrix, every column by products: M[k][m] =
    #{x in C_i : x^-1 g_m in C_k} (the form the table used to build)."""
    r = len(cd)
    xinv = G.keys[G.inv_idx[members[i]]]
    M = [[0] * r for _ in range(r)]
    for m in range(r):
        y = G.ops.mul(xinv, G.keys[cd.reps[m]])
        counts = np.bincount(cd.class_of[G.index_of(y)], minlength=r)
        for k in range(r):
            M[k][m] = int(counts[k])
    return M


@pytest.mark.parametrize("spec", ["sl2:4", "sz:8", "sp4:2", "parabolic-p:2",
                                  "ext-sp2q2:2", "so4-:2"])
def test_class_columns_and_rows_match_full_matrix(spec):
    from sgplab.chartab import _class_column, _class_elements, _class_row
    G = build_group(spec)
    cd = conjugacy_classes(G)
    members = _class_elements(cd)
    r = len(cd)
    for i in range(r):
        M = _class_matrix_ref(G, cd, members, i)
        cols = [_class_column(G, cd, members, i, m) for m in range(r)]
        assert cols == [[M[k][m] for k in range(r)] for m in range(r)]
        for k in range(r):
            assert _class_row(cd, cols[cd.inverse_class[k]], k) == M[k]


def _fresh(spec):
    G = build_group(spec)
    return subgroup(G, G.keys, f"{spec}-copy")  # no cached classes or table


def test_broken_column_symmetry_raises(monkeypatch):
    import sgplab.chartab as ct
    from sgplab.errors import InternalCheckError
    orig = ct._class_column

    def broken(G, cd, members, i, m):
        # row k = m* is read from this column; one more count at a row t
        # with |C_t*| not dividing |C_k| makes M[k][t*] fractional
        col = orig(G, cd, members, i, m)
        size_k = cd.sizes[cd.inverse_class[m]]
        t = next(t for t in range(len(cd))
                 if size_k % cd.sizes[cd.inverse_class[t]])
        col[t] += 1
        return col

    monkeypatch.setattr(ct, "_class_column", broken)
    with pytest.raises(InternalCheckError, match="symmetry"):
        dixon_schneider(_fresh("sl2:4"))


def test_split_needs_fewer_columns_than_full_matrices(monkeypatch):
    import sgplab.chartab as ct
    orig = ct._class_column
    calls = []

    def counting(G, cd, members, i, m):
        calls.append((i, m))
        return orig(G, cd, members, i, m)

    monkeypatch.setattr(ct, "_class_column", counting)
    G = _fresh("sz:8")
    T = dixon_schneider(G)
    monkeypatch.undo()
    assert table_to_json(T)["irreducibles"] == \
        table_to_json(dixon_schneider(build_group("sz:8")))["irreducibles"]
    matrices = {i for i, _ in calls}
    assert len(calls) == len(set(calls))           # each column computed once
    assert len(calls) < len(matrices) * len(T.classes)


@pytest.mark.parametrize("spec", ["sl2:8", "sp4:2", "ext-sp2q2:2", "sz:8"])
def test_power_classes_match_loop(spec):
    from sgplab.chartab import _power_classes
    G = build_group(spec)
    cd = conjugacy_classes(G)
    want = []
    for j in range(len(cd)):                     # the per-power loop it replaced
        out = [cd.identity_class]
        key = G.keys[cd.reps[j]]
        acc = key
        for _ in range(cd.orders[j] - 1):
            out.append(int(cd.class_of[G.index_of(acc)[0]]))
            acc = G.ops.mul1(acc, key)
        want.append(out)
    assert _power_classes(G, cd) == want
