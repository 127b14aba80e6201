"""Character tables: the class-matrix computation and the standard operations."""

import json
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from cyclo_oracles import key, residue, to_json
from pinned import PINNED
import sgplab.chartab as ct
import sgplab.groups as groups
from sgplab.chartab import (CharTable, Character, dixon_schneider, induce,
                            inner_product, restrict, restriction_matrix,
                            split_fuse, table_to_csv, table_to_json,
                            tables_equal_upto_permutation, trivial_character)
from sgplab.errors import InternalCheckError, ResourceBoundError, SubgroupError
from sgplab.exactnum import Cyclo
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


def test_inner_product_group_mismatch():
    a = trivial_character(build_group("sl2:4"))
    b = trivial_character(build_group("sl2:8"))
    with pytest.raises(SubgroupError):
        inner_product(a, b)


def test_inner_product_with_regular_character():
    g = build_group("sp4:2")
    T = dixon_schneider(g)
    reg = induce(trivial_character(subgroup(g, [g.ops.identity], "1")), g)
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
    assert 2 * split_deg + fuse_deg == dixon_schneider(s6).total_degree()
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


def test_class_bound(monkeypatch):
    g = build_group("sl2:16")
    fresh = subgroup(g, g.keys, "sl2:16-copy")  # no cached table on this object
    monkeypatch.setattr(ct, "MAX_CLASSES", 5)
    with pytest.raises(ResourceBoundError):
        dixon_schneider(fresh)


def test_more_classes_than_the_degree_bound_raise_the_dixon_prime():
    """C4 x C4 has r = 16 classes but 2 sqrt(16) + 1 = 9: the Dixon prime
    must exceed r (17, not 13) for the Faddeev-LeVerrier charpoly, which
    divides by every dimension up to 16."""
    from sgplab.groups import perm_group
    G = perm_group([(1, 2, 3, 0, 4, 5, 6, 7), (0, 1, 2, 3, 5, 6, 7, 4)], "c4xc4")
    T = dixon_schneider(G)
    assert G.order == 16 and len(T.classes) == 16
    assert T.stats["dixon_prime"] == 17
    assert T.degrees == [1] * 16


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
    # the S6 total character degree, tau(1) = sum of the irreducible degrees
    T = dixon_schneider(build_group("s6"))
    assert T.total_degree() == 76


def test_induced_thetas_vanish_off_subgroup():
    # q = 2: the theta family of Sp2(4) induced to its index-2 extension is
    # zero on every class outside the subgroup (the twisted classes)
    from sgplab.families import sl2_table
    G = build_group("ext-sp2q2:2")
    H = subgroup(G, G.keys[G.ops.fiber_of(G.keys) == 0], "sp2q2-in-ext:2")
    TH = sl2_table(4, H)
    cd = conjugacy_classes(G)
    outside = [j for j, rep in enumerate(cd.reps) if G.ops.fiber_of(G.keys[rep])[0]]
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


@pytest.mark.slow
def test_inner_products_in_q_zeta_16380():
    """ext-sp2q2:8 has exponent 16380, so its inner products are reduced
    modulo Phi_16380."""
    T = dixon_schneider(build_group("ext-sp2q2:8"))
    chi, psi = [ch for ch in T.irreducibles
                if math.lcm(*(v.order for v in ch.values)) == 16380][-2:]
    assert inner_product(chi, chi) == 1
    assert inner_product(chi, psi) == 0


# -- class-matrix columns on demand, against the full class matrix ------------


def _class_matrix_ref(G, cd, members, i):
    """The full class matrix, every column by products: M[k][m] =
    #{x in C_i : x^-1 g_m in C_k} (the form the table used to build)."""
    r = len(cd)
    xinv = G.ops.inv(G.keys[members[i]])
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
    from sgplab.chartab import _class_columns, _class_row
    G = build_group(spec)
    cd = conjugacy_classes(G)
    r = len(cd)
    members = [[] for _ in range(r)]
    for idx, c in enumerate(cd.class_of):
        members[c].append(idx)
    members = [np.array(ix) for ix in members]
    full = [_class_matrix_ref(G, cd, members, i) for i in range(r)]
    inverses = [G.ops.inv(G.keys[ix]) for ix in members]
    for i, M in enumerate(full):
        cols = _class_columns(G, cd, inverses, [(i, m) for m in range(r)])
        assert cols == [[M[k][m] for k in range(r)] for m in range(r)]
        for k in range(r):
            assert _class_row(cd, cols[cd.inverse_class[k]], k) == M[k]
            assert M[k] == full[k][i]     # the class algebra is commutative


def _fresh(spec):
    G = build_group(spec)
    return subgroup(G, G.keys, f"{spec}-copy")  # no cached classes or table


def test_broken_column_symmetry_raises(monkeypatch):
    """A row read through the swapped class is checked too: the identity
    class never splits a space, so each column of it is read as row k of
    M_1 and stands for row 1 of the splitting class matrix M_k."""
    import sgplab.chartab as ct
    from sgplab.errors import InternalCheckError
    orig = ct._class_columns
    broken_at = []

    def broken(G, cd, inverses, columns):
        # row k = m* is read from this column; one more count at a row t
        # with |C_t*| not dividing |C_k| makes M[k][t*] fractional
        cols = orig(G, cd, inverses, columns)
        for (i, m), col in zip(columns, cols):
            if i != cd.identity_class:
                continue
            size_k = cd.sizes[cd.inverse_class[m]]
            t = next(t for t in range(len(cd))
                     if size_k % cd.sizes[cd.inverse_class[t]])
            col[t] += 1
            broken_at.append(cd.inverse_class[m])
        return cols

    monkeypatch.setattr(ct, "_class_columns", broken)
    with pytest.raises(InternalCheckError, match="symmetry"):
        dixon_schneider(_fresh("sl2:4"))
    assert len(broken_at) == 1


def test_class_members_are_inverted_once(monkeypatch):
    """The class-matrix columns invert the members of each class they read
    once, not once per column: after its classes, the table of so4-:2
    inverts exactly those keys, at most |G| (per column it was 61 > 11)."""
    G = _fresh("so4-:2")
    cd = conjugacy_classes(G)
    inverted, classes = [], set()
    real_inv, real_cols = type(G.ops).inv, ct._class_columns

    def counting(self, keys):
        out = real_inv(self, keys)
        inverted.append(out.size)
        return out
    monkeypatch.setattr(type(G.ops), "inv", counting)
    monkeypatch.setattr(ct, "_class_columns", lambda *a: classes.update(
        i for i, _ in a[3]) or real_cols(*a))
    T = dixon_schneider(G)
    assert T.stats["class_columns"] > len(classes)      # some class is read twice
    assert sum(inverted) == sum(cd.sizes[i] for i in classes) <= G.order


def test_split_needs_fewer_columns_than_full_matrices(monkeypatch):
    import sgplab.chartab as ct
    orig = ct._class_columns
    calls = []

    def counting(G, cd, inverses, columns):
        calls.extend(columns)
        return orig(G, cd, inverses, columns)

    monkeypatch.setattr(ct, "_class_columns", counting)
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
    """ClassData.power_classes, kept from the partition's one lookup of the
    representatives' powers, against the per-power loop; its last entries
    are the classes of the inverses, as the lookup of `ops.inv` found them."""
    G = build_group(spec)
    cd = conjugacy_classes(G)
    want = []
    for j in range(len(cd)):                     # the per-power loop it replaced
        out = [cd.identity_class]
        key = G.keys[cd.reps[j]]
        acc = key
        for _ in range(cd.orders[j] - 1):
            out.append(int(cd.class_of[G.index_of(acc)[0]]))
            acc = G.ops.mul(acc, key)[0]
        want.append(tuple(out))
    assert cd.power_classes == tuple(want)
    inverses = cd.class_of[G.index_of(G.ops.inv(G.keys[list(cd.reps)]))]
    assert cd.inverse_class == tuple(int(c) for c in inverses)


# -- the orthogonality check: embeddings mod p_v against all pairs in Q(zeta_N)

GOLDEN = ["sl2:4", "sz:8", "sp4:2", "ext-sp2q2:2", "so4-:2", "parabolic-p:2"]


def sum_of_products(weights, xs, ys) -> Cyclo:
    """sum(w * x * conj(y)) over zip(weights, xs, ys), for int weights, in
    one int vector indexed by exponent in Z[x]/(x^N - 1), N the lcm of all
    orders, with no intermediate Cyclo values."""
    terms = [(w, x, y) for w, x, y in zip(weights, xs, ys)
             if w and x._num and y._num]
    n = math.lcm(1, *(x.order for _, x, _ in terms), *(y.order for _, _, y in terms))
    den = math.lcm(1, *(x._den * y._den for _, x, y in terms))
    acc = [0] * n
    for w, x, y in terms:
        f = w * (den // (x._den * y._den))
        kx, ky = n // x.order, n // y.order
        yterms = [(-e * ky, c) for e, c in y._num.items()]
        for e1, c1 in x._num.items():
            e1 *= kx
            c1 *= f
            for e2, c2 in yterms:
                acc[(e1 + e2) % n] += c1 * c2
    return Cyclo(n, {e: Fraction(c, den) for e, c in enumerate(acc) if c})


def _orthogonal_ref(order, cd, columns) -> bool:
    """The check the embedding check replaced: every pair of columns by
    `sum_of_products`, exactly in Q(zeta_N)."""
    ones = [1] * len(columns[0])
    for j1 in range(len(cd)):
        for j2 in range(j1, len(cd)):
            s = sum_of_products(ones, columns[j1], columns[j2])
            want = Fraction(order, cd.sizes[j1]) if j1 == j2 else 0
            if s.as_rational() != want:
                return False
    return True


def _orthogonal_new(order, cd, mults) -> bool:
    try:
        ct._verify_column_orthogonality(order, cd, mults)
    except InternalCheckError:
        return False
    return True


def _columns(mults) -> list:
    """Column j as Cyclo values: sum_k mults[j][i, k] zeta_n^k per row i."""
    return [[Cyclo(M.shape[1], {k: int(c) for k, c in enumerate(row) if c})
             for row in M] for M in mults]


def _recorded(monkeypatch, spec):
    """A fresh table of spec and the (order, classes, multiplicities) its
    verification was given."""
    seen = []
    real = ct._verify_column_orthogonality

    def record(order, cd, mults):
        seen.append((order, cd, [M.copy() for M in mults]))
        return real(order, cd, mults)

    monkeypatch.setattr(ct, "_verify_column_orthogonality", record)
    T = dixon_schneider(_fresh(spec))
    monkeypatch.undo()
    return T, seen[0]


@pytest.mark.parametrize("spec", GOLDEN)
def test_verified_multiplicities_are_the_table(monkeypatch, spec):
    """The multiplicities the check sees give the returned table's values,
    and both checks pass it."""
    T, (order, cd, mults) = _recorded(monkeypatch, spec)
    cols = _columns(mults)
    rows = sorted(tuple(key(col[i]) for col in cols) for i in range(len(cd)))
    assert rows == sorted(tuple(key(v) for v in ch.values) for ch in T.irreducibles)
    table_cols = [[ch.values[j] for ch in T.irreducibles] for j in range(len(cd))]
    assert _orthogonal_ref(order, cd, table_cols)
    assert _orthogonal_new(order, cd, mults)


# every group of a golden file: the chartab goldens and the subgroups of
# the sgp goldens; then sl2:16 (values of orders 15 and 17) and S6
ORACLE_SPECS = sorted(p.argv[-1] for p in PINNED if p.golden.startswith("chartab_"))
ORACLE_SPECS += [s for s in ("parabolic-p:4", "parabolic-q:4", "sl2:16", "s6")
                 if s not in ORACLE_SPECS]
# sp4-sub:16:4 marked slow as its pin is: its source, sp4:4, is the largest group tabled
ORACLE_SPECS = [pytest.param(s, marks=[pytest.mark.slow] * (s == "sp4-sub:16:4"))
                for s in ORACLE_SPECS]


@pytest.mark.parametrize("spec", ORACLE_SPECS + [f"sl2_table:{q}" for q in (4, 8, 16)])
def test_degrees_read_from_rows_match_the_values(spec):
    """The degrees read from the identity-class column of the canonical
    rows, in table order, sorted, summed and at most, are the values of
    the characters at the identity class (`Character.degree`): on every
    computed golden table and on the closed-form SL2 tables."""
    name, _, q = spec.partition(":")
    if name == "sl2_table":
        from sgplab.families import sl2_table
        T = sl2_table(int(q))
    else:
        T = dixon_schneider(build_group(spec))
    by_values = [ch.degree for ch in T.irreducibles]
    assert T._degree_column() == by_values
    assert T.degrees == sorted(by_values)
    assert T.total_degree() == sum(by_values) and T.max_degree() == max(by_values)
    assert sum(d * d for d in by_values) == T.group.order


def test_residues_refuse_a_class_order_off_the_exponent():
    """`_residues` reads each value at a root of order dividing the
    exponent; a class order that does not divide it raises its own
    message, not that of the prime bound of `restriction_matrix`."""
    T = dixon_schneider(build_group("s6"))
    p, z = ct._dixon_root(12, 100)
    with pytest.raises(InternalCheckError,
                       match=r"^s6: class order 5 does not divide the exponent 12$"):
        ct._residues(T, p, z, 12, "s6")


def _cyclo_path_table(G, cd, mults) -> CharTable:
    """The reference for the integer rows: the table as `Cyclo` values built
    from the multiplicities, sorted by degree and then by `cyclo_oracles.key`."""
    rows = sorted(zip(*_columns(mults)), key=lambda row: (
        row[cd.identity_class].as_rational(), tuple(key(v) for v in row)))
    return CharTable(G, cd, [Character(G, row) for row in rows])


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_integer_rows_give_the_order_degrees_and_residues_of_cyclo_values(
        monkeypatch, spec):
    """A computed table, kept as canonical integer rows, has the irreducible
    order, the degrees and the `restriction_matrix` residues of the table
    built from the same multiplicities as sorted `Cyclo` values, whose rows,
    built from those values, are the computed ones; its degrees and
    residues are read without building a `Cyclo`, and equal those the
    values give one by one (`cyclo_oracles.residue`)."""
    T, (order, cd, mults) = _recorded(monkeypatch, spec)
    ref = _cyclo_path_table(T.group, cd, mults)
    assert ref.multiplicities is None
    assert all(np.array_equal(a, b) and b.dtype == np.int64
               for a, b in zip(T.canonical, ref.canonical, strict=True))
    assert T.degrees == ref.degrees
    exponent = math.lcm(*cd.orders)
    p, z = ct._dixon_root(exponent, max(2 * math.isqrt(order) + 1, len(cd)))
    by_values = np.array([[residue(v, p, pow(z, exponent // v.order, p)) for v in ch.values]
                          for ch in ref.irreducibles], dtype=np.int64)
    assert np.array_equal(ct._residues(T, p, z, exponent, spec), by_values)
    assert all(ch._values is None for ch in T.irreducibles)
    assert [ch.degree for ch in T.irreducibles] == [ch.degree for ch in ref.irreducibles]
    assert ([[key(v) for v in ch.values] for ch in T.irreducibles]
            == [[key(v) for v in ch.values] for ch in ref.irreducibles])
    assert np.array_equal(restriction_matrix(T, T), restriction_matrix(ref, ref))


def test_canonical_rows_refuse_a_bound_that_could_overflow(monkeypatch, capsys):
    """The partial sums of M @ R_3 reach max|M| times 2, the largest column
    sum of |R_3|: at max|M| = 2^62 that bound is 2^63, and the rows raise
    instead of wrapping; one below, they are exact.  Neither factor of the
    bound wraps in int64: |INT64_MIN| is 2^63, not INT64_MIN, and a
    substituted R_15 of entries 2^62 has the column sum 15 * 2^62, not
    -2^62.  A reduction matrix that overflows a real table exits 4 through
    the CLI, at its first class, of order 2 (whose column sum 2^63 would
    read INT64_MIN in int64)."""
    from sgplab import exactnum, groups
    from sgplab.cli import EXIT_INTERNAL, main
    assert exactnum._reduction(3).tolist() == [[1, 0], [0, 1], [-1, -1]]
    big = np.full((1, 3), 1 << 62, dtype=np.int64)
    with pytest.raises(InternalCheckError, match="overflow int64"):
        ct._canonical_rows(big)
    assert ct._canonical_rows(big - 1).tolist() == [[0, 0]]
    with pytest.raises(InternalCheckError, match="overflow int64"):
        ct._canonical_rows(np.array([[0, 0, -(1 << 63)]], dtype=np.int64))
    monkeypatch.setattr(groups, "_build_cached",       # no cached table
                        lru_cache(maxsize=None)(groups._build_cached.__wrapped__))
    monkeypatch.setattr(exactnum, "_reduction",
                        lambda n: np.full((n, 1), 1 << 62, dtype=np.int64))
    with pytest.raises(InternalCheckError, match="canonical rows of order 15 overflow"):
        ct._canonical_rows(np.ones((1, 15), dtype=np.int64))
    assert main(["chartab", "sl2:2"]) == EXIT_INTERNAL
    assert "canonical rows of order 2 overflow int64" in capsys.readouterr().err


@pytest.mark.parametrize("value,message", [
    (Cyclo.from_rational(Fraction(1, 2)), "coefficient 1/2 is not an int64 integer"),
    (Cyclo.from_rational(1 << 63), f"coefficient {1 << 63} is not an int64 integer"),
    (Cyclo.from_rational(-(1 << 63) - 1), "is not an int64 integer"),
    (Cyclo(7, {1: 1}), "a value of order 7 at element order 2"),
], ids=["fraction", "above", "below", "order"])
def test_a_table_built_from_values_refuses_what_its_rows_cannot_hold(value, message):
    """A value that is not an algebraic integer of its class's field, or
    whose coefficients do not fit int64, is refused when its table is
    built, as InternalCheckError (exit 4), not OverflowError; the int64
    bounds themselves are kept."""
    T = dixon_schneider(build_group("sl2:4"))
    r, j = len(T.classes), T.classes.identity_class

    def table(v):
        bad = Character(T.group, [v] * r)
        return CharTable(T.group, T.classes, [bad] + list(T.irreducibles[1:]))

    with pytest.raises(InternalCheckError, match=message):
        table(value)
    for edge in ((1 << 63) - 1, -(1 << 63)):
        assert table(Cyclo.from_rational(edge)).canonical[j][0, 0] == edge


def _move_one(rng, cd, mults):
    """One multiplicity moved to another exponent of the same column."""
    j = rng.choice([j for j, n in enumerate(cd.orders) if n > 1])
    i, k = rng.choice([tuple(ik) for ik in np.argwhere(mults[j] > 0)])
    k2 = rng.choice([t for t in range(cd.orders[j]) if t != k])
    mults[j][i, k] -= 1
    mults[j][i, k2] += 1


def _swap_two(rng, cd, mults):
    """Two values of one order swapped within a row."""
    n = rng.choice([n for n in set(cd.orders) if cd.orders.count(n) > 1])
    j1, j2 = rng.sample([j for j, m in enumerate(cd.orders) if m == n], 2)
    i = rng.randrange(len(cd))
    mults[j1][i], mults[j2][i] = mults[j2][i].copy(), mults[j1][i].copy()


@pytest.mark.parametrize("mutate", [_move_one, _swap_two], ids=["move", "swap"])
@pytest.mark.parametrize("spec", GOLDEN)
def test_embedding_check_agrees_with_all_pairs_on_mutants(monkeypatch, spec, mutate):
    """Seeded corruptions of a correct table: the embedding check rejects
    exactly those that the exact all-pairs check rejects."""
    _, (order, cd, mults) = _recorded(monkeypatch, spec)
    rng = random.Random(f"{spec}-{mutate.__name__}")
    verdicts = []
    for _ in range(12):
        bad = [M.copy() for M in mults]
        mutate(rng, cd, bad)
        verdicts.append(_orthogonal_new(order, cd, bad))
        assert verdicts[-1] == _orthogonal_ref(order, cd, _columns(bad))
    if mutate is _move_one:
        assert not any(verdicts)


def _per_pair_failure(order, cd, mults):
    """The loop the order-pair products replaced: one einsum per pair of
    classes j1 <= j2, at the same embeddings and prime; the message of the
    first failing pair, or None."""
    exponent = math.lcm(*cd.orders)
    p, z = ct._dixon_root(exponent, 2 * order)
    evals = [M @ ct._root_powers(z, exponent, M.shape[1], p) % p for M in mults]
    for j1 in range(len(cd)):
        for j2 in range(j1, len(cd)):
            t1, t2 = ct._embeddings(cd.orders[j1], cd.orders[j2])
            s = np.einsum("iu,iu->u", evals[j1][:, t1], evals[j2][:, t2]) % p
            want = order // cd.sizes[j1] % p if j1 == j2 else 0
            if (s != want).any():
                return f"column orthogonality fails at classes ({j1}, {j2})"
    return None


@pytest.mark.parametrize("mutate", [_move_one, _swap_two], ids=["move", "swap"])
@pytest.mark.parametrize("spec", GOLDEN)
def test_order_pair_products_match_the_per_pair_loop(monkeypatch, spec, mutate):
    """On the seeded mutants of the embedding test whose multiplicities
    still look like a table, the products over pairs of element orders
    fail exactly where the per-pair loop does, at the same first pair."""
    _, (order, cd, mults) = _recorded(monkeypatch, spec)
    rng = random.Random(f"{spec}-{mutate.__name__}")
    messages = []
    for _ in range(12):
        bad = [M.copy() for M in mults]
        mutate(rng, cd, bad)
        want = _per_pair_failure(order, cd, bad)
        try:
            ct._verify_column_orthogonality(order, cd, bad)
            got = None
        except InternalCheckError as e:
            got = str(e)
        assert got == want
        messages.append(got)
    assert ct._verify_column_orthogonality(order, cd, mults) > 2 * order
    assert any(m and "fails at classes" in m for m in messages)


@pytest.mark.parametrize("n1,n2", [(1, 1), (2, 3), (5, 5), (4, 6), (63, 65)])
def test_pairs_are_compared_at_every_embedding(n1, n2):
    """One (t1, t2) per unit u mod lcm(n1, n2): phi(lcm) distinct embeddings,
    each reading both columns at primitive roots."""
    n = math.lcm(n1, n2)
    t1, t2 = ct._embeddings(n1, n2)
    assert len(t1) == len(t2) == sum(math.gcd(u, n) == 1 for u in range(n))
    assert len(set(zip(t1.tolist(), t2.tolist()))) == len(t1)
    assert all(math.gcd(int(t), n1) == 1 for t in t1)
    assert all(math.gcd(int(t), n2) == 1 for t in t2)
    assert all((int(a) + int(b)) % math.gcd(n1, n2) == 0 for a, b in zip(t1, t2))


@pytest.mark.parametrize("spec", GOLDEN + ["sl2:16"])
def test_verification_prime(spec):
    """p_v is the least prime = 1 mod the exponent above 2|G|."""
    G = build_group(spec)
    T = dixon_schneider(G)
    exponent = math.lcm(*T.classes.orders)
    p_v = T.stats["verify_prime"]
    assert ct._is_prime(p_v) and p_v % exponent == 1 and p_v > 2 * G.order
    assert not any(ct._is_prime(c) for c in range(p_v - exponent, 2 * G.order, -exponent))


def test_verification_refuses_int64_overflow(monkeypatch):
    """A verification prime with r * p_v^2 >= 2^62 is refused, not used."""
    _, (order, cd, mults) = _recorded(monkeypatch, "sl2:4")
    real = ct._dixon_prime
    monkeypatch.setattr(ct, "_dixon_prime", lambda e, bound: real(e, 1 << 31))
    with pytest.raises(InternalCheckError, match="overflows int64"):
        ct._verify_column_orthogonality(order, cd, mults)


# -- the lift: one matrix product per class, against the per-value loop ---------


def _lift_ref(chi, pow_classes, exponent, p, z):
    """The loop `_lift` replaced: one inverse-DFT sum per (irreducible,
    class, exponent), in Python ints, at the z of order exponent it finds
    itself."""
    assert z == pow(ct._primitive_root(p), (p - 1) // exponent, p)
    out = []
    for pc in pow_classes:
        n = len(pc)
        zn = pow(z, exponent // n, p)
        zinv = [pow(zn, -k % (p - 1), p) for k in range(n)]
        ninv = pow(n, p - 2, p)
        out.append(np.array(
            [[sum(int(row[pc[t]]) * zinv[k * t % n] for t in range(n)) * ninv % p
              for k in range(n)] for row in chi], dtype=np.int64))
    return out


def _assert_lift_matches_reference(monkeypatch, spec):
    seen = []
    real = ct._lift

    def record(*args):
        seen.append((args, real(*args)))
        return seen[-1][1]

    monkeypatch.setattr(ct, "_lift", record)
    dixon_schneider(_fresh(spec))
    monkeypatch.undo()
    (args, got), = seen
    want = _lift_ref(*args)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("spec", GOLDEN + ["sl2:16"])
def test_lift_matches_per_value_loop(monkeypatch, spec):
    _assert_lift_matches_reference(monkeypatch, spec)


Q4_MAXIMAL = ["parabolic-p:4", "parabolic-q:4", "wreath-sp2:4",
              "ext-sp2q2-embedded:4", "sp4-sub:4:2", "so4+:4", "so4-:4"]


@pytest.mark.slow
@pytest.mark.parametrize("spec", Q4_MAXIMAL)
def test_lift_matches_per_value_loop_q4_maximal(monkeypatch, spec):
    _assert_lift_matches_reference(monkeypatch, spec)


# -- the split: one class matrix per space, against the size-order split ------


def _central_characters_by_size(G, cd, p):
    """The split `_central_characters` replaced: each class matrix in turn,
    smallest class first, splits every space still unsplit; pivots are the
    first rows in index order, and each row of M_i is read from a column of
    M_i.  Returns the normalized central characters and the columns used."""
    r = len(cd)
    inverses = [G.ops.inv(G.keys[cd.class_of == i]) for i in range(r)]
    spaces = [(np.eye(r, dtype=np.int64), list(range(r)))]
    n_columns = 0
    for _, i in sorted((cd.sizes[i], i) for i in range(r) if i != cd.identity_class):
        if all(len(P) == 1 for _, P in spaces):
            break
        rows, new_spaces = {}, []
        for B, P in spaces:
            if len(P) == 1:
                new_spaces.append((B, P))
                continue
            for k in P:
                if k not in rows:
                    col, = ct._class_columns(G, cd, inverses, [(i, cd.inverse_class[k])])
                    rows[k] = ct._class_row(cd, col, k)
                    n_columns += 1
            S = np.array([rows[k] for k in P], dtype=np.int64) % p @ B % p
            for lam in ct._poly_roots(ct._charpoly(S, p), p):
                (N, _), = ct._nullspaces((S - lam * np.eye(len(P), dtype=np.int64))[None], p)
                (A,), (pivots,) = ct._rref((B @ N % p).T[None], p)
                new_spaces.append((A.T, pivots))
        spaces = new_spaces
    assert len(spaces) == r and all(len(P) == 1 for _, P in spaces)
    omegas = []
    for B, _ in spaces:
        v = B[:, 0].tolist()
        scale = pow(v[cd.identity_class], p - 2, p)
        omegas.append([x * scale % p for x in v])
    return omegas, n_columns


def _split_against_size_order(monkeypatch, spec) -> tuple:
    """The same exported table from both splits, and never more columns
    than the size-order split; returns both column counts.  Both tables are
    of copies of the group with no source, so they are computed here, not
    carried from an image's source or cached."""
    G = build_group(spec)
    T = dixon_schneider(groups.FinGroup(G.label, G.ops, G.keys, G.gens_keys))
    monkeypatch.setattr(ct, "_central_characters", _central_characters_by_size)
    ref = dixon_schneider(_fresh(spec))
    monkeypatch.undo()
    got, want = table_to_json(T), table_to_json(ref)
    del got["group"], want["group"]           # the copy has a label of its own
    assert got == want
    assert dict(T.stats, class_columns=0) == dict(ref.stats, class_columns=0)
    assert T.stats["class_columns"] <= ref.stats["class_columns"]
    return T.stats["class_columns"], ref.stats["class_columns"]


@pytest.mark.parametrize("spec", GOLDEN + ["sl2:16", "s6"])
def test_split_matches_size_order(monkeypatch, spec):
    _split_against_size_order(monkeypatch, spec)


@pytest.mark.slow
@pytest.mark.parametrize("spec", Q4_MAXIMAL)
def test_split_matches_size_order_q4_maximal(monkeypatch, spec):
    _split_against_size_order(monkeypatch, spec)


@pytest.mark.slow
def test_sp4_4_split_columns(monkeypatch):
    """Sp4(4), 27 classes: 47 class-matrix columns, 103 by size order."""
    assert _split_against_size_order(monkeypatch, "sp4:4") == (47, 103)


def test_one_eigenspace_raises_at_once(monkeypatch):
    """A class matrix that yields one eigenspace (`_poly_roots` keeps only
    the first root) is refused at the first space, the whole algebra,
    before any eigenspace of it is computed or split further."""
    calls = []
    charpoly, roots, nullspaces = ct._charpoly, ct._poly_roots, ct._nullspaces
    monkeypatch.setattr(ct, "_charpoly",
                        lambda S, p: calls.append(len(S)) or charpoly(S, p))
    monkeypatch.setattr(ct, "_poly_roots", lambda poly, p: roots(poly, p)[:1])
    monkeypatch.setattr(ct, "_nullspaces",
                        lambda M, p: calls.append("null") or nullspaces(M, p))
    with pytest.raises(InternalCheckError, match="failed to split"):
        dixon_schneider(_fresh("sl2:4"))
    assert calls == [5]


@pytest.mark.parametrize("spec", GOLDEN)
def test_corrupt_power_map_is_refused(monkeypatch, spec):
    """The lift checks nothing itself: a wrong power map (rep^1 read as the
    identity class on the class of largest order, in the ClassData the
    table reads it from) yields multiplicities that the orthogonality
    check refuses."""
    import dataclasses
    G = _fresh(spec)
    cd = conjugacy_classes(G)
    pcs = [list(pc) for pc in cd.power_classes]
    j = max(range(len(cd)), key=lambda j: cd.orders[j])
    pcs[j][1] = pcs[j][0]
    monkeypatch.setattr(G, "_classes", dataclasses.replace(
        cd, power_classes=tuple(tuple(pc) for pc in pcs)))
    with pytest.raises(InternalCheckError,
                       match="not a character table|orthogonality fails"):
        dixon_schneider(G)


def test_dixon_prime_overflow_is_refused_before_root_finding(monkeypatch):
    """A Dixon prime with order * p^2 >= 2^63 is refused before the
    eigenspace split, so no `_poly_roots` call allocates p values."""
    real = ct._dixon_prime
    calls = []
    monkeypatch.setattr(ct, "_dixon_prime", lambda e, bound: real(e, 1 << 31))
    monkeypatch.setattr(ct, "_poly_roots", lambda *a: calls.append(a) or [])
    with pytest.raises(InternalCheckError, match="overflows the int64 lift"):
        dixon_schneider(_fresh("sl2:4"))
    assert calls == []


def test_split_overflow_is_refused_before_any_class_column(monkeypatch):
    """The split's products sum r terms below p^2, so a Dixon prime with
    r * p^2 >= 2^63 is refused before any class column is computed, also
    when the element orders alone would allow it (sp4:2: 11 classes, orders
    at most 6)."""
    G = _fresh("sp4:2")
    cd = conjugacy_classes(G)
    p = ct._dixon_prime(60, 10**9)
    assert max(cd.orders) * p * p < 1 << 63 <= len(cd) * p * p
    calls = []
    monkeypatch.setattr(ct, "_dixon_prime", lambda e, bound: p)
    monkeypatch.setattr(ct, "_class_columns", lambda *a: calls.append(a))
    with pytest.raises(InternalCheckError, match="overflows the int64"):
        dixon_schneider(G)
    assert calls == []


@pytest.mark.parametrize("spec", ["sz:8", "sl2:16", "parabolic-p:4", "so4-:4"])
def test_json_export_of_a_computed_table_makes_no_cyclo(monkeypatch, spec):
    """A computed table is exported from its canonical integer rows: no
    `Cyclo` is made, by the constructor or by `exactnum._make` (counted as
    in the scan's witness test), and the export equals the one read from
    the `Cyclo` values."""
    from sgplab import exactnum
    T = dixon_schneider(_fresh(spec))
    made = []

    def counted(real):
        def make(*args):
            made.append(args[:1])
            return real(*args)
        return make

    monkeypatch.setattr(exactnum.Cyclo, "__init__", counted(exactnum.Cyclo.__init__))
    monkeypatch.setattr(exactnum, "_make", counted(exactnum._make))
    got = table_to_json(T)
    assert made == []
    monkeypatch.undo()
    want = [[to_json(v) for v in ch.values] for ch in T.irreducibles]
    assert got["irreducibles"] == want


@pytest.mark.parametrize("q", [4, 8, 16])
def test_json_export_of_a_value_built_table_is_the_computed_one(q):
    """The closed-form SL2(q) table, built from `Cyclo` values, exports as
    the computed table does, up to the order of the irreducibles: each
    value is written at its class's element order, with integer
    coefficients."""
    from sgplab.families import sl2_table
    got, want = (table_to_json(T) for T in (
        sl2_table(q), dixon_schneider(build_group(f"sl2:{q}"))))
    for blob in (got, want):
        blob["irreducibles"].sort(key=json.dumps)
    assert got == want


def test_table_stats_sz8(monkeypatch):
    """stats: the two primes and the class-matrix columns computed; read-only
    and not part of the exported table."""
    calls = []
    real = ct._class_columns
    monkeypatch.setattr(ct, "_class_columns",
                        lambda *a: calls.extend(a[3]) or real(*a))
    T = dixon_schneider(_fresh("sz:8"))
    monkeypatch.undo()
    order, exponent = T.group.order, math.lcm(*T.classes.orders)
    assert dict(T.stats) == {
        "dixon_prime": ct._dixon_prime(exponent, 2 * math.isqrt(order) + 1),
        "verify_prime": ct._dixon_prime(exponent, 2 * order),
        "class_columns": len(calls)}
    assert 0 < len(calls) < len(T.classes) ** 2
    with pytest.raises(TypeError):
        T.stats["dixon_prime"] = 2
    cached = dixon_schneider(build_group("sz:8"))
    assert dict(cached.stats) == dict(T.stats)
    assert set(table_to_json(cached)) == {"group", "order", "classes", "irreducibles"}
