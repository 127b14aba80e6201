"""Group construction, enumeration, and conjugacy structure."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy.combinatorics.named_groups import AlternatingGroup, SymmetricGroup

from sgplab.errors import GroupSpecError, ResourceBoundError, SubgroupError
from sgplab.groups import (_first_unassigned, build_group, centralizer_order,
                           conjugacy_classes, cyclic_subgroup, element_order,
                           element_powers,
                           group_to_json, h_classes, is_subgroup,
                           maximal_subgroups_sp4, parse_group_spec, perm_group,
                           squares_subgroup, subgroup)

U64 = np.uint64


@pytest.mark.parametrize("spec,order", [
    ("sl2:2", 6),
    ("sl2:4", 60),
    ("sl2:8", 504),
    ("sl2:16", 4080),
    ("wreath-sp2:2", 72),
    ("wreath-sp2:4", 7200),          # 2 q^2 (q^2-1)^2
    ("ext-sp2q2:2", 120),
    ("ext-sp2q2:4", 8160),           # 2 q^2 (q^4-1)
    ("sp4:2", 720),
    ("s6", 720),
    ("sz:2", 20),
    ("sz:8", 29120),                 # q^2 (q^2+1) (q-1)
    ("trivial", 1),
])
def test_orders(spec, order):
    assert build_group(spec).order == order


@pytest.mark.slow
@pytest.mark.parametrize("spec,order", [
    ("parabolic-p:4", 11520),        # q^3 (q^2+q) (q-1)^2
    ("parabolic-q:4", 11520),
    ("so4+:4", 7200),
    ("so4-:4", 8160),
    ("sp4-sub:4:2", 720),
    ("sp4:4", 979200),               # q^4 (q^2-1) (q^4-1)
])
def test_orders_sp44_family(spec, order):
    assert build_group(spec).order == order


def test_parse_errors_are_positioned():
    with pytest.raises(GroupSpecError):
        parse_group_spec("nonsense:4")
    with pytest.raises(GroupSpecError):
        parse_group_spec("sl2:five")
    with pytest.raises(GroupSpecError):
        parse_group_spec("sl2:6")       # not a power of two
    with pytest.raises(GroupSpecError):
        parse_group_spec("sl2")         # missing argument
    err = None
    try:
        parse_group_spec("sz:4")        # e = 2 is even
    except GroupSpecError as exc:
        err = exc
    assert err is not None and err.position == 3


def test_enumeration_bound():
    with pytest.raises(ResourceBoundError):
        build_group("sl2:16", max_order=1000)


def test_sl2_4_class_data():
    cd = conjugacy_classes(build_group("sl2:4"))
    assert sorted(cd.sizes) == [1, 12, 12, 15, 20]
    assert sum(cd.sizes) == 60
    assert cd.sizes[cd.identity_class] == 1
    # class of c (the transvection class, size q^2 - 1) has centralizer order 4
    g = build_group("sl2:4")
    j = next(i for i, s in enumerate(cd.sizes) if s == 15)
    assert centralizer_order(g, g.keys[cd.reps[j]]) == 4


def test_s6_has_eleven_classes():
    cd = conjugacy_classes(build_group("s6"))
    assert len(cd) == 11
    assert all(sz * centralizer_order(build_group("s6"),
                                      build_group("s6").keys[cd.reps[i]]) == 720
               for i, sz in enumerate(cd.sizes))


def test_class_size_consistency():
    for spec in ("sl2:8", "wreath-sp2:2", "sz:8", "ext-sp2q2:4"):
        g = build_group(spec)
        cd = conjugacy_classes(g)
        assert sum(cd.sizes) == g.order
        for s in cd.sizes:
            assert g.order % s == 0
        # inverse_class is an involution and identity is a singleton
        for i, inv in enumerate(cd.inverse_class):
            assert cd.inverse_class[inv] == i
        assert cd.sizes[cd.identity_class] == 1


def test_centralizer_product_identity_on_sz8():
    g = build_group("sz:8")
    cd = conjugacy_classes(g)
    for i, rep in enumerate(cd.reps):
        assert centralizer_order(g, g.keys[rep]) * cd.sizes[i] == g.order


def test_centralizer_requires_membership():
    g = build_group("sl2:4")
    ctx = g.ops.ctx
    bad = g.ops.from_rows([[ctx.gamma, 0], [0, ctx.one]])  # determinant gamma
    with pytest.raises(SubgroupError):
        centralizer_order(g, bad)


def _symplectic_ok(g, keys):
    ops = g.ops
    j = ops._jkey
    mt = ops.pack(ops.unpack(keys).swapaxes(1, 2))
    return bool((ops.mul(ops.mul(mt, j), keys) == j).all())


@pytest.mark.parametrize("spec", ["sl2:8", "sp4:2", "wreath-sp2:4", "sz:8"])
def test_symplectic_form_preserved(spec):
    g = build_group(spec)
    gens = np.array(g.gens_keys, dtype=U64)
    assert _symplectic_ok(g, gens)
    rng = np.random.default_rng(1)
    sample = g.keys[rng.integers(0, g.order, 1000)]
    assert _symplectic_ok(g, sample)


@pytest.mark.parametrize("spec", ["sl2:4", "wreath-sp2:2", "ext-sp2q2:4", "sz:8"])
def test_closure_on_random_pairs(spec):
    g = build_group(spec)
    rng = np.random.default_rng(2)
    x = g.keys[rng.integers(0, g.order, 1000)]
    y = g.keys[rng.integers(0, g.order, 1000)]
    assert g.contains(g.ops.mul(x, y)).all()


def test_inverse_map():
    g = build_group("sz:8")
    prods = g.ops.mul(g.keys, g.keys[g.inv_idx])
    assert (prods == g.ops.identity).all()


def test_h_classes_extremes():
    g = build_group("sl2:4")
    full = h_classes(g, g)
    cd = conjugacy_classes(g)
    assert sorted(full.sizes) == sorted(cd.sizes)
    triv = subgroup(g, np.array([g.ops.identity], dtype=U64), "triv")
    singletons = h_classes(g, triv)
    assert len(singletons) == g.order


def test_h_classes_refine_conjugacy():
    s6 = build_group("s6")
    s5 = build_group("so4-:2")
    hc = h_classes(s6, s5)
    cd = conjugacy_classes(s6)
    assert len(hc) >= len(cd)
    # every H-class sits inside one G-class
    for rep, size in zip(hc.reps, hc.sizes):
        assert size <= cd.sizes[cd.class_of[rep]]
    assert sum(hc.sizes) == s6.order


def test_h_classes_requires_subgroup():
    with pytest.raises(SubgroupError):
        h_classes(build_group("sl2:4"), build_group("sl2:8"))


def test_ext_abstract_vs_embedded():
    for q in (2, 4):
        a = build_group(f"ext-sp2q2:{q}")
        b = build_group(f"ext-sp2q2-embedded:{q}")
        assert a.order == b.order
        assert sorted(conjugacy_classes(a).sizes) == sorted(conjugacy_classes(b).sizes)


def test_orthogonal_stabilizer_order_coincidences():
    for q in (2, 4):
        assert build_group(f"so4+:{q}").order == build_group(f"wreath-sp2:{q}").order
        assert build_group(f"so4-:{q}").order == build_group(f"ext-sp2q2:{q}").order


@pytest.mark.slow
def test_maximal_subgroups_sp4_q4():
    subs = maximal_subgroups_sp4(4)
    assert len(subs) == 7  # no Suzuki: e = 2 is even
    orders = [h.order for h, _ in subs]
    assert orders == [11520, 11520, 7200, 8160, 720, 7200, 8160]
    g = build_group("sp4:4")
    for h, label in subs:
        assert g.order % h.order == 0
        assert is_subgroup(h, g), label


def test_maximal_subgroups_rejects_q2():
    with pytest.raises(GroupSpecError):
        maximal_subgroups_sp4(2)


def test_squares_and_cyclic_subgroups():
    s6 = build_group("s6")
    a6 = squares_subgroup(s6, "a6")
    assert a6.order == 360
    k = next(k for k in s6.keys if element_order(s6.ops, k) == 6)
    c6 = cyclic_subgroup(s6, k)
    assert c6.order == 6


def test_perm_group_s4():
    s4 = perm_group([(1, 0, 2, 3), (1, 2, 3, 0)], "s4")
    assert s4.order == 24
    assert len(conjugacy_classes(s4)) == 5


def test_group_json_dump():
    blob = group_to_json(build_group("sl2:4"))
    assert blob["label"] == "sl2:4" and blob["order"] == 60
    for mat in blob["generators"]:
        assert len(mat) == 2 and all(len(row) == 2 for row in mat)
        assert all(entry >= -1 for row in mat for entry in row)
    blob2 = group_to_json(build_group("ext-sp2q2:2"))
    assert {"matrix", "twist"} <= set(blob2["generators"][0].keys())


@pytest.mark.parametrize("spec,make", [
    ("sp4:2", lambda: SymmetricGroup(6)),
    ("sl2:4", lambda: AlternatingGroup(5)),
])
def test_class_shape_matches_sympy_oracle(spec, make):
    """Sp4(2) = S6 and SL2(4) = A5: the multisets of (class size, element
    order) agree with sympy's permutation groups, computed without sgplab."""
    cd = conjugacy_classes(build_group(spec))
    ours = Counter(zip(cd.sizes, cd.orders))
    theirs = Counter((len(c), next(iter(c)).order())
                     for c in make().conjugacy_classes())
    assert ours == theirs


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5000), st.lists(st.integers(0, 4999), max_size=20),
       st.integers(0, 5000))
def test_first_unassigned_matches_loop(n, free, start):
    class_of = np.zeros(n, dtype=np.int32)
    class_of[[i for i in free if i < n]] = -1
    want = next((i for i in range(start, n) if class_of[i] < 0), n)
    assert _first_unassigned(class_of, start) == want


def _order_loop(ops, key):
    """One single-key product per power: the loop element_powers replaced."""
    k, n = U64(key), 1
    while k != ops.identity:
        k = ops.mul1(k, key)
        n += 1
    return n


@pytest.mark.parametrize("spec", ["sl2:8", "sp4:2", "wreath-sp2:2", "ext-sp2q2:4",
                                  "sz:8", "trivial"])
def test_batched_orders_match_loop(spec):
    G = build_group(spec)
    cd = conjugacy_classes(G)
    reps = G.keys[list(cd.reps)]
    assert cd.orders == tuple(_order_loop(G.ops, k) for k in reps)
    orders, powers = element_powers(G.ops, reps)
    assert orders == list(cd.orders) and len(powers) == max(orders)
    for j, key in enumerate(reps):
        assert element_order(G.ops, key) == orders[j]
        acc = G.ops.identity
        for t in range(orders[j]):
            assert powers[t][j] == acc
            acc = G.ops.mul1(acc, key)
