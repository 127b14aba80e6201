"""Group construction, enumeration, and conjugacy structure."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from sympy.combinatorics.named_groups import AlternatingGroup, SymmetricGroup

import sgplab
from pinned import PINNED
from sgplab import gfield, groups
from sgplab.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from sgplab.errors import (GroupSpecError, InternalCheckError, ResourceBoundError,
                           SubgroupError)
from sgplab.exactnum import PolyQ
from sgplab.gelfand import scan_maximal_sp4
from sgplab.groups import (_sorted_unique, build_group, centralizer_order,
                           conjugacy_classes, cyclic_subgroup, element_order,
                           element_powers, h_classes, is_subgroup,
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
    ("a6", 360),
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
    bad = g.ops.pack_one([[ctx.gamma, 0], [0, ctx.one]])  # determinant gamma
    with pytest.raises(SubgroupError):
        centralizer_order(g, bad)


def _gram_key(ops):
    """The antidiagonal Gram matrix J of the symplectic form, as a key."""
    return ops.pack_one(np.eye(ops.dim, dtype=np.uint8)[::-1])


def _symplectic_ok(g, keys):
    ops = g.ops
    j = _gram_key(ops)
    mt = ops.pack(ops.unpack(keys).swapaxes(1, 2))
    return bool((ops.mul(ops.mul(mt, j), keys) == j).all())


@pytest.mark.parametrize("spec", ["sl2:8", "sp4:2", "wreath-sp2:4", "sz:8",
                                  "parabolic-p:4", "so4-:4", "sp4-sub:4:2",
                                  "ext-sp2q2-embedded:4"])
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
    inv = g.ops.inv(g.keys)
    prods = g.ops.mul(g.keys, inv)
    assert (prods == g.ops.identity).all()
    assert np.array_equal(np.sort(inv), g.keys)


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


def _symplectic_basis(ctx, gram):
    """Columns of a basis T with T^t * gram * T = J, by symplectic
    Gram-Schmidt over the standard basis."""
    d = len(gram)

    def form(u, v):
        s = 0
        for i in range(d):
            for j in range(d):
                s = ctx.add(s, ctx.mul(u[i], ctx.mul(gram[i][j], v[j])))
        return s

    vecs = [[ctx.one if i == j else 0 for j in range(d)] for i in range(d)]
    pairs = []
    while vecs:
        u = vecs.pop(0)
        idx = next(i for i, v in enumerate(vecs) if form(u, v))
        s = ctx.inv(form(u, vecs[idx]))
        w = [ctx.mul(s, x) for x in vecs.pop(idx)]
        vecs = [[ctx.add(v[i], ctx.add(ctx.mul(form(v, w), u[i]),
                                       ctx.mul(form(v, u), w[i])))
                 for i in range(d)] for v in vecs]
        pairs.append((u, w))
    basis = [pairs[0][0], pairs[1][0], pairs[1][1], pairs[0][1]]
    return [[basis[j][i] for j in range(d)] for i in range(d)]


def _ext_embedded_gens_by_table(q):
    """The generators of ext-sp2q2-embedded:q built the long way: a table of
    the coordinates of all q^2 elements of GF(q^2) in the basis (1, gamma2),
    the Gram matrix of Tr(x1 y2 + x2 y1) from that table, and a symplectic
    Gram-Schmidt for the change of basis T, with T^-1 = J T^t Gram."""
    e = q.bit_length() - 1
    ctx, ctx2 = gfield.field_ctx(e), gfield.field_ctx(2 * e)
    emb = [gfield.subfield_embed(ctx, ctx2, a) for a in range(q)]
    g = ctx2.gamma
    coord = {ctx2.add(emb[u], ctx2.mul(emb[v], g)): (u, v)
             for u in range(q) for v in range(q)}

    def block(z):
        (a, b), (c, d) = coord[z], coord[ctx2.mul(z, g)]
        return [[a, c], [b, d]]

    def image(rows2):
        return [block(row[0])[i] + block(row[1])[i] for row in rows2 for i in (0, 1)]

    frob = [list(r) for r in zip(*(coord[gfield.frobenius(ctx2, z, e)]
                                   for z in (ctx2.one, g)))]
    galois = [r + [0, 0] for r in frob] + [[0, 0] + r for r in frob]
    basis2 = [(ctx2.one, 0), (g, 0), (0, ctx2.one), (0, g)]

    def tr_down(w):
        u, v = coord[ctx2.add(w, gfield.frobenius(ctx2, w, e))]
        assert v == 0
        return u

    gram = [[tr_down(ctx2.add(ctx2.mul(x1, y2), ctx2.mul(x2, y1)))
             for y1, y2 in basis2] for x1, x2 in basis2]
    ops = groups.mat_ops(ctx, 4, "symplectic")
    t_cols = _symplectic_basis(ctx, gram)
    t = ops.pack_one(t_cols)
    t_inv = ops.mul(ops.mul(_gram_key(ops), ops.pack_one(np.array(t_cols).T)),
                    ops.pack_one(gram))[0]
    rows = [image(r) for r in groups._sl2_gens(ctx2)] + [galois]
    return [int(ops.mul(ops.mul(t_inv, ops.pack_one(r)), t)[0]) for r in rows]


def _ext_gens(q):
    """The generators of ext-sp2q2:q, read off `_sl2_gens` with nothing
    enumerated: those of SL2(q^2), twist 0, then the twist (1, 1)."""
    ops = groups._ext_ops_cached(q)
    return [ops.pack_one(rows, 0) for rows in groups._sl2_gens(ops.ctx)] + [
        ops.pack_one(ops._mat._eye, 1)]


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_ext_embedded_gens_match_the_coordinate_table_oracle(q):
    """The map of `_ext_embedding`, built once with no enumeration (t and n
    read off its code table, T folded into its block tables), takes the
    generators of ext-sp2q2:q to those that the coordinate table and
    Gram-Schmidt give, at q = 16 too, where sl2:256 cannot be built; up to
    q = 8 they are the built group's generators."""
    gens = _ext_gens(q)
    if q <= 8:
        assert build_group(f"ext-sp2q2:{q}").gens_keys == [int(k) for k in gens]
    ops, embed = groups._ext_embedding(q)
    assert ops is groups.mat_ops(gfield.field_ctx(q.bit_length() - 1), 4, "symplectic")
    assert [int(k) for k in embed(gens)] == _ext_embedded_gens_by_table(q)


@pytest.mark.parametrize("q", [4, 8])
def test_ext_embedding_is_a_homomorphism_on_random_pairs(q):
    """rho(x y) = rho(x) rho(y) on 2000 seeded random pairs of
    ext-sp2q2:q, with `ExtOps.mul` and `MatOps.mul` taking the products
    pair by pair; the pairs meet both twists on both sides."""
    G = build_group(f"ext-sp2q2:{q}")
    ops, embed = groups._ext_embedding(q)
    rng = np.random.default_rng(41)
    x, y = (G.keys[rng.integers(0, G.order, 2000)] for _ in range(2))
    twists = (x >> G.ops._tshift) * 2 + (y >> G.ops._tshift)
    assert set(twists.tolist()) == {0, 1, 2, 3}
    assert np.array_equal(embed(G.ops.mul(x, y)), ops.mul(embed(x), embed(y)))


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


def test_maximal_subgroups_sp4_q2_is_the_s6_list():
    subs = maximal_subgroups_sp4(2)
    assert [label for _, label in subs] == [
        "a6", "parabolic-p:2", "parabolic-q:2", "wreath-sp2:2", "ext-sp2q2:2",
        "so4+:2", "so4-:2"]
    assert [h.order for h, _ in subs] == [360, 48, 48, 72, 120, 72, 120]
    s6 = build_group("sp4:2")
    for h, label in subs:
        assert is_subgroup(h, s6), label


def test_a6_is_built_once():
    """The A6 row is the spec a6, so a second q = 2 row list returns the
    group the first one built (and the classes and table cached on it)."""
    first, second = maximal_subgroups_sp4(2), maximal_subgroups_sp4(2)
    assert first[0][0] is second[0][0] is build_group("a6")


@pytest.mark.parametrize("q", [0, 1, 3, 6])
def test_maximal_subgroups_rejects_non_powers_of_two(q):
    with pytest.raises(GroupSpecError):
        maximal_subgroups_sp4(q)


def _rows(q, subfields=(), a6=False, sz=False):
    """(spec, label, closed-form tau_H(1)) of the maximal rows of sp4:q,
    written out: q^4 + q^3 - q for wreath-sp2 and so4+, q^4 + q^3 + q for
    ext-sp2q2 and so4-, the Sp4(q0) total for sp4-sub:q:q0 and
    r(q - 1) - q(q - 1) + q^3, r = sqrt(2q), for sz."""
    wreath, ext, r = q**4 + q**3 - q, q**4 + q**3 + q, math.isqrt(2 * q)
    return ([("a6", "a6", None)] * a6 + [
        (f"parabolic-p:{q}", f"parabolic-p:{q}", None),
        (f"parabolic-q:{q}", f"parabolic-q:{q}", None),
        (f"wreath-sp2:{q}", f"wreath-sp2:{q}", wreath),
        (f"ext-sp2q2-embedded:{q}", f"ext-sp2q2:{q}", ext)]
        + [(f"sp4-sub:{q}:{q0}", f"sp4-sub:{q}:{q0}", q0**6 + q0**4 - q0**2)
           for q0 in subfields]
        + [(f"so4+:{q}", f"so4+:{q}", wreath), (f"so4-:{q}", f"so4-:{q}", ext)]
        + [(f"sz:{q}", f"sz:{q}", r * (q - 1) - q * (q - 1) + q**3)] * sz)


def test_maximal_rows_are_read_from_the_table_without_building(monkeypatch):
    """A6 at q = 2 only, sz at odd e > 1 only, and one sp4-sub:q:2^(e/r) per
    prime divisor r of e, in the order of those primes."""
    def no_build(*args, **kwargs):
        raise AssertionError("a group was built")

    monkeypatch.setattr(groups, "build_group", no_build)
    monkeypatch.setattr(groups, "_build_cached", no_build)
    assert groups.maximal_rows_sp4(2) == _rows(2, a6=True)
    assert groups.maximal_rows_sp4(4) == _rows(4, [2])
    assert groups.maximal_rows_sp4(8) == _rows(8, [2], sz=True)
    assert groups.maximal_rows_sp4(16) == _rows(16, [4])
    assert groups.maximal_rows_sp4(32) == _rows(32, [2], sz=True)
    assert groups.maximal_rows_sp4(64) == _rows(64, [8, 4])


def test_all_subgroups_of_s4(monkeypatch):
    """S4 has 30 subgroups: 1, 9, 4, 7, 4, 3, 1 and 1 of orders 1, 2, 3, 4,
    6, 8, 12 and 24.  Each one's generating set is found once."""
    calls = []
    real = groups.find_generators
    monkeypatch.setattr(groups, "find_generators",
                        lambda keys, ops: calls.append(keys.size) or real(keys, ops))
    s4 = perm_group([(1, 0, 2, 3), (1, 2, 3, 0)], "s4")
    subs = groups.all_subgroups(s4)
    sizes = [ks.size for ks in subs]
    assert sizes == sorted(sizes)
    assert Counter(sizes) == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}
    assert sorted(calls) == sizes


def test_squares_and_cyclic_subgroups():
    s6 = build_group("s6")
    a6 = squares_subgroup(s6, "a6")
    assert a6.order == 360
    k = next(k for k in s6.keys if element_order(s6.ops, k) == 6)
    c6 = cyclic_subgroup(s6, k)
    assert c6.order == 6


@pytest.mark.parametrize("spec", ["sp4:2", "so4-:2"])
def test_squares_subgroup_is_the_closure_of_every_square(spec):
    """The greedy generators among the squares close to the keys of the
    retired build, the closure of every square as a generator."""
    G = build_group(spec)
    squares = _sorted_unique(G.ops.mul(G.keys, G.keys))
    H = squares_subgroup(G)
    assert np.array_equal(H.keys, groups.mulclose(G.ops, squares, G.order))
    assert set(H.gens_keys) <= set(squares.tolist())


def _setdiff_generators(keys, ops):
    """The route `find_generators` took before the shared greedy search:
    the least key outside the closure, by `np.setdiff1d`, until it is
    all of keys."""
    gens = []
    closure = np.array([ops.identity], dtype=ops.dtype)
    while closure.size < keys.size:
        gens.append(np.setdiff1d(keys, closure, assume_unique=True)[0])
        closure = groups.mulclose(ops, gens, keys.size)
    return gens


def test_shared_search_matches_setdiff_route_on_s4():
    """`find_generators` picks the generators the setdiff route picked,
    on every subgroup of S4."""
    s4 = perm_group([(1, 0, 2, 3), (1, 2, 3, 0)], "s4")
    subs = groups.all_subgroups(s4)
    assert len(subs) == 30
    for keys in subs:
        want = _setdiff_generators(keys, s4.ops)
        assert [int(g) for g in groups.find_generators(keys, s4.ops)] == [int(g) for g in want]


def _schreier_loop(ops, schreier, order):
    """The loop `_build_sp4` ran before the shared greedy search: each
    Schreier generator outside the closure so far joins it, until the
    closure has `order` elements."""
    gens, stab = [], np.array([ops.identity], dtype=ops.dtype)
    for s in schreier:
        if stab.size == order:
            break
        if stab[min(np.searchsorted(stab, s), stab.size - 1)] != s:
            gens.append(s)
            stab = groups.mulclose(ops, gens, order)
    return gens, stab


@pytest.mark.parametrize("q", [2, 4])
def test_shared_search_matches_the_schreier_loop(monkeypatch, fresh_builds, q):
    """Both coset builds, parabolic-p:q's over its Levi subgroup L (|P| /
    q^3 elements) and sp4:q's over P = parabolic-p:q, close the Schreier
    generators they were given in edge order to the same generators and
    stabilizer as the old loop of `_build_sp4`."""
    calls = []
    real = groups._greedy_generators

    def recording(ops, candidates, target):
        out = real(ops, candidates, target)
        calls.append((ops, candidates, target, out))
        return out
    monkeypatch.setattr(groups, "_greedy_generators", recording)
    build_group(f"sp4:{q}")
    searches = [c for c in calls if c[2] != c[1].size]
    P = build_group(f"parabolic-p:{q}")
    assert [target for _, _, target, _ in searches] == [P.order // q**3, P.order]
    for ops, schreier, target, (gens, stab) in searches:
        want_gens, want_stab = _schreier_loop(ops, schreier, target)
        assert [int(g) for g in gens] == [int(g) for g in want_gens] and len(gens) > 1
        assert np.array_equal(stab, want_stab) and stab.size == target


def test_perm_group_s4():
    s4 = perm_group([(1, 0, 2, 3), (1, 2, 3, 0)], "s4")
    assert s4.order == 24
    assert len(conjugacy_classes(s4)) == 5


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


def _bfs_partition(G, gens, within=None):
    """The class partition `_orbit_partition` replaced: one breadth-first
    search per class, from the least unassigned index, conjugating the
    frontier by every generator (`within` names their group, which
    `_orbit_partition` reads to carry fibers, and is not needed here)."""
    class_of = np.full(G.order, -1, dtype=np.int32)
    reps, sizes = [], []
    while (free := np.flatnonzero(class_of < 0)).size:
        i = int(free[0])
        cid = len(reps)
        reps.append(i)
        class_of[i] = cid
        frontier, count = np.array([i]), 1
        while frontier.size:
            fk = G.keys[frontier]
            nxt = [G.ops.conj(fk, g) for g in gens]
            pos = G.index_of(_sorted_unique(np.concatenate(nxt)) if nxt else fk[:0])
            frontier = pos[class_of[pos] < 0]
            class_of[frontier] = cid
            count += frontier.size
        sizes.append(count)
    return tuple(sizes), tuple(reps), class_of


def _partition_cases():
    yield from ((s, None) for s in ("sp4:2", "sl2:16", "sz:8", "s6", "ext-sp2q2:4"))
    yield from ((s, None) for s in ("parabolic-p:4", "parabolic-q:4", "wreath-sp2:4",
                                    "ext-sp2q2-embedded:4", "sp4-sub:4:2", "so4+:4",
                                    "so4-:4"))                # every q = 4 maximal
    yield "sp4:2", "parabolic-p:2"
    yield pytest.param("sp4:4", None, marks=pytest.mark.slow)


@pytest.mark.parametrize("spec,by", list(_partition_cases()))
def test_orbit_partition_matches_bfs(monkeypatch, spec, by):
    """The union-find partition gives the BFS's ClassData field for field: the
    same sizes, representatives, class ids, inverse classes and orders
    (conjugation by all of G, or by the subgroup H = `by` for h_classes).
    The class ids equal the int32 ids of the BFS in the narrowest dtype
    that holds them."""
    G = build_group(spec)
    gens = build_group(by).gens_keys if by else G.gens_keys
    got = groups._class_data(G, gens)
    monkeypatch.setattr(groups, "_orbit_partition", _bfs_partition)
    want = groups._class_data(G, gens)
    for field in ("sizes", "reps", "inverse_class", "orders", "identity_class"):
        assert getattr(got, field) == getattr(want, field), field
    assert got.class_of.dtype == np.min_scalar_type(len(got) - 1)
    assert np.array_equal(got.class_of, want.class_of)
    if by:
        assert np.array_equal(h_classes(G, build_group(by)).class_of, got.class_of)


def _union_find_labels(P, n):
    """The first generator joined by union-find, as every generator was
    before the cycle doubling."""
    label = np.arange(P.size, dtype=np.int32)
    groups._join_orbits(label, P)
    return label


GOLDEN_SPECS = sorted(p.argv[-1] for p in PINNED if p.golden.startswith("chartab_"))
SLOW_GOLDEN = {p.argv[-1] for p in PINNED if p.golden.startswith("chartab_") and p.slow}


@pytest.mark.parametrize("spec,by", [
    pytest.param(s, None, marks=[pytest.mark.slow] * (s in SLOW_GOLDEN))
    for s in GOLDEN_SPECS] + [("s6", "a6"), ("s6", "so4-:2")])
def test_cycle_doubling_matches_union_find_only(monkeypatch, spec, by):
    """The partition whose first generator is joined by its cycle minima
    gives the ClassData of a union-find-only partition: every group of a
    golden file, and the S6 classes under A6 and under S5 = so4-:2."""
    G = build_group(spec)
    H = (squares_subgroup(G, "a6") if by == "a6" else build_group(by)) if by else G
    got = groups._class_data(G, H.gens_keys)
    monkeypatch.setattr(groups, "_cycle_minima", _union_find_labels)
    want = groups._class_data(G, H.gens_keys)
    assert _same_class_data(got, want) and got.power_classes == want.power_classes
    if by:
        assert np.array_equal(h_classes(G, H).class_of, got.class_of)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 15, 17])
def test_cycle_minima_are_the_least_positions_of_the_cycles(n):
    """On a shuffled permutation with three cycles of each length dividing
    n, every position is labelled with the least position of its cycle."""
    rng = np.random.default_rng(n)
    lengths = [d for d in range(1, n + 1) if n % d == 0] * 3
    pos = rng.permutation(sum(lengths))
    P, want = np.empty(pos.size, dtype=np.int32), np.empty(pos.size, dtype=np.int32)
    for lo, length in zip(np.cumsum([0] + lengths), lengths):
        cycle = pos[lo:lo + length]
        P[cycle], want[cycle] = np.roll(cycle, -1), cycle.min()
    assert np.array_equal(groups._cycle_minima(P, n), want)


@pytest.mark.parametrize("mutant", ["outside", "collide"])
def test_conjugation_mutants_are_caught(monkeypatch, capsys, fresh_builds, mutant):
    """A conjugation that sends one key of sp4:2 outside the group, or two
    keys to one key inside it, raises in the class partition and exits 4
    through the CLI.  The collision stays inside the group, so a lookup of
    every conjugate (the partition's former search) finds them all."""
    G = build_group("sp4:2")
    x = U64(G.gens_keys[0])
    image = (groups._transvection(G.ops, {(0, 1): G.ops.ctx.one})
             if mutant == "outside" else G.ops.identity)   # identity: its own conjugate
    real = groups.MatOps.conj

    def broken(self, keys, g):
        out = real(self, keys, g)
        out[keys == x] = image
        return out
    monkeypatch.setattr(groups.MatOps, "conj", broken)
    if mutant == "collide":
        G.index_of(G.ops.conj(G.keys, G.gens_keys[0]))      # no error
    message = "sp4:2: a conjugate is not in the group, or two elements share one"
    with pytest.raises(InternalCheckError, match=message):
        groups._class_data(G, G.gens_keys)
    assert main(["chartab", "sp4:2"]) == EXIT_INTERNAL
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("mutant", ["outside", "collide"])
def test_inverse_mutants_are_caught(monkeypatch, capsys, fresh_builds, mutant):
    """An inverse map that corrupts one inverse of the 720 keys of sp4:2
    (to a key outside the group, or to another element's inverse) is
    refused when the FinGroup is made, and exits 4 through the CLI."""
    G = build_group("sp4:2")
    outsider = groups._transvection(G.ops, {(0, 1): G.ops.ctx.one})
    real = groups.MatOps.inv

    def broken(self, keys):
        out = real(self, keys)
        if out.size == G.order:
            out[1] = outsider if mutant == "outside" else out[0]
        return out
    monkeypatch.setattr(groups.MatOps, "inv", broken)
    message = "sp4:2: the inverses of its keys are not its keys"
    with pytest.raises(InternalCheckError, match=message):
        groups.FinGroup("sp4:2", G.ops, G.keys, G.gens_keys)
    groups._build_cached.cache_clear()                 # the CLI builds anew
    assert main(["chartab", "sp4:2"]) == EXIT_INTERNAL
    assert message in capsys.readouterr().err


def test_a_group_refuses_repeated_or_unsorted_keys():
    """`FinGroup` is the one check that keys are distinct: sl2:4's keys,
    each twice, pass the inverse check (sorted, their inverses are the same
    array) but not this one; nor do its keys in decreasing order."""
    G = build_group("sl2:4")
    for keys in (np.repeat(G.keys, 2), G.keys[::-1]):
        with pytest.raises(InternalCheckError,
                           match="^twice: its keys are not strictly increasing$"):
            groups.FinGroup("twice", G.ops, keys, G.gens_keys)


@pytest.mark.parametrize("spec", ["sp4:2", pytest.param("sp4:4", marks=pytest.mark.slow)])
def test_no_whole_group_lookup(monkeypatch, fresh_builds, spec):
    """Building the group and its classes looks up fewer than |G| keys in
    all: the inverse check and the conjugation permutations are read off
    sorts, not searched for, and no inverse-index array is kept."""
    needles = []
    real = groups.FinGroup.index_of

    def recording(self, keys):
        out = real(self, keys)
        needles.append(out.size)
        return out
    monkeypatch.setattr(groups.FinGroup, "index_of", recording)
    G = build_group(spec)
    conjugacy_classes(G)
    assert needles and sum(needles) < G.order
    assert not hasattr(G, "inv_idx")


@pytest.mark.slow
def test_sp4_build_holds_two_key_arrays(fresh_builds):
    """Building sp4:4 anew (parabolic-p:4 too) allocates less than three
    times its key array at its peak: the keys and the sorted inverses of
    the inverse check, every kernel pass in _CHUNK slices."""
    tracemalloc.start()
    try:
        G = build_group("sp4:4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * G.keys.nbytes, peak / G.keys.nbytes


# a 4 x 4 matrix over GF(4) packs in 32 bits (16 entries of 2 bits), a 2 x 2
# one over GF(16) in 16 and an ext-sp2q2:4 key in 17; 4 x 4 over GF(8) takes 48
KEY_DTYPES = ([(s, np.uint32) for s in (
    "sp4:2", "sl2:16", "s6", "ext-sp2q2:4", "parabolic-p:4", "parabolic-q:4",
    "wreath-sp2:4", "ext-sp2q2-embedded:4", "sp4-sub:4:2", "so4+:4", "so4-:4")]
    + [("sz:8", np.uint64), ("sp4-sub:8:2", np.uint64),
       pytest.param("sp4:4", np.uint32, marks=pytest.mark.slow)])


@pytest.mark.parametrize("spec,dtype", KEY_DTYPES)
def test_keys_take_the_narrowest_dtype_of_their_width(spec, dtype):
    """Every group of the partition cases, sz:8 and sp4-sub:8:2 store their
    keys, byte tables and products in the dtype of their packed width."""
    G = build_group(spec)
    assert G.ops.dtype == dtype and G.keys.dtype == dtype
    assert G.ops.identity.dtype == dtype
    assert G.ops.mul(G.keys[:5], G.keys[1]).dtype == dtype
    assert G.ops.conj(G.keys[:5], G.keys[1]).dtype == dtype
    assert G.ops.inv(G.keys[:5]).dtype == dtype
    if isinstance(G.ops, groups.MatOps):
        assert {t.dtype for t in G.ops._inv_tables} == {np.dtype(dtype)}


def test_a_key_wider_than_the_dtype_raises_and_in_range_uint64_works():
    """A 48-bit key given to a q = 4 group raises instead of wrapping to its
    low 32 bits, which are an element; uint64 keys that fit (perfbench's
    sgp-queries generators, say) are read in the group's dtype."""
    G = build_group("so4+:4")
    x = G.keys[1]
    wide = np.array([int(x) | 1 << 47], dtype=U64)
    for call in (G.contains, G.index_of, lambda k: G.ops.mul(k, x),
                 lambda k: G.ops.mul(x, k), lambda k: G.ops.mul(G.keys[:3], k)):
        with pytest.raises(ValueError, match="a key does not fit in uint32"):
            call(wide)
    keys = G.keys.astype(U64)
    assert G.contains(keys).all()
    assert np.array_equal(G.index_of(keys), np.arange(G.order))
    assert np.array_equal(G.ops.mul(keys, x), G.ops.mul(G.keys, x))
    closed = groups.mulclose(G.ops, np.array(G.gens_keys, dtype=U64), G.order)
    assert closed.dtype == np.uint32 and np.array_equal(closed, G.keys)


@pytest.mark.parametrize("spec,by,r,dtype", [
    ("sp4:2", None, 11, np.uint8), ("sz:8", None, 11, np.uint8),
    ("sp4:2", "parabolic-p:2", 34, np.uint8), ("sp4:2", "trivial", 720, np.uint16)])
def test_class_ids_take_the_narrowest_dtype(spec, by, r, dtype):
    """class_of holds r class ids in np.min_scalar_type(r - 1): uint8 for
    every table (at most MAX_CLASSES = 200 classes), uint16 for the 720
    orbits of sp4:2 under its trivial subgroup."""
    G = build_group(spec)
    if by is None:
        cd = conjugacy_classes(G)
    else:
        H = (subgroup(G, [G.ops.identity], "trivial") if by == "trivial"
             else build_group(by))
        cd = h_classes(G, H)
    assert len(cd) == r and cd.class_of.dtype == dtype
    assert np.array_equal(np.bincount(cd.class_of), cd.sizes)
    assert [int(cd.class_of[i]) for i in cd.reps] == list(range(r))


def test_partition_peak_does_not_grow_with_the_generator_count(monkeypatch):
    """The partition holds one generator's permutation at a time: the
    orbits of parabolic-p:4 under its five generators given four times
    over are the same, and found with a peak (tracemalloc, 256-key slices)
    within 10% of the peak for the five once."""
    G = build_group("parabolic-p:4")
    monkeypatch.setattr(groups, "_CHUNK", 256)
    groups._orbit_partition(G, G.gens_keys)        # the byte tables, outside the trace
    peaks, parts = [], []
    for gens in (G.gens_keys, G.gens_keys * 4):
        tracemalloc.start()
        try:
            parts.append(groups._orbit_partition(G, gens))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert parts[0][:2] == parts[1][:2] and np.array_equal(parts[0][2], parts[1][2])
    assert peaks[1] < 1.1 * peaks[0], peaks


def _partition_peak(G):
    """(ClassData, tracemalloc peak of the partition above its entry)."""
    groups._class_data(G, G.gens_keys)             # the byte tables, outside the trace
    tracemalloc.start()
    try:
        cd = groups._class_data(G, G.gens_keys)
        return cd, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.slow
def test_sp4_partition_holds_under_10_bytes_per_element():
    """The class partition of sp4:4 allocates under 10 bytes per element at
    its peak (tracemalloc, above its entry): uint8 trace fiber ids and
    class ids for the whole group, and for one trace fiber at a time (at
    most 257,024 of the 979,200 keys) its keys, int32 labels and one
    generator's conjugates and their argsort."""
    cd, peak = _partition_peak(build_group("sp4:4"))
    assert len(cd) == 27
    assert peak < 10 * cd.class_of.size, peak / cd.class_of.size


@pytest.mark.slow
@pytest.mark.parametrize("spec,bound", [("so4+:8", 21.2), ("ext-sp2q2:8", 16.6)])
def test_q8_partition_peak_is_no_higher_than_whole_group_union_find(spec, bound):
    """The 64-bit keys of so4+:8 (eight trace fibers) and the two twist
    fibers of ext-sp2q2:8 peak at most at the bytes per element of the
    whole-group union-find the fibers replaced."""
    cd, peak = _partition_peak(build_group(spec))
    assert peak <= bound * cd.class_of.size, peak / cd.class_of.size


def test_fiber_of_is_the_trace_or_the_twist():
    """fiber_of reads the trace of each matrix (as the XOR of the
    polynomial codes of its diagonal) and the twist bit of each ExtOps
    pair."""
    for spec in ("sp4:2", "sl2:16", "so4-:4", "sz:8", "s6"):
        G = build_group(spec)
        ops = G.ops
        want = np.bitwise_xor.reduce(
            ops._poly[np.diagonal(ops.unpack(G.keys), axis1=1, axis2=2)], axis=1)
        got = ops.fiber_of(G.keys)
        assert got.dtype == np.uint8 and np.array_equal(got, want), spec
    ext = build_group("ext-sp2q2:4")
    got = ext.ops.fiber_of(ext.keys)
    assert got.dtype == np.uint8
    assert np.array_equal(got, ext.keys >> ext.ops._tshift)
    assert set(got.tolist()) == {0, 1}


def _sl2_view(ops, key):
    """The per-key route `ExtOps.sl2_view` took: the 2x2 matrix of a
    twist-0 key and its field, None for a twisted key."""
    m, t = ops._split(groups._as_key_array(key, ops.dtype))
    return None if t[0] else (ops._mat.unpack(m)[0], ops.ctx)


@pytest.mark.parametrize("q", [2, 4])
def test_twist_zero_mask_matches_the_per_key_view(q):
    """The keys of twist 0, the index-2 copy of Sp2(q^2) in ext-sp2q2:q,
    are the keys whose fiber is 0, as the per-key view selected them."""
    G = build_group(f"ext-sp2q2:{q}")
    by_view = G.keys[[_sl2_view(G.ops, k) is not None for k in G.keys]]
    by_mask = G.keys[G.ops.fiber_of(G.keys) == 0]
    assert by_mask.size == G.order // 2 and np.array_equal(by_mask, by_view)


def test_fibers_split_the_partition_and_match_one_chunk(monkeypatch):
    """parabolic-p:4 falls into its four trace fibers, and partitioning it
    in 256-key slices gives the same classes as in one pass."""
    G = build_group("parabolic-p:4")
    assert np.unique(G.ops.fiber_of(G.keys)).size == 4
    whole = groups._orbit_partition(G, G.gens_keys)
    monkeypatch.setattr(groups, "_CHUNK", 256)
    sliced = groups._orbit_partition(G, G.gens_keys)
    assert whole[:2] == sliced[:2] and np.array_equal(whole[2], sliced[2])


def test_fiber_id_that_is_not_a_class_function_is_caught(monkeypatch, capsys,
                                                         fresh_builds):
    """A fiber id that reads the off-diagonal entry (0, 1) instead of the
    trace is not kept by conjugation: the partition raises and the CLI
    exits 4."""
    def off_diagonal(self, keys):
        keys = groups._as_key_array(keys, self.dtype)
        return ((keys >> self._shifts[1]) & self._mask).astype(np.uint8)
    monkeypatch.setattr(groups.MatOps, "fiber_of", off_diagonal)
    G = build_group("sp4:2")
    message = "sp4:2: a conjugate .* or it leaves its fiber"
    with pytest.raises(InternalCheckError, match=message):
        groups._class_data(G, G.gens_keys)
    assert main(["chartab", "sp4:2"]) == EXIT_INTERNAL
    assert "or it leaves its fiber" in capsys.readouterr().err


def _order_loop(ops, key):
    """One single-key product per power: the loop element_powers replaced."""
    k, n = U64(key), 1
    while k != ops.identity:
        k = ops.mul(k, key)[0]
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
            acc = G.ops.mul(acc, key)[0]


def _powers_by_mul_ref(ops, keys):
    """The power loop before the running product stayed unpacked: one array
    product per power, `_mul_ref` for a MatOps, unpacking both factors and
    packing the product each time."""
    orders = np.zeros(keys.size, dtype=np.int64)
    powers = [np.full(keys.size, ops.identity, dtype=ops.dtype)]
    acc, t = keys, 1
    while True:
        orders[(acc == ops.identity) & (orders == 0)] = t
        if orders.all():
            return [int(n) for n in orders], powers
        powers.append(acc)
        acc = ops.mul(acc, keys)
        t += 1


GOLDEN_PARAMS = [pytest.param(s, marks=[pytest.mark.slow] * (s in SLOW_GOLDEN))
                 for s in GOLDEN_SPECS]


@pytest.mark.parametrize("spec", GOLDEN_PARAMS)
def test_unpacked_powers_match_mul_ref(spec):
    """The orders and powers of every class representative of a golden
    group equal those of the `_mul_ref` loop."""
    G = build_group(spec)
    reps = G.keys[list(conjugacy_classes(G).reps)]
    got, want = element_powers(G.ops, reps), _powers_by_mul_ref(G.ops, reps)
    assert got[0] == want[0] and len(got[1]) == len(want[1])
    assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))


@pytest.mark.parametrize("spec", GOLDEN_PARAMS)
def test_frobenius_carried_partition_matches_the_uncarried_one(spec):
    """Every golden group's classes, with the labels of trace fibers carried
    along F where the group is F-stable, equal the partition of every
    fiber by conjugation."""
    G = build_group(spec)
    got = groups._class_data(G, G.gens_keys, G)
    want = groups._class_data(G, G.gens_keys)
    assert _same_class_data(got, want) and got.power_classes == want.power_classes
    assert got.class_of.dtype == want.class_of.dtype


@pytest.mark.parametrize("spec,by", [
    ("sl2:16", None), pytest.param("sp4:4", "so4-:4", marks=pytest.mark.slow)])
def test_frobenius_carry_needs_an_f_stable_conjugating_group(spec, by):
    """F maps the generators of H (a cyclic subgroup of order 15 of sl2:16,
    or so4-:4) into G, but not into H, so the orbits under H are not
    carried along F: h_classes equals the uncarried partition, and a
    carry that checked G alone would not."""
    G = build_group(spec)
    if by:
        H = build_group(by)
    else:
        H = next(H for H in (cyclic_subgroup(G, k) for k in G.keys
                             if element_order(G.ops, k) == 15)
                 if not H.contains(G.ops.frobenius(H.gens_keys)).all())
    F = G.ops.frobenius
    assert G.contains(F(H.gens_keys)).all() and not H.contains(F(H.gens_keys)).all()
    want = groups._class_data(G, H.gens_keys)
    assert _same_class_data(h_classes(G, H), want)
    assert not _same_class_data(groups._class_data(G, H.gens_keys, G), want)


def test_frobenius_image_off_its_fiber_is_caught(monkeypatch, capsys, fresh_builds):
    """A Frobenius that moves one key of the carried trace fiber of
    wreath-sp2:4 off it is refused by the carry's check and exits 4."""
    G = build_group("wreath-sp2:4")
    real = groups.MatOps.frobenius

    def broken(self, keys):
        out = real(self, keys)
        if out.size > 1:
            out[0] = self.identity
        return out
    monkeypatch.setattr(groups.MatOps, "frobenius", broken)
    message = "wreath-sp2:4: the Frobenius image of a trace fiber is not the fiber"
    with pytest.raises(InternalCheckError, match=message):
        conjugacy_classes(G)
    assert main(["chartab", "wreath-sp2:4"]) == EXIT_INTERNAL
    assert "the Frobenius image of a trace fiber" in capsys.readouterr().err


@pytest.mark.parametrize("chunk", [3, 4, 9])
def test_sorted_onto_refuses_an_image_with_one_extra_key(monkeypatch, chunk):
    """The checked sort gives the order that sorts a permutation of the 9
    keys onto them, compared in slices of 3, 4 or 9 keys, and refuses any
    other image: one with a key missing, a key twice, or one extra key
    after all of them.  When the slice size divides the number of keys,
    that last image agrees with the keys on every slice, so only the size
    check sees it."""
    monkeypatch.setattr(groups, "_CHUNK", chunk)
    keys = np.arange(9, dtype=np.uint64) * 3
    img = keys[[4, 0, 7, 2, 5, 1, 8, 3, 6]]
    by = groups._sorted_onto(img, keys, "not onto")
    assert np.array_equal(img[by], keys)
    for bad in (img[1:], np.append(img[1:], img[0] + 1), np.append(img[1:], img[1]),
                np.append(img, keys[-1] + 1)):
        with pytest.raises(InternalCheckError, match="^not onto$"):
            groups._sorted_onto(bad, keys, "not onto")


# -- the generating pair of sp4:q ---------------------------------------------

def _same_class_data(a, b):
    return (a.sizes == b.sizes and a.reps == b.reps
            and np.array_equal(a.class_of, b.class_of) and a.orders == b.orders
            and a.inverse_class == b.inverse_class
            and a.identity_class == b.identity_class and a.power_classes == b.power_classes)


@pytest.mark.parametrize("q", [2, pytest.param(4, marks=pytest.mark.slow)])
def test_sp4_pair_matches_the_six_generators(q):
    """The oracle is the closure of all of `_sp4_gens`, the generating set
    the pair replaced: the same keys and the same class partition."""
    G = build_group(f"sp4:{q}")
    assert len(G.gens_keys) == 2
    old = groups._generated(f"sp4:{q}", G.ops, groups._sp4_gens(G.ops), G.order)
    assert np.array_equal(G.keys, old.keys)
    assert _same_class_data(conjugacy_classes(G), conjugacy_classes(old))


def test_sp4_pair_that_generates_a_proper_subgroup_is_caught(monkeypatch):
    """g0 g2 and g1 g3 generate only A6 (360 elements) inside Sp4(2) = S6."""
    def mutant(ops):
        g = groups._sp4_gens(ops)
        return [ops.mul(g[0], g[2])[0], ops.mul(g[1], g[3])[0]]
    monkeypatch.setattr(groups, "_sp4_pair", mutant)
    with pytest.raises(InternalCheckError, match="enumerated 360 elements"):
        groups._build_cached.__wrapped__("sp4", (2,))


def _unscaled_points(ops, keys, c):
    """A broken point map: column c as it stands, so <e> and <gamma e>, e
    the basis vector of column c, are two points with one coset."""
    return [tuple(col) for col in ops.unpack(keys)[:, :, c].tolist()]


@pytest.mark.parametrize("mutant,q,message", [
    pytest.param(m, q, msg, id=m) for m, q, msg in [
        ("unscaled-points", 4, "sp4:4: its keys are not strictly increasing"),
        ("line-stabilizer", 2, "sp4:2: a Schreier generator is not in parabolic-q:2"),
        ("closure-cut-short", 4, "sp4:4: enumerated 510 elements, closed form 979200"),
    ]])
def test_sp4_coset_mutants_are_caught(monkeypatch, capsys, fresh_builds,
                                      mutant, q, message):
    """Each broken step of the coset build raises, and exits 4 through the
    CLI: a point map that sends two points to one coset (its keys repeat,
    which `FinGroup` refuses), P swapped for parabolic-q:q (which does not
    fix <e1>), and a Schreier closure that keeps only its first generator."""
    build_group(f"parabolic-q:{q}")      # P and its image from the real kernel
    if mutant == "unscaled-points":
        monkeypatch.setattr(groups, "_points", _unscaled_points)
    elif mutant == "line-stabilizer":
        real_build = groups._build_cached
        monkeypatch.setattr(groups, "_build_cached", lambda name, args: real_build(
            name.replace("parabolic-p", "parabolic-q"), args))
    else:
        real_close = groups.mulclose
        monkeypatch.setattr(groups, "mulclose",
                            lambda ops, gens, m: real_close(ops, gens[:1], m))
    with pytest.raises(InternalCheckError, match=message):
        build_group(f"sp4:{q}")
    assert main(["chartab", f"sp4:{q}"]) == EXIT_INTERNAL
    assert message in capsys.readouterr().err


def test_sp4_4_closes_nothing_larger_than_its_point_stabilizer(monkeypatch,
                                                               fresh_builds):
    """sp4:4 is the 85 cosets of parabolic-p:4 (11,520 elements); mulclose
    only builds sl2:4 and closes Schreier generators inside the Levi
    subgroup of that P and inside P."""
    sizes = []
    real = groups.mulclose

    def recording(ops, gens, max_order):
        keys = real(ops, gens, max_order)
        sizes.append(keys.size)
        return keys
    monkeypatch.setattr(groups, "mulclose", recording)
    assert build_group("sp4:4").order == 979_200
    assert sizes and max(sizes) == 11_520


@pytest.mark.slow
def test_scan_builds_parabolic_p_once(monkeypatch, fresh_builds):
    """The scan's parabolic-p:4 row is the P that built sp4:4, from the
    cache; the one other parabolic-p built is parabolic-p:2, the P of sp4:2,
    the source of sp4-sub:4:2."""
    calls = []
    arity, real, order = groups._SPECS["parabolic-p"]
    monkeypatch.setitem(groups._SPECS, "parabolic-p",
                        (arity, lambda q, m: calls.append(q) or real(q, m), order))
    scan_maximal_sp4(4)
    assert calls == [4, 2]


# -- generator-built subgroups of sp4:q --------------------------------------

def _filter_oracle(spec):
    """The construction the builders replaced: enumerate sp4:q and keep the
    flag stabilizer, the form stabilizer, or the matrices over GF(q0),
    whose entries are the codes that x -> x^q0 fixes."""
    name, args = parse_group_spec(spec)
    G = build_group(f"sp4:{args[0]}")
    ops, ctx = G.ops, G.ops.ctx
    mats = ops.unpack(G.keys)
    if name == "sp4-sub":
        fixed = np.flatnonzero(ctx.lut_frob(args[1].bit_length() - 1) == np.arange(ctx.q))
        keep = np.isin(mats, fixed).all(axis=(1, 2))
    elif name == "parabolic-p":
        keep = (mats[:, 1, 0] == 0) & (mats[:, 2, 0] == 0) & (mats[:, 3, 0] == 0)
    elif name == "parabolic-q":
        keep = ((mats[:, 2, 0] == 0) & (mats[:, 3, 0] == 0)
                & (mats[:, 2, 1] == 0) & (mats[:, 3, 1] == 0))
    else:
        keep = _keeps_q_by_chain(ctx, name, mats)
    return G.keys[keep]


def _keeps_q_by_chain(ctx, name, mats):
    """Q(M e_j) = Q(e_j) on every column, Q as in the README, by the
    lut_mul/lut_add chain the pair table replaced in `_build_so4`."""
    mul, add = ctx.lut_mul, ctx.lut_add
    a = next(c for c in range(1, ctx.q) if ctx.trace_bit(c))
    qvals = [0, 0, 0, 0] if name == "so4+" else [0, ctx.one, a, 0]
    keep = np.ones(len(mats), dtype=bool)
    for j in range(4):
        col = mats[:, :, j]
        qv = add[mul[col[:, 0], col[:, 3]], mul[col[:, 1], col[:, 2]]]
        if name == "so4-":
            qv = add[qv, mul[col[:, 1], col[:, 1]]]
            qv = add[qv, mul[np.full(len(mats), a, dtype=np.uint8),
                             mul[col[:, 2], col[:, 2]]]]
        keep &= qv == qvals[j]
    return keep


SUBGROUPS_Q2 = ["parabolic-p:2", "parabolic-q:2", "so4+:2", "so4-:2"]
SUBGROUPS_Q4 = ["parabolic-p:4", "parabolic-q:4", "so4+:4", "so4-:4", "sp4-sub:4:2"]


@pytest.mark.parametrize("spec", SUBGROUPS_Q2 + [
    pytest.param(s, marks=pytest.mark.slow) for s in SUBGROUPS_Q4])
def test_generated_subgroup_matches_filter(spec):
    assert np.array_equal(build_group(spec).keys, _filter_oracle(spec))


def _closed_with(spec, ops, gens, order, cond):
    """The retired closure builder with a condition: the closure of gens
    (`_generated`), every key then checked by `_check_members`."""
    G = groups._generated(spec, ops, gens, order)
    groups._check_members(spec, ops, G.keys, cond)
    return G


def _closure_oracle(spec):
    """The closure builder that a row replaced: parabolic-p and
    parabolic-q from the generators of sp4:q without the root element that
    moves <e1> or <e1, e2>; wreath-sp2 from sl2:q's generators on <e1, e4>
    and the swap of the planes <e1, e4> and <e2, e3>; so4+ and so4- from
    the reflections x -> x + (B(x, v) / Q(v)) v in the nonsingular v of a
    fixed list, plus the plane swap for so4+:2, where reflections give 36
    of the 72 elements (Taylor, The Geometry of the Classical Groups, ch.
    11); sp4-sub:q:q0 from the generators of sp4:q0, entries mapped by
    subfield_embed.  Each but wreath-sp2 checked by the row's own
    condition (`_closed_with`).  The two ext rows by `_ext_closure_oracle`."""
    name, args = parse_group_spec(spec)
    q = args[0]
    if name.startswith("ext-sp2q2"):
        return _ext_closure_oracle(spec, q, groups._closed_order(name, args))
    ctx = gfield.field_ctx(q.bit_length() - 1)
    ops, order = groups.mat_ops(ctx, 4, "symplectic"), groups._closed_order(name, args)
    o, g = ctx.one, ctx.gamma
    swap = ops.pack_one([[0, o, 0, 0], [o, 0, 0, 0], [0, 0, 0, o], [0, 0, o, 0]])
    if name == "sp4-sub":
        small = groups.mat_ops(gfield.field_ctx(args[1].bit_length() - 1), 4, "symplectic")
        lut = np.array([gfield.subfield_embed(small.ctx, ctx, a) for a in range(args[1])],
                       dtype=np.uint8)
        return _closed_with(spec, ops, ops.pack(lut[small.unpack(groups._sp4_gens(small))]),
                            order, lambda m: np.isin(m, lut).all(axis=(1, 2)))
    if name == "parabolic-p":
        gens = groups._sp4_gens(ops)
        del gens[1]
        return _closed_with(spec, ops, gens, order, groups._zero_at((1, 0), (2, 0), (3, 0)))
    if name == "parabolic-q":
        gens = groups._sp4_gens(ops)
        del gens[3]
        return _closed_with(spec, ops, gens, order,
                            groups._zero_at((2, 0), (3, 0), (2, 1), (3, 1)))
    if name == "wreath-sp2":
        gens = [ops.pack_one([[a, 0, 0, b], [0, o, 0, 0], [0, 0, o, 0], [c, 0, 0, d]])
                for (a, b), (c, d) in groups._sl2_gens(ctx)]
        return groups._generated(spec, ops, gens + [swap], order)
    mul, add = ctx.lut_mul, ctx.lut_add
    a = next(c for c in range(1, ctx.q) if ctx.trace_bit(c))

    def Q(v):
        s = add[mul[v[0], v[3]], mul[v[1], v[2]]]
        return s if name == "so4+" else add[add[s, mul[v[1], v[1]]], mul[a, mul[v[2], v[2]]]]

    vecs = [(o, 0, 0, o), (o, 0, 0, g), (0, o, 0, 0), (0, o, g, 0), (0, g, o, 0),
            (o, o, 0, o), (o, o, o, 0)]
    gens = []
    for v in dict.fromkeys(v for v in vecs if Q(v)):   # gamma = 1 when q = 2
        c = ctx.inv(int(Q(v)))
        gens.append(ops.pack_one(
            [[ctx.add(o if i == j else 0, ctx.mul(c, ctx.mul(v[i], v[3 - j])))
              for j in range(4)] for i in range(4)]))
    if spec == "so4+:2":
        gens.append(swap)
    return _closed_with(spec, ops, gens, order, groups._so4_form(q, name[-1]))


def _ext_closure_oracle(spec, q, order):
    """The closure builders the two ext rows replaced: ext-sp2q2:q from
    the generators of SL2(q^2) and the twist (1, 1); ext-sp2q2-embedded:q
    from their images, each a 4 x 4 matrix over GF(q) built entry by entry
    from the closed forms in t and n, its generators checked symplectic
    and nothing else."""
    if spec.startswith("ext-sp2q2:"):
        return groups._generated(spec, groups._ext_ops_cached(q), _ext_gens(q), order)
    e = q.bit_length() - 1
    ctx, ctx2 = gfield.field_ctx(e), gfield.field_ctx(2 * e)
    g = ctx2.gamma

    def down(w):   # a nonzero code of GF(q^2) that lies in GF(q), as a GF(q) code
        assert w and (w - 1) % (q + 1) == 0
        return 1 + (w - 1) // (q + 1)

    t = down(ctx2.add(g, gfield.frobenius(ctx2, g, e)))
    n = down(ctx2.pow(g, q + 1))
    mul, one, ti, ni = ctx.mul, ctx.one, ctx.inv(t), ctx.inv(n)
    coords = {0: (0, 0), ctx2.one: (one, 0), g: (0, one),
              ctx2.inv(g): (mul(t, ni), ni)}   # g^-1 = (g + t) / n

    def block(z):
        u, v = coords[z]
        return [[u, mul(n, v)], [v, ctx.add(u, mul(t, v))]]

    def image(rows2):   # a 2x2 matrix over GF(q^2) as a 4x4 one over GF(q)
        return [sum((block(z)[i] for z in row), []) for row in rows2 for i in (0, 1)]

    def diag(a, b):
        return [r + [0, 0] for r in a] + [[0, 0] + r for r in b]

    ops = groups.mat_ops(ctx, 4, "symplectic")
    frob = [[one, t], [0, one]]
    t_key = ops.pack_one(diag(frob, [[ti, 0], [0, ti]]))
    t_inv = ops.pack_one(diag(frob, [[t, 0], [0, t]]))
    gen_rows = [image(rows) for rows in groups._sl2_gens(ctx2)] + [diag(frob, frob)]
    gens = [ops.mul(ops.mul(t_inv, ops.pack_one(r)), t_key)[0] for r in gen_rows]
    assert groups._symplectic(ops, ops.unpack(gens)).all()
    return groups._generated(spec, ops, gens, order)


IMAGES = ["parabolic-q", "so4+", "so4-"]
EXT_ROWS = ["ext-sp2q2", "ext-sp2q2-embedded"]


@pytest.mark.parametrize("q", [2, 4, pytest.param(8, marks=pytest.mark.slow)])
@pytest.mark.parametrize("name", IMAGES + EXT_ROWS)
def test_images_have_the_keys_of_their_closure_builders(fresh_builds, name, q):
    """The images, and the two ext rows (a coset union and its image), have
    the keys of the closure builders they replaced (`_closure_oracle`)."""
    spec = f"{name}:{q}"
    assert np.array_equal(build_group(spec).keys, _closure_oracle(spec).keys)


@pytest.mark.parametrize("q,q0", [(4, 2), (8, 2), pytest.param(16, 4, marks=pytest.mark.slow)])
def test_sp4_sub_has_the_keys_of_its_closure_builder(fresh_builds, q, q0):
    spec = f"sp4-sub:{q}:{q0}"
    assert np.array_equal(build_group(spec).keys, _closure_oracle(spec).keys)


@pytest.mark.parametrize("q", [2, 4, pytest.param(8, marks=pytest.mark.slow)])
@pytest.mark.parametrize("name", ["parabolic-p", "wreath-sp2"])
def test_cosets_and_block_sums_match_their_retired_closures(fresh_builds, name, q):
    """parabolic-p:q (the cosets of its Levi subgroup) and wreath-sp2:q
    (block sums of sl2:q and their swap coset) have the keys, the
    generators and the class data of the closures they replaced
    (`_closure_oracle`)."""
    spec = f"{name}:{q}"
    G, old = build_group(spec), _closure_oracle(spec)
    assert np.array_equal(G.keys, old.keys) and G.gens_keys == old.gens_keys
    assert _same_class_data(conjugacy_classes(G), conjugacy_classes(old))


@pytest.mark.parametrize("q", [2, 4, pytest.param(8, marks=pytest.mark.slow)])
def test_parabolic_and_wreath_close_at_most_2_13_elements(monkeypatch, fresh_builds, q):
    """Built anew, parabolic-p:q and wreath-sp2:q make no `mulclose` call
    that closes more than 2^13 elements: it closes sl2:q and, inside the
    Levi subgroup of parabolic-p:q (3,528 elements at q = 8), its Schreier
    generators, and nothing else."""
    sizes = []
    real = groups.mulclose

    def recording(ops, gens, max_order):
        keys = real(ops, gens, max_order)
        sizes.append(keys.size)
        return keys
    monkeypatch.setattr(groups, "mulclose", recording)
    for name in ("parabolic-p", "wreath-sp2"):
        assert build_group(f"{name}:{q}").order == groups._closed_order(name, (q,))
    assert sizes and max(sizes) <= 1 << 13
    assert max(sizes) == groups._closed_order("parabolic-p", (q,)) // q**3


def test_images_close_nothing(monkeypatch, fresh_builds):
    """Once parabolic-p, wreath-sp2 and sl2:q^2 are built, the two ext rows
    and parabolic-q, so4+ and so4- are built at q = 2 and 4, and
    sp4-sub:4:2 and sp4-sub:8:2 from sp4:2, with `mulclose` raising."""
    for q in (2, 4):
        for source in ("parabolic-p", "wreath-sp2"):
            build_group(f"{source}:{q}")
        build_group(f"sl2:{q * q}")
    build_group("sp4:2")
    monkeypatch.setattr(groups, "mulclose", lambda *a: pytest.fail("mulclose was called"))
    for q in (2, 4):
        for name in EXT_ROWS + IMAGES:
            assert build_group(f"{name}:{q}").order == groups._closed_order(name, (q,))
        assert build_group(f"ext-sp2q2-embedded:{q}").source[0] is build_group(f"ext-sp2q2:{q}")
    for q in (4, 8):
        assert build_group(f"sp4-sub:{q}:2").source[0] is build_group("sp4:2")


@pytest.mark.parametrize("q", [2, 4, pytest.param(8, marks=pytest.mark.slow)])
def test_images_by_tau_alone_run_no_conjugation_pass(monkeypatch, fresh_builds, q):
    """Where t_v = 1 (every tau image at q <= 4; parabolic-q and so4+ at
    q = 8) the image's map is tau alone: `MatOps.conj` is never called,
    not even in the transvection search."""
    monkeypatch.setattr(groups.MatOps, "conj", lambda *a: pytest.fail("conj was called"))
    for name in IMAGES if q <= 4 else IMAGES[:2]:
        assert build_group(f"{name}:{q}").order == groups._closed_order(name, (q,))


@pytest.mark.parametrize("spec,dtype", [("parabolic-q:2", np.uint8), ("so4-:4", np.uint16),
                                        ("sp4-sub:8:2", np.uint16),
                                        pytest.param("parabolic-q:8", np.uint32,
                                                     marks=pytest.mark.slow)])
def test_an_image_keeps_its_argsort_in_the_narrowest_dtype(fresh_builds, spec, dtype):
    """The kept argsort indexes the source in np.min_scalar_type(order - 1):
    7.2 MB for parabolic-q:8's 1,806,336 keys, not int64's 14.5 MB."""
    H = build_group(spec)
    S, aut, by = H.source
    assert by.dtype == dtype == np.min_scalar_type(S.order - 1)
    assert np.array_equal(H.keys, aut(S.keys[by]))


@pytest.mark.parametrize("q", [2, 4, pytest.param(8, marks=pytest.mark.slow)])
def test_so4_minus_takes_the_first_transvection_that_keeps_its_form(q):
    """so4-:q is t_v tau^-1(ext-sp2q2-embedded:q) t_v for the first v in
    code order under which the generators keep so4-'s form: v = 0 at
    q <= 4, and gamma^2 e3 at q = 8, where t_v = 1 + gamma^4 E_32."""
    H, S = build_group(f"so4-:{q}"), build_group(f"ext-sp2q2-embedded:{q}")
    ops, ctx = H.ops, H.ops.ctx
    img = ops.graph_aut(S.gens_keys)
    for _ in range(q.bit_length() - 2):
        img = ops.frobenius(img)
    t = groups._transvection(ops, {(2, 1): ctx.pow(ctx.gamma, 4)} if q == 8 else {})
    assert H.gens_keys == [int(k) for k in ops.conj(img, t)]


def _build_with(spec, extra):
    """Run the spec's builder (uncached) with `extra` keys slipped into its
    coset union after the coset fill, or in place of as many of an image's
    keys, as a broken kernel might."""
    name, args = parse_group_spec(spec)
    real_cosets, real_image = groups._orbit_cosets, groups._image

    def image(label, S, ops, aut, cond):
        def leaky(keys):                 # the map's pass, not its images of the generators
            out = aut(keys)
            if out.size > 16:
                out[:extra.size] = extra
            return out
        return real_image(label, S, ops, leaky, cond)
    groups._orbit_cosets = lambda *a: np.union1d(real_cosets(*a), extra)
    groups._image = image
    try:
        return groups._build_cached.__wrapped__(name, args)
    finally:
        groups._orbit_cosets, groups._image = real_cosets, real_image


def _outsiders(spec):
    """Two keys outside the spec's group: a generator of sp4:q (a root
    element that moves the flag, a symplectic element that does not keep
    Q, or one that is not over the subfield), and the transvection
    I + E_12, which is not symplectic but passes every other condition."""
    H = build_group(spec)
    sym = next(g for g in groups._sp4_gens(H.ops) if not H.contains(g)[0])
    return [sym, groups._transvection(H.ops, {(0, 1): H.ops.ctx.one})]


@pytest.mark.parametrize("spec", SUBGROUPS_Q2 + SUBGROUPS_Q4)
def test_membership_rejects_outsiders(spec):
    assert _build_with(spec, np.array([], dtype=U64)).order == build_group(spec).order
    for key in _outsiders(spec):
        with pytest.raises(InternalCheckError, match="1 enumerated elements fail"):
            _build_with(spec, np.array([key], dtype=U64))


@pytest.mark.slow
@pytest.mark.parametrize("spec", SUBGROUPS_Q4)
def test_membership_rejects_every_sampled_outsider(spec):
    """200 keys of sp4:4 outside the subgroup: each one is counted."""
    G, H = build_group("sp4:4"), build_group(spec)
    rng = np.random.default_rng(3)
    out = G.keys[~np.isin(G.keys, H.keys)]
    sample = np.unique(out[rng.choice(out.size, 200, replace=False)])
    with pytest.raises(InternalCheckError, match="200 enumerated elements fail"):
        _build_with(spec, sample)


def _old_symplectic(ops, keys):
    """The product check the Gram forms replaced: M^-1 M = 1, with M^-1 =
    J M^T J read from the inverse table."""
    return ops.mul(ops.inv(keys), keys) == ops.identity


def _symplectic_by_loop(ops, m):
    """The Gram check the pair table replaced: each of the six forms
    B(M e_i, M e_j) = sum_k M[k, i] M[3-k, j], i < j, by lut_mul/lut_add
    gathers, against J[i, j]."""
    mul, add = ops.ctx.lut_mul, ops.ctx.lut_add
    ok = np.ones(len(m), dtype=bool)
    for i in range(4):
        for j in range(i + 1, 4):
            b = mul[m[:, 0, i], m[:, 3, j]]
            for k in range(1, 4):
                b = add[b, mul[m[:, k, i], m[:, 3 - k, j]]]
            ok &= b == (ops.ctx.one if i + j == 3 else 0)
    return ok


def _cond_of(spec, monkeypatch):
    """The `cond` that the spec's builder hands to `_image` or, after its
    coset union, to `_check_members`, both stubbed, so no image is
    enumerated and no key checked."""
    seen = []
    monkeypatch.setattr(groups, "_check_members", lambda label, ops, keys, cond:
                        seen.append(cond))
    monkeypatch.setattr(groups, "_image", lambda label, S, ops, aut, cond:
                        seen.append(cond))
    name, args = parse_group_spec(spec)
    groups._SPECS[name][1](*args, groups._closed_order(name, args))
    return seen[0]


def _one_entry_mutants(ops, keys, rng):
    """Each key with one entry, at a seeded place, changed to another code."""
    m, n = ops.unpack(keys), len(keys)
    m[np.arange(n), rng.integers(0, 4, n), rng.integers(0, 4, n)] ^= rng.integers(
        1, ops.ctx.q, n).astype(np.uint8)
    return ops.pack(m)


@pytest.mark.parametrize("spec", SUBGROUPS_Q2 + SUBGROUPS_Q4 + [
    pytest.param(s, marks=pytest.mark.slow)
    for s in ["parabolic-p:8", "parabolic-q:8", "so4+:8", "so4-:8", "sp4-sub:8:2"]])
def test_pair_table_checks_match_the_retired_chains(spec, monkeypatch):
    """On every key of a builder with a `cond`, on 2000 seeded one-entry
    mutants of its keys and on 2000 random matrices, the pair-table Gram
    check agrees with the retired lut_mul/lut_add loop and with the
    product check, and the so4 form check (the builder's `cond`) with the
    old chain of Q; every key passes, and some mutant fails each."""
    H = build_group(spec)
    ops, rng = H.ops, np.random.default_rng(31)
    cond = _cond_of(spec, monkeypatch)
    so4 = spec.split(":")[0] if spec.startswith("so4") else None
    sample = H.keys[rng.integers(0, H.order, 2000)]
    rand = ops.pack(rng.integers(0, ops.ctx.q, size=(2000, 4, 4), dtype=np.uint8))
    for keys, members in ((H.keys, True), (_one_entry_mutants(ops, sample, rng), False),
                          (rand, False)):
        gram, form = [], []
        for lo in range(0, keys.size, 1 << 16):
            k = keys[lo:lo + (1 << 16)]
            m = ops.unpack(k)
            gram.append(groups._symplectic(ops, m))
            assert np.array_equal(gram[-1], _symplectic_by_loop(ops, m))
            assert np.array_equal(gram[-1], _old_symplectic(ops, k))
            if so4:
                form.append(cond(m))
                assert np.array_equal(form[-1], _keeps_q_by_chain(ops.ctx, so4, m))
        assert np.concatenate(gram).all() == members
        if so4:
            assert np.concatenate(form).all() == members


@pytest.mark.parametrize("spec", ["sp4:2", "parabolic-p:4", "so4+:4", "sz:8"])
def test_gram_forms_match_the_product_check(spec):
    """Over GF(2), GF(4) and GF(8): random products of group elements
    (symplectic), the same with one entry changed, and random matrices are
    symplectic by the six Gram forms exactly when J M^T J M = 1."""
    G = build_group(spec)
    ops, rng = G.ops, np.random.default_rng(23)
    sym = ops.mul(G.keys[rng.integers(0, G.order, 400)],
                  G.keys[rng.integers(0, G.order, 400)])
    m = ops.unpack(sym)
    rows, cols = rng.integers(0, 4, 400), rng.integers(0, 4, 400)
    m[np.arange(400), rows, cols] ^= rng.integers(1, ops.ctx.q, 400).astype(np.uint8)
    codes = rng.integers(0, ops.ctx.q, size=(400, 4, 4), dtype=np.uint8)
    keys = np.concatenate([sym, ops.pack(m), ops.pack(codes)])
    got = groups._symplectic(ops, ops.unpack(keys))
    assert np.array_equal(got, _old_symplectic(ops, keys))
    assert got[:400].all() and not got[400:].all()


def test_non_symplectic_key_exits_4(monkeypatch, capsys, fresh_builds):
    """The transvection I + E_12 keeps the flag of parabolic-p:2 but is not
    symplectic: slipped into its coset union, it fails the Gram forms and
    `chartab` exits 4."""
    real = groups._orbit_cosets

    def with_outsider(label, gens, c, H, order):
        bad = groups._transvection(H.ops, {(0, 1): H.ops.ctx.one})
        return np.union1d(real(label, gens, c, H, order), np.array([bad], dtype=H.ops.dtype))
    monkeypatch.setattr(groups, "_orbit_cosets", with_outsider)
    assert main(["chartab", "parabolic-p:2"]) == EXIT_INTERNAL
    assert ("parabolic-p:2: 1 enumerated elements fail its defining condition"
            in capsys.readouterr().err)


def test_membership_check_fires_under_python_O():
    script = (
        "import numpy as np\n"
        "import sgplab.groups as g\n"
        "from sgplab.errors import InternalCheckError\n"
        "real, real_image = g._orbit_cosets, g._image\n"
        "def image(label, S, ops, aut, cond):\n"
        "    def leaky(keys):\n"
        "        out = aut(keys)\n"
        "        if out.size > 16:\n"
        "            out[0] = bad\n"
        "        return out\n"
        "    return real_image(label, S, ops, leaky, cond)\n"
        "for spec in %r:\n"
        "    H = g.build_group(spec)\n"
        "    bad = next(k for k in g._sp4_gens(H.ops) if not H.contains(k)[0])\n"
        "    g._orbit_cosets = lambda *a: np.union1d(real(*a), [bad])\n"
        "    g._image = image\n"
        "    name, args = g.parse_group_spec(spec)\n"
        "    try:\n"
        "        g._build_cached.__wrapped__(name, args)\n"
        "    except InternalCheckError as exc:\n"
        "        print('caught', exc)\n"
        "    g._orbit_cosets, g._image = real, real_image\n") % (SUBGROUPS_Q4,)
    src = str(Path(sgplab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "caught " + s.split(":")[0] for s in SUBGROUPS_Q4], res.stdout


def test_refused_before_enumeration(monkeypatch):
    def fail(*args):
        raise AssertionError("mulclose was called")
    monkeypatch.setattr(groups, "mulclose", fail)
    asked = []
    real_build = groups.build_group
    monkeypatch.setattr(groups, "build_group", lambda spec, **kw: (
        asked.append(spec) or real_build(spec, **kw)))
    with pytest.raises(ResourceBoundError):
        build_group("sp4:8")
    # the closed form is checked before P = parabolic-p:8 (1,806,336
    # elements, under the default bound) is asked for
    assert asked == []
    with pytest.raises(ResourceBoundError):
        build_group("parabolic-p:8", max_order=10**6)


@pytest.mark.parametrize("spec,order", [("sl2:16", 4080), ("s6", 720), ("a6", 360),
                                        ("sp4-sub:8:2", 720)])
def test_refusal_names_the_spec_and_its_closed_form(monkeypatch, spec, order):
    """`build_group` refuses an order above the bound before anything is
    built, the s6 alias and A6 too, naming the spec it was given."""
    def no_build(*args):
        raise AssertionError("a group was built")
    monkeypatch.setattr(groups, "_build_cached", no_build)
    message = f"{spec}: order {order} exceeds the enumeration bound 100"
    with pytest.raises(ResourceBoundError, match=f"^{re.escape(message)}$"):
        build_group(spec, max_order=100)


@pytest.mark.parametrize("spec", ["trivial", "s6", "a6", "sl2:4", "sp4:2", "so4-:2"])
def test_the_bound_is_not_part_of_the_build_cache_key(spec):
    assert build_group(spec) is build_group(spec, max_order=10**6)


def test_each_spec_order_is_evaluated_once(monkeypatch, fresh_builds):
    """Builds of a spec, the cache miss and the hits, evaluate its order once."""
    calls, real = [], PolyQ.eval_int
    monkeypatch.setattr(PolyQ, "eval_int", lambda self, q: calls.append(q) or real(self, q))
    for _ in range(5):
        build_group("sl2:4")
        build_group("sl2:8", max_order=1000)
    assert calls == [4, 8]


def test_the_suzuki_rule_is_written_once(capsys):
    """`suzuki_r`, r = sqrt(2q) at odd e, is read with each caller's own
    bound: sz:2 (order 20) builds, Sp4(2) has no sz row, and the degree
    list needs q >= 8; at q = 8 and 32 all read r = 4 and 8."""
    assert main(["chartab", "sz:2"]) == EXIT_OK
    assert main(["families", "suzuki", "2"]) == EXIT_USAGE
    assert "needs q = 2^(2n+1), n >= 1, got 2" in capsys.readouterr().err
    assert [groups.suzuki_r(e) for e in range(1, 7)] == [2, None, 4, None, 8, None]
    assert [[t for s, _, ts, *_ in groups.MAXIMAL_ROWS if s[:2] == "sz" for t in ts(e)]
            for e in (1, 3, 5)] == [[], [4], [8]]
    assert [sgplab.families._suzuki_r(q) for q in (8, 32)] == [4, 8]


@pytest.mark.parametrize("spec", ["trivial", "s6", "a6", "sl2:2", "sp4:2"])
def test_every_spec_is_checked_against_its_closed_form(monkeypatch, fresh_builds, spec):
    """`_build_cached` checks the group of every spec, those that close no
    generators of their own too, against the order in its `_SPECS` row."""
    name, args = parse_group_spec(spec)
    arity, build, _ = groups._SPECS[name]
    n = groups._closed_order(name, args)
    monkeypatch.setitem(groups._SPECS, name, (arity, build, PolyQ(n + 1)))
    groups._closed_order.cache_clear()   # the order cached from the real table
    with pytest.raises(InternalCheckError, match=f"enumerated {n} elements, closed form {n + 1}"):
        build_group(spec)


def test_a_closure_that_outgrows_its_closed_form_is_internal_error(monkeypatch, capsys,
                                                                   fresh_builds):
    """sl2:4 with diag(gamma, 1) among its generators closes towards GL2(4)
    (180 keys); its closure stops at the first round past its closed form
    60 and raises InternalCheckError (exit 4), not a resource bound, before
    its keys make a group (whose inverse check would fail too)."""
    real = groups._sl2_gens
    monkeypatch.setattr(groups, "_sl2_gens",
                        lambda ctx: real(ctx) + [[[ctx.gamma, 0], [0, ctx.one]]])
    monkeypatch.setattr(groups, "FinGroup", lambda *args: pytest.fail("a group was made"))
    message = "sl2:4: its closure outgrows its closed-form order 60"
    with pytest.raises(InternalCheckError, match=message):
        build_group("sl2:4")
    assert main(["--max-order", "100", "chartab", "sl2:4"]) == EXIT_INTERNAL
    assert message in capsys.readouterr().err


@pytest.mark.slow
@pytest.mark.parametrize("spec,order", [
    ("parabolic-p:8", 1_806_336),    # q^3 (q^2+q) (q-1)^2
    ("parabolic-q:8", 1_806_336),
    ("so4+:8", 508_032),             # 2 q^2 (q^2-1)^2
    ("so4-:8", 524_160),             # 2 q^2 (q^4-1)
    ("sp4-sub:8:2", 720),
])
def test_q8_subgroups_build_under_the_default_bound(fresh_builds, spec, order):
    """Built through the uncached builder, an image's source in the test's
    own cache, so the large key arrays are freed."""
    name, args = parse_group_spec(spec)
    assert groups._build_cached.__wrapped__(name, args).order == order
