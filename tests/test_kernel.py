"""The byte-table products, conjugations and inverses of MatOps and ExtOps
against `_matmul`."""

import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sgplab
from sgplab import gfield, groups
from sgplab.errors import InternalCheckError
from sgplab.groups import _TABLE_CACHE, build_group, mat_ops

U64 = np.uint64

# every (e, dim, inv_mode) the builders use: sl2 over GF(2^e), e = 1..4;
# sp4, wreath, ext-embedded and sz 4x4, e = 1..3; transpose for perm groups
CASES = ([(e, 2, "symplectic") for e in range(1, 5)]
         + [(e, 4, "symplectic") for e in range(1, 4)]
         + [(1, n, "transpose") for n in range(2, 9)])


def _random_keys(ops, rng, n):
    """n keys with independent uniform entry codes in 0 .. q-1."""
    codes = rng.integers(0, ops.ctx.q, size=(n, ops.dim, ops.dim), dtype=np.uint8)
    return ops.pack(codes)


def _random_element(ops, rng):
    """A random element of the group that ops's inverse mode inverts, as
    `conj` needs: a permutation matrix for "transpose", and for
    "symplectic" the product of four transvections x -> x + B(x, v) v,
    entry (i, j) = [i = j] + v_i v_(d-1-j), of uniform v."""
    d, ctx = ops.dim, ops.ctx
    if ops.inv_mode == "transpose":
        return ops.pack_one(ops._eye[:, rng.permutation(d)])
    v = rng.integers(0, ctx.q, size=(4, d), dtype=np.uint8)
    t = ops.pack(ctx.lut_add[ctx.lut_mul[v[:, :, None], v[:, None, ::-1]], ops._eye])
    return _ref_mul(ops, _ref_mul(ops, t[:1], t[1:2]), _ref_mul(ops, t[2:3], t[3:]))[0]


def _ref_mul(ops, a, b):
    a, b = np.broadcast_arrays(a, b)
    return ops.pack(ops._matmul(ops.unpack(a), ops.unpack(b)))


def _ref_inv(ops, keys):
    t = ops.pack(ops.unpack(keys).swapaxes(1, 2))
    if ops.inv_mode == "transpose":
        return t
    j = np.zeros((ops.dim, ops.dim), dtype=np.uint8)
    for i in range(ops.dim):
        j[i, ops.dim - 1 - i] = ops.ctx.one
    jkey = ops.pack_one(j)
    return _ref_mul(ops, _ref_mul(ops, jkey, t), jkey)


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_pack_inverts_unpack_on_every_bit_of_the_key(e):
    """pack(unpack(k)) == k for random 4x4 keys over GF(2^e) and the
    all-ones key (0xffff...ffff at e = 4, all 64 bits), and pack agrees
    with an OR of the shifted entries, one at a time."""
    ops = mat_ops(gfield.field_ctx(e), 4, "symplectic")
    width = 16 * e
    ones = (1 << width) - 1
    rng = np.random.default_rng(e)
    keys = np.append(rng.integers(0, 1 << 63, size=1000, dtype=np.uint64) * U64(2) + U64(1),
                     U64(ones)) & U64(ones)
    keys = keys.astype(ops.dtype)
    mats = ops.unpack(keys)
    assert np.array_equal(ops.pack(mats), keys)
    ored = np.zeros(len(keys), dtype=ops.dtype)
    for i, s in enumerate(ops._shifts):
        ored |= mats.reshape(len(keys), 16)[:, i].astype(ops.dtype) << s
    assert np.array_equal(ored, keys)
    assert int(ops.pack(mats[-1:])[0]) == ones


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CASES), st.integers(0, 2**32 - 1), st.integers(2, 600))
def test_fixed_element_products_and_inverse_match_matmul(case, seed, n):
    e, dim, mode = case
    ops = mat_ops(gfield.field_ctx(e), dim, mode)
    rng = np.random.default_rng(seed)
    x = _random_keys(ops, rng, n)
    g = _random_keys(ops, rng, 1)[0]
    assert np.array_equal(ops.mul(x, g), _ref_mul(ops, x, g))
    assert np.array_equal(ops.mul(g, x), _ref_mul(ops, g, x))
    assert np.array_equal(ops.inv(x), _ref_inv(ops, x))
    assert np.array_equal(ops.inv(g), _ref_inv(ops, g))   # a single key too


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CASES), st.integers(0, 2**32 - 1), st.integers(1, 600))
def test_conj_matches_two_products(case, seed, n):
    e, dim, mode = case
    ops = mat_ops(gfield.field_ctx(e), dim, mode)
    rng = np.random.default_rng(seed)
    x = _random_keys(ops, rng, n)
    g = _random_element(ops, rng)
    got = ops.conj(x, g)
    assert np.array_equal(got, ops.mul(ops.mul(ops.inv(g), x), g))
    assert np.array_equal(got, _ref_mul(ops, _ref_mul(ops, _ref_inv(ops, g), x), g))


def _random_ext_keys(ops, rng, n):
    """n ext keys of ops's key dtype: uniform 2x2 entry codes and twist bits."""
    mo = mat_ops(ops.ctx, 2, "symplectic")
    x = _random_keys(mo, rng, n) | (rng.integers(0, 2, n).astype(U64) << U64(4 * mo.bits))
    return x.astype(ops.identity.dtype)


def _ext_ref_mul(ops, a, b):
    """(m * sigma^t(m'), t xor t') for ext keys, by `_matmul` on the 2x2 part."""
    a, b = np.broadcast_arrays(a, b)
    mo = mat_ops(ops.ctx, 2, "symplectic")
    shift = U64(4 * mo.bits)
    mask = (U64(1) << shift) - U64(1)
    ta, tb = a >> shift, b >> shift
    mb = mo.unpack(b & mask)
    frob = ops.ctx.lut_frob(ops.q.bit_length() - 1)
    mb = np.where(ta.astype(bool)[:, None, None], frob[mb], mb)
    return mo.pack(mo._matmul(mo.unpack(a & mask), mb)) | ((ta ^ tb) << shift)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4]), st.integers(0, 2**32 - 1), st.integers(2, 600))
def test_ext_products_and_inverse_match_matmul(q, seed, n):
    G = build_group(f"ext-sp2q2:{q}")
    ops = G.ops
    rng = np.random.default_rng(seed)
    # any 2x2 entries and twist bits: the fixed-element products are linear
    x = _random_ext_keys(ops, rng, n)
    g = G.keys[rng.integers(G.order)]
    assert np.array_equal(ops.mul(x, g), _ext_ref_mul(ops, x, g))
    assert np.array_equal(ops.mul(g, x), _ext_ref_mul(ops, g, x))
    assert np.array_equal(ops.mul(x, x[::-1]), _ext_ref_mul(ops, x, x[::-1]))
    # inverses of group elements, both twists
    y = G.keys[rng.integers(0, G.order, n)]
    assert np.array_equal(_ext_ref_mul(ops, y, ops.inv(y)),
                          np.full(n, ops.identity, dtype=U64))
    assert np.array_equal(_ext_ref_mul(ops, ops.inv(y), y),
                          np.full(n, ops.identity, dtype=U64))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4]), st.integers(0, 2**32 - 1), st.integers(1, 600))
def test_ext_conj_matches_two_products(q, seed, n):
    G = build_group(f"ext-sp2q2:{q}")
    ops = G.ops
    rng = np.random.default_rng(seed)
    x = G.keys[rng.integers(0, G.order, n)]
    g = G.keys[rng.integers(G.order)]
    got = ops.conj(x, g)
    assert np.array_equal(got, ops.mul(ops.mul(ops.inv(g), x), g))
    assert np.array_equal(got, _ext_ref_mul(ops, _ext_ref_mul(ops, ops.inv(g), x), g))


def test_ext_keys_wider_than_their_matrix_part():
    """At q = 16 an ext key takes 33 bits (uint64) and its 2x2 matrix part
    over GF(256) 32 (uint32): products, inverses and conj still match
    `_matmul`, in the ext dtype."""
    ops = groups._ext_ops_cached(16)
    assert ops.dtype == np.uint64 and ops._mat.dtype == np.uint32
    rng = np.random.default_rng(5)
    x = _random_ext_keys(ops, rng, 40)
    g = x[3]
    for got, want in [(ops.mul(x, g), _ext_ref_mul(ops, x, g)),
                      (ops.mul(g, x), _ext_ref_mul(ops, g, x)),
                      (ops.mul(x, x[::-1]), _ext_ref_mul(ops, x, x[::-1]))]:
        assert got.dtype == np.uint64 and np.array_equal(got, want)
    y = np.array([ops.pack_one(np.array(rows, dtype=np.uint8), t)
                  for rows in groups._sl2_gens(ops.ctx) for t in (0, 1)])
    assert np.array_equal(_ext_ref_mul(ops, y, ops.inv(y)),
                          np.full(y.size, ops.identity, dtype=U64))
    assert np.array_equal(ops.conj(x, y[1]),
                          _ext_ref_mul(ops, _ext_ref_mul(ops, ops.inv(y[1]), x), y[1]))


def test_conj_refuses_an_element_its_inverse_mode_does_not_invert():
    """I + E_12 over GF(4) is not symplectic, so J g^T J is not its
    inverse: its conj tables raise rather than map x to J g^T J x g, while
    a product by it, which needs no inverse, is still exact."""
    ops = mat_ops(gfield.field_ctx(2), 4, "symplectic")
    g = ops.pack_one([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    x = _random_keys(ops, np.random.default_rng(2), 5)
    assert np.array_equal(ops.mul(x, g), _ref_mul(ops, x, g))
    with pytest.raises(InternalCheckError, match="symplectic inverse is not its inverse"):
        ops.conj(x, g)


def test_table_cache_is_bounded_and_stays_exact():
    ops = mat_ops(gfield.field_ctx(2), 4, "symplectic")
    rng = np.random.default_rng(7)
    x = _random_keys(ops, rng, 50)
    gs = _random_keys(ops, rng, _TABLE_CACHE + 10)
    for g in list(gs) + list(gs[:3]):                 # the first ones were evicted
        assert np.array_equal(ops.mul(x, g), _ref_mul(ops, x, g))
        assert ops._tables.cache_info().currsize <= _TABLE_CACHE


def _reference_tables(ops, g, side):
    """The byte tables of a fixed-element map, one reference product per
    value of each chunk: the build the basis-image tables replaced."""
    def image(k):
        if side == "right":
            prods = ops._mul_ref(k, g)
        elif side == "left":
            prods = ops._mul_ref(g, k)
        else:
            prods = ops._mul_ref(ops._mul_ref(ops.inv(g), k), g)
        return ops.pack(ops._poly[ops.unpack(prods)])
    return ops._chunk_tables(image)


def _matrix_ops_and_keys(spec):
    """The MatOps of a spec and its group's keys; for ext-sp2q2 the shared
    2x2 MatOps over GF(q^2) and the matrix parts of the keys."""
    G = build_group(spec)
    if hasattr(G.ops, "_mat"):
        return G.ops._mat, G.keys & G.ops._mmask
    return G.ops, G.keys


TABLE_SPECS = ["sl2:8", "sl2:16", "sl2:32", "sp4:2", "sz:8", "so4+:4", "wreath-sp2:4",
               "ext-sp2q2:2", "ext-sp2q2:4", "s6"]
SIDES = ["right", "left", "conj"]


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_basis_image_tables_match_reference_build(spec):
    """The tables read off the entries of g, against one reference product
    per chunk value: GF(2) to GF(32), both inverse modes, and the 6 x 6
    permutation matrices of s6, whose last chunk is narrower."""
    ops, keys = _matrix_ops_and_keys(spec)
    rng = np.random.default_rng(11)
    for g in keys[rng.integers(0, keys.size, 3)]:
        for side in SIDES:
            got, want = ops._fixed_tables(g, side), _reference_tables(ops, g, side)
            assert [t.size for t in got] == [t.size for t in want]
            for a, b in zip(got, want):
                assert np.array_equal(a, b), (spec, side)


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_table_build_costs_one_product_per_key_bit(spec, monkeypatch):
    """A table set built through mul / conj costs no reference product, so
    at most one per key bit: neither `_mul_ref` nor `_matmul` runs (a build
    from products passed dim*dim*bits keys, twice that for conj), and each
    call adds one table set to the cache."""
    ops, keys = _matrix_ops_and_keys(spec)
    passed = []
    monkeypatch.setattr(ops, "_mul_ref", lambda a, b: passed.append("_mul_ref"))
    monkeypatch.setattr(ops, "_matmul", lambda a, b: passed.append("_matmul"))
    ops._tables.cache_clear()   # nothing cached
    rng = np.random.default_rng(12)
    g = keys[rng.integers(keys.size)]
    x = keys[rng.integers(0, keys.size, 50)]
    for n, run in enumerate([lambda: ops.mul(x, g), lambda: ops.mul(g, x),
                             lambda: ops.conj(x, g)], 1):
        run()
        assert passed == [] and ops._tables.cache_info().currsize == n


SMALL_CHUNK = 1 << 4
SLICE_SIZES = [0, 1, SMALL_CHUNK, SMALL_CHUNK + 1, 3 * SMALL_CHUNK + 5]


def _kernel_passes(ops, x, y, g):
    """mul(x, g), mul(g, x), conj(x, g), inv(x) and, for MatOps, _mul_ref(x, y)."""
    out = [ops.mul(x, g), ops.mul(g, x), ops.conj(x, g), ops.inv(x)]
    return out + ([ops._mul_ref(x, y)] if hasattr(ops, "_mul_ref") else [])


def test_mul_ref_does_not_depend_on_the_chunk_length(monkeypatch):
    """Every kernel entry point gives the same keys in 16-key slices as in
    one pass, and as `_matmul`, at sizes around the slice length: MatOps
    over GF(4) and GF(8), and ExtOps over GF(4) (group elements, both
    twists, so that x * x^-1 = 1 checks the inverses)."""
    rng = np.random.default_rng(13)
    ext = build_group("ext-sp2q2:2")
    for ops in [mat_ops(gfield.field_ctx(e), 4, "symplectic") for e in (2, 3)] + [ext.ops]:
        for n in SLICE_SIZES:
            if ops is ext.ops:
                x, y = (ext.keys[rng.integers(0, ext.order, n)] for _ in range(2))
                g = ext.keys[rng.integers(ext.order)]
                ref = _ext_ref_mul
            else:
                x, y = _random_keys(ops, rng, n), _random_keys(ops, rng, n)
                g = _random_element(ops, rng)
                ref = _ref_mul
            monkeypatch.setattr(groups, "_CHUNK", 1 << 16)
            whole = _kernel_passes(ops, x, y, g)
            monkeypatch.setattr(groups, "_CHUNK", SMALL_CHUNK)
            sliced = _kernel_passes(ops, x, y, g)
            for a, b in zip(sliced, whole):
                assert a.size == n and np.array_equal(a, b)
            want = [ref(ops, x, g), ref(ops, g, x), ref(ops, ref(ops, ops.inv(g), x), g)]
            if ops is ext.ops:
                assert np.array_equal(ref(ops, x, sliced[3]), np.full(n, ops.identity, U64))
            else:
                want += [_ref_inv(ops, x), _ref_mul(ops, x, y)]
            for a, b in zip(sliced, want):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("e,gathers", [(1, 1), (2, 1), (3, 2)])
def test_fixed_element_product_gathers_once_where_codes_are_polynomials(
        monkeypatch, e, gathers):
    """Over GF(2) and GF(4) the log code of an entry is its polynomial code,
    so each slice of a right, left or conj product is one table gather;
    over GF(8) it is two, the second recoding polynomial codes to logs."""
    ops = mat_ops(gfield.field_ctx(e), 4, "symplectic")
    assert (ops._to_code is None) == (e <= 2)
    rng = np.random.default_rng(19)
    x, g = _random_keys(ops, rng, 3 * SMALL_CHUNK + 5), _random_element(ops, rng)
    runs = [lambda: ops.mul(x, g), lambda: ops.mul(g, x), lambda: ops.conj(x, g)]
    for run in runs:
        run()                            # table sets built, before counting
    calls = []
    real = ops._gather
    monkeypatch.setattr(ops, "_gather", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(groups, "_CHUNK", SMALL_CHUNK)
    for run in runs:
        calls.clear()
        run()
        assert len(calls) == 4 * gathers         # four slices


def test_condition_failure_in_the_last_slice_is_counted(monkeypatch, capsys):
    """The membership check of a built group counts its failures slice by
    slice: a condition that rejects only the last key of so4-:2, in the
    last of its 16-key slices, raises with a count of 1 and exits 4."""
    from sgplab.cli import EXIT_INTERNAL, main
    from sgplab.errors import InternalCheckError
    monkeypatch.setattr(groups, "_build_cached",
                        lru_cache(maxsize=None)(groups._build_cached.__wrapped__))
    last = build_group("so4-:2").keys[-1]
    groups._build_cached.cache_clear()
    monkeypatch.setattr(groups, "_CHUNK", SMALL_CHUNK)
    real = groups._check_members

    def rejecting(label, ops, keys, cond):
        return real(label, ops, keys, lambda m: cond(m) & (ops.pack(m) != last))
    monkeypatch.setattr(groups, "_check_members", rejecting)
    message = "so4-:2: 1 enumerated elements fail its defining condition"
    with pytest.raises(InternalCheckError, match=message):
        build_group("so4-:2")
    assert main(["chartab", "so4-:2"]) == EXIT_INTERNAL
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("op", ["inv", "mul", "conj", "ext-conj"])
def test_whole_array_pass_holds_its_output_and_one_slice(op):
    """inv, mul(x, g) and conj on 4 * _CHUNK keys over GF(8), and the conj
    of the ExtOps of ext-sp2q2:8 on as many ext keys over GF(64), allocate
    less than x.nbytes (the output) + 2 MB at their peak: the kernel runs
    in _CHUNK slices (both products of an ExtOps conj in each), so its
    temporaries do not grow with the array."""
    rng = np.random.default_rng(17)
    if op == "ext-conj":
        ops = groups._ext_ops_cached(8)
        x = _random_ext_keys(ops, rng, 4 * groups._CHUNK)
        op = "conj"
    else:
        ops = mat_ops(gfield.field_ctx(3), 4, "symplectic")
        x = _random_keys(ops, rng, 4 * groups._CHUNK)
    g = _random_element(ops, rng) if isinstance(ops, groups.MatOps) else x[0]
    run = {"inv": lambda: ops.inv(x), "mul": lambda: ops.mul(x, g),
           "conj": lambda: ops.conj(x, g)}[op]
    run()                                  # the byte tables, outside the trace
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes + 2_000_000, peak


def test_order_check_fires_under_python_O():
    """A wrong enumeration raises InternalCheckError even with asserts stripped."""
    script = (
        "import sgplab.groups as g\n"
        "from sgplab.errors import InternalCheckError\n"
        "orig = g.mulclose\n"
        "g.mulclose = lambda ops, gens, m: orig(ops, gens[:1], m)\n"
        "try:\n"
        "    g.build_group('sl2:4')\n"
        "except InternalCheckError as exc:\n"
        "    print('caught', exc)\n")
    src = str(Path(sgplab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("caught sl2:4"), res.stdout


# -- the automorphisms of Sp4(2^e): the Frobenius F and the graph tau ---------


def _squared(ops, keys):
    """Every entry squared by lut_mul: the oracle of `MatOps.frobenius`."""
    m = ops.unpack(keys)
    return ops.pack(ops.ctx.lut_mul[m, m])


@pytest.mark.parametrize("e,dim", [(e, 2) for e in range(2, 6)] + [(e, 4) for e in range(2, 5)])
def test_frobenius_tables_square_every_entry(e, dim):
    """F's chunk tables against entrywise squaring, GF(4) to GF(32)."""
    ops = mat_ops(gfield.field_ctx(e), dim, "symplectic")
    x = _random_keys(ops, np.random.default_rng(10 * e + dim), 3000)
    assert np.array_equal(ops.frobenius(x), _squared(ops, x))


def test_graph_aut_is_a_homomorphism_on_all_pairs_of_sp4_2():
    """tau(x y) = tau(x) tau(y) for all 518,400 pairs of sp4:2, products
    by `_matmul`."""
    G = build_group("sp4:2")
    ops, tau = G.ops, G.ops.graph_aut
    x, y = np.repeat(G.keys, G.order), np.tile(G.keys, G.order)
    assert np.array_equal(tau(ops._mul_ref(x, y)), ops._mul_ref(tau(x), tau(y)))


@pytest.mark.parametrize("spec", ["parabolic-p:4", "wreath-sp2:4", "so4-:4"])
def test_graph_aut_keeps_each_product_by_a_generator(spec):
    """tau(x a) = tau(x) tau(a) for every key x and generator a."""
    G = build_group(spec)
    ops, tau = G.ops, G.ops.graph_aut
    for a in G.gens_keys:
        assert np.array_equal(tau(ops._mul_ref(G.keys, a)), ops._mul_ref(tau(G.keys), tau(a)))


@pytest.mark.parametrize("q", [2, pytest.param(4, marks=pytest.mark.slow)])
def test_graph_aut_squares_to_the_frobenius_on_sp4(q):
    """tau maps sp4:q onto itself, and tau^2 squares every entry."""
    G = build_group(f"sp4:{q}")
    img = G.ops.graph_aut(G.keys)
    assert np.array_equal(G.ops.graph_aut(img), _squared(G.ops, G.keys))
    img.sort()
    assert np.array_equal(img, G.keys)


@pytest.mark.parametrize("q", [2, 4, pytest.param(8, marks=pytest.mark.slow)])
def test_graph_aut_pairs_the_maximal_rows(q):
    """tau swaps parabolic-p and parabolic-q, and wreath-sp2 and so4+, at
    every q; it maps so4- onto ext-sp2q2-embedded at q <= 4, but not at
    q = 8, where the two share few keys."""
    def onto(a, b):
        A, B = build_group(f"{a}:{q}"), build_group(f"{b}:{q}")
        return np.array_equal(np.sort(A.ops.graph_aut(A.keys)), B.keys)
    for a, b in [("parabolic-p", "parabolic-q"), ("wreath-sp2", "so4+")]:
        assert onto(a, b) and onto(b, a)
    assert onto("so4-", "ext-sp2q2-embedded") == (q <= 4)
    assert not onto("ext-sp2q2-embedded", "so4-") or q == 2
