"""GF(2^e): Zech arithmetic vs a polynomial oracle, embeddings, Frobenius."""

import numpy as np
import pytest

from sgplab.gfield import PRIMITIVE_POLYS, ZERO, field_ctx, frobenius, subfield_embed


# -- an independent polynomial-representation oracle (tests only) ------------

def _poly_mul(a, b, modulus, e):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> e & 1:
            a ^= modulus
    return r


def _poly_table(e):
    ctx = field_ctx(e)
    to_poly = [ctx.poly_of(c) for c in range(ctx.q)]
    return ctx, to_poly


@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_zech_addition_matches_polynomial_oracle(e):
    ctx, to_poly = _poly_table(e)
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert to_poly[ctx.add(a, b)] == to_poly[a] ^ to_poly[b]


@pytest.mark.parametrize("e", [2, 3, 4])
def test_zech_multiplication_matches_polynomial_oracle(e):
    ctx, to_poly = _poly_table(e)
    for a in range(ctx.q):
        for b in range(ctx.q):
            want = _poly_mul(to_poly[a], to_poly[b], ctx.modulus, e)
            assert to_poly[ctx.mul(a, b)] == want


@pytest.mark.parametrize("e", list(range(1, 9)))
def test_field_axioms_exhaustive(e):
    # vectorized over all (a, b, c) triples via the lookup tables
    ctx = field_ctx(e)
    add, mul = ctx.lut_add.astype(np.intp), ctx.lut_mul.astype(np.intp)
    q = ctx.q
    a = np.arange(q)[:, None, None]
    b = np.arange(q)[None, :, None]
    c = np.arange(q)[None, None, :]
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    # characteristic 2 and inverses
    aa = np.arange(q)
    assert (add[aa, aa] == ZERO).all()
    for x in range(1, q):
        assert ctx.mul(x, ctx.inv(x)) == ctx.one


def test_gamma_structure():
    c4 = field_ctx(2)
    assert c4.pow(c4.gamma, 3) == c4.one
    assert c4.pow(c4.gamma, 2) == c4.add(c4.gamma, c4.one)
    c16 = field_ctx(4)
    orders = {k for k in range(1, 16) if c16.pow(c16.gamma, k) == c16.one}
    assert orders == {15}


def test_gamma_power_multiplication():
    ctx = field_ctx(4)
    for k in range(15):
        for m in range(15):
            g = ctx.gamma
            assert ctx.mul(ctx.pow(g, k), ctx.pow(g, m)) == 1 + (k + m) % 15


def test_inv_of_zero_raises():
    ctx = field_ctx(3)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(ZERO)


def test_ctx_degree_bounds():
    with pytest.raises(ValueError):
        field_ctx(0)
    with pytest.raises(ValueError):
        field_ctx(17)


def test_subfield_embed_unit_and_order():
    small, big = field_ctx(2), field_ctx(4)
    assert subfield_embed(small, big, ZERO) == ZERO
    assert subfield_embed(small, big, small.one) == big.one
    img = subfield_embed(small, big, small.gamma)
    assert big.pow(img, 3) == big.one and big.pow(img, 1) != big.one


def test_subfield_embed_is_field_homomorphism_exhaustive():
    small, big = field_ctx(2), field_ctx(4)
    f = lambda a: subfield_embed(small, big, a)
    for a in range(4):
        for b in range(4):
            assert f(small.add(a, b)) == big.add(f(a), f(b))
            assert f(small.mul(a, b)) == big.mul(f(a), f(b))


def test_subfield_chain_compatibility_more_degrees():
    # the frozen moduli form a compatible chain: spot-check (3,6), (4,8), (2,6)
    for d, e in ((3, 6), (4, 8), (2, 6), (1, 5)):
        small, big = field_ctx(d), field_ctx(e)
        f = lambda a: subfield_embed(small, big, a)
        for a in range(small.q):
            for b in range(small.q):
                assert f(small.add(a, b)) == big.add(f(a), f(b))


def test_subfield_embed_requires_divisibility():
    with pytest.raises(ValueError):
        subfield_embed(field_ctx(2), field_ctx(3), 1)


def test_frobenius_galois_involution():
    ctx = field_ctx(4)  # GF(16); a -> a^4 applied twice is the identity
    for a in range(16):
        assert frobenius(ctx, frobenius(ctx, a, 2), 2) == a
    fixed = {a for a in range(16) if frobenius(ctx, a, 2) == a}
    small = field_ctx(2)
    image = {subfield_embed(small, ctx, a) for a in range(4)}
    assert fixed == image


def test_frobenius_additive():
    ctx = field_ctx(4)
    for f in (1, 2, 3):
        for a in range(16):
            for b in range(16):
                lhs = frobenius(ctx, ctx.add(a, b), f)
                assert lhs == ctx.add(frobenius(ctx, a, f), frobenius(ctx, b, f))


def test_frobenius_commutes_with_embedding():
    small, big = field_ctx(2), field_ctx(4)
    for a in range(4):
        lhs = subfield_embed(small, big, frobenius(small, a, 1))
        rhs = frobenius(big, subfield_embed(small, big, a), 1)
        assert lhs == rhs


def _modulus_is_irreducible_with_primitive_x(mask, e):
    # independent check on the frozen table
    def pmod(a, b):
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        return a

    def mulmod(a, b):
        a, b = pmod(a, mask), pmod(b, mask)
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> e & 1:
                a ^= mask
        return r

    def powmod(a, n):
        r = 1
        while n:
            if n & 1:
                r = mulmod(r, a)
            a = mulmod(a, a)
            n >>= 1
        return r

    # x^(2^e) == x  and no smaller subfield absorbs x
    t = pmod(2, mask)
    for _ in range(e):
        t = mulmod(t, t)
    if t != pmod(2, mask):
        return False
    order = (1 << e) - 1
    n, fs = order, []
    d = 2
    while d * d <= n:
        if n % d == 0:
            fs.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        fs.append(n)
    return all(powmod(2, order // f) != 1 for f in fs)


@pytest.mark.parametrize("e", list(range(1, 13)))
def test_frozen_modulus_table(e):
    assert _modulus_is_irreducible_with_primitive_x(PRIMITIVE_POLYS[e], e)
