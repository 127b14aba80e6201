"""Cyclotomic arithmetic: ring axioms, canonical forms, conversions."""

import math
import operator
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclo_oracles import residue, to_json
from sgplab.errors import InternalCheckError
from sgplab.exactnum import (MAX_ORDER, Cyclo, PolyQ, _divide_binomial, _prime_factors,
                             cyclotomic_poly, root_of_unity)


def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(7, 3) * root_of_unity(7, 4) == 1


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (12, 7), (15, 4), (17, 9)])
def test_power_order(n, k):
    assert root_of_unity(n, k) ** n == 1


def test_geometric_sums():
    s = Cyclo.zero()
    for i in range(7):
        s = s + root_of_unity(7, i)
    assert s.as_rational() == 0
    t = Cyclo.zero()
    for i in range(1, 7):
        t = t + root_of_unity(7, i)
    assert t.as_rational() == -1


def test_cross_order_product():
    # embed into the lcm field and multiply: z3 * z4 = z12^7
    assert root_of_unity(3) * root_of_unity(4) == root_of_unity(12, 7)


def test_sub_self_is_zero():
    x = root_of_unity(5) + 3
    assert (x - x).as_rational() == 0
    assert not (x - x)


def test_conjugation():
    assert root_of_unity(5).conjugate() == root_of_unity(5, 4)
    alpha = root_of_unity(7) + root_of_unity(7, -1)
    assert alpha.conjugate() == alpha


def test_as_rational():
    assert (root_of_unity(6) + root_of_unity(6, 5)).as_rational() == 1
    assert root_of_unity(5).as_rational() is None
    assert Cyclo.from_rational(Fraction(3, 7)).as_rational() == Fraction(3, 7)


def test_known_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # degree is Euler phi
    for n in (8, 15, 30, 105):
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert len(cyclotomic_poly(n)) - 1 == phi


# -- the recursive division, kept as the reference for the binomial product ----
#
# Phi_n was once x^n - 1 divided exactly by Phi_d for every proper divisor d
# of n, recursively: quadratic in n, 11 s at n = 16380.


@lru_cache(maxsize=None)
def _cyclotomic_poly_ref(n):
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = _cyclotomic_poly_ref(d)
            dd = len(den) - 1
            out = [0] * (len(num) - dd)
            for i in range(len(out) - 1, -1, -1):
                out[i] = q = num[i + dd]  # Phi_d is monic
                for j, dj in enumerate(den):
                    num[i + j] -= q * dj
            assert not any(num)
            num = out
    return tuple(num)


@pytest.mark.parametrize("ns", [range(1, 400), (1020, 2046, 4095)],
                         ids=["below-400", "1020-2046-4095"])
def test_cyclotomic_poly_matches_recursive_division(ns):
    for n in ns:
        assert cyclotomic_poly(n) == _cyclotomic_poly_ref(n), n


def test_cyclotomic_poly_16380():
    """Phi_16380 has degree phi(16380), and the Phi_d over the divisors d of
    16380 multiply to x^16380 - 1 (checked at seeded points mod a prime)."""
    n, p = 16380, 2**61 - 1
    assert len(cyclotomic_poly(n)) - 1 == sum(math.gcd(k, n) == 1 for k in range(n)) == 3456
    rng = random.Random(16380)
    for x in (rng.randrange(2, p) for _ in range(3)):
        prod = 1
        for d in (d for d in range(1, n + 1) if n % d == 0):
            val = 0
            for c in reversed(cyclotomic_poly(d)):
                val = (val * x + c) % p
            prod = prod * val % p
        assert prod == (pow(x, n, p) - 1) % p


def test_divide_binomial():
    assert _divide_binomial([-1, 0, 0, 1], 1) == [1, 1, 1]   # (x^3 - 1)/(x - 1)
    assert _divide_binomial([-1, 0, 0, 0, 1], 2) == [1, 0, 1]
    with pytest.raises(InternalCheckError):
        _divide_binomial([1, 0, 1], 1)   # x^2 + 1 = (x - 1)(x + 1) + 2
    with pytest.raises(InternalCheckError):
        _divide_binomial([-1, 1, 0, 1], 2)


def test_prime_factors_match_sieve():
    n = 10**4
    spf = list(range(n))   # smallest prime factor
    for i in range(2, math.isqrt(n) + 1):
        if spf[i] == i:
            for j in range(i * i, n, i):
                spf[j] = min(spf[j], i)
    for m in range(1, n):
        want, k = [], m
        while k > 1:
            if not want or want[-1] != spf[k]:
                want.append(spf[k])
            k //= spf[k]
        assert _prime_factors(m) == want, m


def test_prime_factors_match_prime_divisor_comprehension():
    """The sp4-sub rows of maximal_subgroups_sp4 once listed the prime
    divisors r of e with this inline primality test."""
    for e in range(1, 65):
        assert _prime_factors(e) == [r for r in range(2, e + 1)
                                     if e % r == 0 and all(r % d for d in range(2, r))]


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def cyclos(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    terms = draw(st.dictionaries(st.integers(0, n - 1), small_rats, max_size=3))
    return Cyclo(n, terms)


@settings(max_examples=150, deadline=None)
@given(cyclos(), cyclos(), cyclos())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(cyclos())
def test_conjugate_involution(x):
    assert x.conjugate().conjugate() == x


@settings(max_examples=100, deadline=None)
@given(cyclos(), cyclos())
def test_equality_matches_float_embedding(a, b):
    # syntactic equality after canonicalization iff the complex values agree
    same = (a == b)
    dist = abs(a.to_complex() - b.to_complex())
    if same:
        assert dist < 1e-9
    else:
        assert dist > 1e-9


def test_not_hashable():
    with pytest.raises(TypeError):
        hash(root_of_unity(5))


def test_order_bounds():
    with pytest.raises(ValueError):
        root_of_unity(0)
    with pytest.raises(ValueError):
        Cyclo(2**32, {})


def test_root_of_unity_is_the_parsed_monomial():
    """root_of_unity builds its stored form directly; the public parser of
    `Cyclo` is its oracle, for every order up to 64 and exponents of
    either sign past a full turn.  The order bounds are the parser's."""
    for n in range(1, 65):
        for e in range(-2 * n, 2 * n + 1):
            got, want = root_of_unity(n, e), Cyclo(n, {e: 1})
            assert (got.order, got._num, got._den) == (want.order, want._num, want._den)
    for n in (0, -1, MAX_ORDER + 1):
        with pytest.raises(ValueError, match="out of range"):
            root_of_unity(n)
        with pytest.raises(ValueError, match="out of range"):
            Cyclo(n, {1: 1})


# -- the eager form, kept as the reference for the lazy one ---------------------
#
# Cyclo once stored Fraction coefficients and reduced modulo Phi_N after every
# operation, with x^k mod Phi_N (k >= phi(N)) taken from rows built one from
# the previous one.  The lazy Cyclo must give the same canonical form.


def _eager_reduce(order, raw):
    phi = cyclotomic_poly(order)
    d = len(phi) - 1
    rows = [{i: -c for i, c in enumerate(phi[:-1]) if c}]   # x^d, x^(d+1), ...
    while len(rows) < order - d:
        nxt = {}
        for e, c in rows[-1].items():
            if e + 1 == d:
                for e2, c2 in rows[0].items():
                    nxt[e2] = nxt.get(e2, 0) + c * c2
            else:
                nxt[e + 1] = nxt.get(e + 1, 0) + c
        rows.append(nxt)
    out = {}
    for e, c in raw.items():
        e %= order
        for e2, m in ({e: 1} if e < d else rows[e - d]).items():
            out[e2] = out.get(e2, 0) + c * m
    return {e: Fraction(c) for e, c in out.items() if c}


class Eager:
    def __init__(self, order, raw):
        self.order = order
        self.coeffs = _eager_reduce(order, raw)

    def lift(self, n):
        k = n // self.order
        return Eager(n, {e * k: c for e, c in self.coeffs.items()})

    def __add__(self, other):
        n = math.lcm(self.order, other.order)
        raw = dict(self.lift(n).coeffs)
        for e, c in other.lift(n).coeffs.items():
            raw[e] = raw.get(e, 0) + c
        return Eager(n, raw)

    def __neg__(self):
        return Eager(self.order, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Fraction):
            return Eager(self.order, {e: c * other for e, c in self.coeffs.items()})
        n = math.lcm(self.order, other.order)
        raw = {}
        for e1, c1 in self.lift(n).coeffs.items():
            for e2, c2 in other.lift(n).coeffs.items():
                raw[(e1 + e2) % n] = raw.get((e1 + e2) % n, 0) + c1 * c2
        return Eager(n, raw)

    def conjugate(self):
        return Eager(self.order, {-e: c for e, c in self.coeffs.items()})

    def __eq__(self, other):
        n = math.lcm(self.order, other.order)
        return self.lift(n).coeffs == other.lift(n).coeffs


mixed_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 18])


@st.composite
def raw_values(draw):
    n = draw(mixed_orders)
    # exponents outside [0, n) on purpose: the constructor takes them mod n
    return n, draw(st.dictionaries(st.integers(-2 * n, 2 * n), small_rats, max_size=4))


ops = st.one_of(
    st.tuples(st.sampled_from(["add", "sub", "mul"]), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("scale"), st.integers(0, 99), small_rats),
    st.tuples(st.just("conj"), st.integers(0, 99)),
    st.tuples(st.just("lift"), st.integers(0, 99), st.integers(1, 4)),
)


def _stored(x):
    return x.order, dict(x._num), x._den


def _assert_stored_form(x):
    """`_make`'s invariant: exponents in [0, order), nonzero ints, an int
    den > 0, lowest terms (so zero is stored as {} over 1)."""
    assert all(type(e) is int and 0 <= e < x.order for e in x._num)
    assert all(type(c) is int and c for c in x._num.values())
    assert type(x._den) is int and x._den > 0
    assert math.gcd(x._den, *x._num.values()) == 1


EVERY_BINARY_OP = [("add", 0, 1), ("sub", 0, 1), ("mul", 0, 1), ("add", 1, 0), ("sub", 1, 0)]


@settings(max_examples=200, deadline=None)
@given(st.lists(raw_values(), min_size=1, max_size=4), st.lists(ops, max_size=12))
# equal orders, equal denominators: no lifting, the stored dicts are read as they are
@example([(7, {1: 1, 3: -2}), (7, {1: -1, 5: 4})], EVERY_BINARY_OP + [("add", 2, 0)])
@example([(6, {1: Fraction(1, 2), 3: Fraction(3, 2)}), (6, {1: Fraction(-1, 2), 2: Fraction(5, 2)})],
         EVERY_BINARY_OP)
# equal orders, unequal denominators: the numerators are rescaled to the lcm
@example([(6, {1: Fraction(1, 2)}), (6, {1: Fraction(1, 3), 2: 1})], EVERY_BINARY_OP)
# the cancellation a - a, at denominators 1 and 4
@example([(5, {0: 2, 3: -1}), (5, {1: Fraction(3, 4)})], [("sub", 0, 0), ("sub", 1, 1)])
def test_lazy_matches_eager_reference(starts, program):
    """The lazy `Cyclo` against `Eager`, which reduces every value at once.
    No operation changes the stored form of an operand (a sum must not
    build into the stored dict it shares), and every result keeps
    `_make`'s invariant."""
    lazy = [Cyclo(n, raw) for n, raw in starts]
    eager = [Eager(n, raw) for n, raw in starts]
    for op, i, *rest in program:
        a, ea = lazy[i % len(lazy)], eager[i % len(eager)]
        operands = [a]
        if op in ("add", "sub", "mul"):
            j = rest[0] % len(lazy)
            b, eb = lazy[j], eager[j]
            operands.append(b)
        before = [_stored(y) for y in operands]
        if op == "add":
            x, ex = a + b, ea + eb
        elif op == "sub":
            x, ex = a - b, ea + (-eb)
        elif op == "mul":
            x, ex = a * b, ea * eb
        elif op == "scale":
            x, ex = rest[0] * a, ea * rest[0]
        elif op == "conj":
            x, ex = a.conjugate(), ea.conjugate()
        else:
            x, ex = a.lift(a.order * rest[0]), ea.lift(a.order * rest[0])
        assert [_stored(y) for y in operands] == before
        _assert_stored_form(x)
        lazy.append(x)
        eager.append(ex)
    for x, ex in zip(lazy, eager):
        assert x.order == ex.order
        assert x.coeffs == ex.coeffs
        assert to_json(x) == {"order": ex.order,
                              "coeffs": [[e, c.numerator, c.denominator]
                                         for e, c in sorted(ex.coeffs.items())]}
        want = (Fraction(0) if not ex.coeffs else
                ex.coeffs[0] if set(ex.coeffs) == {0} else None)
        assert x.as_rational() == want
        assert bool(x) == bool(ex.coeffs)
    for x, ex in zip(lazy[-3:], eager[-3:]):
        for y, ey in zip(lazy, eager):
            assert (x == y) == (ex == ey)


@settings(max_examples=150, deadline=None)
@given(cyclos(), cyclos())
@example(Cyclo(12, {1: 1, 5: -2}), Cyclo(12, {5: 2, 7: 1}))   # one order, one denominator
@example(Cyclo(12, {1: Fraction(1, 2)}), Cyclo(12, {7: Fraction(1, 3)}))  # one order
def test_residue_is_a_ring_map(a, b):
    """The residue of the unreduced form at a root of order 120 mod
    p = 241 (`cyclo_oracles.residue`) is additive, multiplicative, turns
    conjugation into w -> w^-1, and agrees with the canonical coefficients."""
    from sgplab.chartab import _dixon_root
    p, z = _dixon_root(120, 120)

    def res(x, sign=1):
        return residue(x, p, pow(z, sign * 120 // x.order, p))

    assert p == 241
    assert res(a + b) == (res(a) + res(b)) % p
    assert res(a * b) == res(a) * res(b) % p
    assert res(a.conjugate()) == res(a, -1)
    w = pow(z, 120 // a.order, p)
    canonical = sum(c.numerator * pow(c.denominator, -1, p) * pow(w, e, p)
                    for e, c in a.coeffs.items()) % p
    assert res(a) == canonical


def test_polyq_zero_is_not_none():
    """The zero polynomial equals 0, not None: a PolyQ is compared with a
    PolyQ, an int or a Fraction only."""
    assert operator.eq(PolyQ(0), None) is False
    assert PolyQ(0).__eq__(None) is NotImplemented
    assert PolyQ(0) == 0 and PolyQ(3) == Fraction(3) and 3 == PolyQ(3)
    with pytest.raises(TypeError):                 # not read as the zero polynomial
        PolyQ.q() + None


def test_polyq_is_not_compared_with_a_string():
    """A string is not read as a Fraction: q == "x" is False, not a
    ValueError."""
    assert operator.eq(PolyQ.q(), "x") is False
    assert operator.eq(PolyQ(1), "1") is False


def test_polyq_constant_hashes_like_its_value():
    """Equal values hash equal: a constant PolyQ is found in a set of ints
    and an int in a set of PolyQ."""
    assert 3 in {PolyQ(3)} and PolyQ(3) in {3}
    assert Fraction(1, 2) in {PolyQ(Fraction(1, 2))} and 0 in {PolyQ(0)}
    assert len({PolyQ(3), 3, Fraction(3)}) == 1
    assert hash(PolyQ.q(2) + 1) == hash(PolyQ({2: 1, 0: 1}))


def test_polyq_power_is_repeated_product():
    q = PolyQ.q()
    assert q**0 == 1 and q**3 == q * q * q
    assert ((q - 1) ** 2).eval(5) == 16
