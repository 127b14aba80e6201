"""The small mod-p linear algebra inside the table computation."""

import math
import random
import time

import numpy as np
import pytest

from sgplab.chartab import (_charpoly, _dixon_prime, _is_prime, _nullspace,
                            _poly_roots, _primitive_root, _solve_restriction)


def _det_mod(M, p):
    # cofactor expansion; the independent oracle for _charpoly
    n = len(M)
    if n == 1:
        return M[0][0] % p
    out = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = M[0][j] * _det_mod(minor, p)
        out += -term if j % 2 else term
    return out % p


def _charpoly_oracle(M, p, x):
    n = len(M)
    A = [[(x if i == j else 0) - M[i][j] for j in range(n)] for i in range(n)]
    return _det_mod(A, p)


@pytest.mark.parametrize("seed", range(8))
def test_charpoly_matches_determinant_oracle(seed):
    p = 101
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    M = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    poly = _charpoly(M, p)
    assert len(poly) == n + 1 and poly[-1] == 1
    for x in (0, 1, 2, 17, 55):
        val = sum(c * pow(x, i, p) for i, c in enumerate(poly)) % p
        assert val == _charpoly_oracle(M, p, x)


def test_poly_roots():
    p = 101
    # (x - 3)(x - 7)^2 = x^3 - 17x^2 + 91x - 147
    poly = [(-147) % p, 91 % p, (-17) % p, 1]
    assert _poly_roots(poly, p) == [3, 7]


def _poly_roots_loop(poly, p):
    """Horner's rule at one x at a time: the loop _poly_roots replaced."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
            if len(roots) == len(poly) - 1:
                break
    return roots


@pytest.mark.parametrize("seed", range(10))
def test_poly_roots_match_plain_loop(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 101, 3061, 14561])
    # some linear factors, repeats allowed, times a random factor
    poly = [rng.randrange(1, p) if p > 2 else 1] + [rng.randrange(p) for _ in
                                                   range(rng.randint(0, 4))] + [1]
    for _ in range(rng.randint(0, 6)):
        root = rng.randrange(p)
        poly = [((poly[i - 1] if i else 0) - root * (poly[i] if i < len(poly) else 0)) % p
                for i in range(len(poly) + 1)]
    assert _poly_roots(poly, p) == _poly_roots_loop(poly, p)


def test_poly_roots_refuses_a_prime_beyond_int64():
    from sgplab.errors import InternalCheckError
    with pytest.raises(InternalCheckError):
        _poly_roots([1, 1], 2**31 + 11)


@pytest.mark.parametrize("seed", range(6))
def test_nullspace(seed):
    p = 97
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    M = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    M[n - 1] = [(2 * x) % p for x in M[0]]  # force rank deficiency
    basis = _nullspace(M, p)
    assert basis
    for v in basis:
        for row in M:
            assert sum(a * b for a, b in zip(row, v)) % p == 0


def test_solve_restriction_round_trip():
    p = 97
    rng = random.Random(3)
    r, d = 6, 3
    B = [[rng.randrange(p) for _ in range(d)] for _ in range(r)]
    B[0], B[1], B[2] = [1, 0, 0], [0, 1, 0], [0, 0, 1]  # full column rank
    S = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
    MB = [[sum(B[i][k] * S[k][j] for k in range(d)) % p for j in range(d)]
          for i in range(r)]
    got = _solve_restriction(B, MB, p)
    assert got == [[S[i][j] % p for j in range(d)] for i in range(d)]


def test_primality_and_dixon_prime():
    assert _is_prime(1021) and _is_prime(3061) and _is_prime(14561)
    assert not _is_prime(10921)  # 67 * 163
    p = _dixon_prime(1020, 2 * 989 + 1)        # |Sp4(4)| = 979200, isqrt 989
    assert p % 1020 == 1 and p > 2 * 989 + 1 and _is_prime(p)
    assert p == 3061
    p_v = _dixon_prime(1020, 2 * 979200)
    assert p_v % 1020 == 1 and p_v > 2 * 979200 and _is_prime(p_v)
    assert not any(_is_prime(c) for c in range(p_v - 1020, 2 * 979200, -1020))


@pytest.mark.parametrize("p", [13, 101, 3061])
def test_degree_is_the_least_root_of_its_square(p):
    """Degree recovery: each 1 <= d < p/2 is the least root of x^2 - d^2, and
    x^2 - a has no root for a non-residue a."""
    for d in range(1, (p + 1) // 2):
        assert _poly_roots([-d * d % p, 0, 1], p)[0] == d
    for a in range(1, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            assert _poly_roots([-a % p, 0, 1], p) == []


def test_is_prime_matches_sieve():
    n = 2 * 10**5
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for k in range(2, math.isqrt(n) + 1):
        sieve[k * k::k] = False
    assert [m for m in range(n) if _is_prime(m)] == np.flatnonzero(sieve).tolist()
    assert _is_prime(1959421) and _is_prime(3618961)


# (exponent, bound, the least prime = 1 mod exponent above bound), as the
# walk from exponent + 1 one exponent at a time found them
DIXON_PRIMES = [
    (1, 0, 2), (1, 1, 2), (1, 5, 7), (2, 3, 5), (4, 5, 13), (6, 7, 13),
    (60, 0, 61), (60, 61, 181), (30, 17, 31),
    (1020, 1979, 3061),                 # the Dixon prime of sp4:4
    (1020, 1958400, 1959421),           # its verification prime
    (4095, 3612672, 3619981),
    (30, 1 << 31, 2147484061),
]


@pytest.mark.parametrize("exponent,bound,want", DIXON_PRIMES)
def test_dixon_prime_table(exponent, bound, want):
    t0 = time.perf_counter()
    assert _dixon_prime(exponent, bound) == want
    assert time.perf_counter() - t0 < 0.5


def test_primitive_root():
    for p in (13, 1021, 3061):
        g = _primitive_root(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        assert len(seen) == p - 1
