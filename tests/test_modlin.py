"""The small mod-p linear algebra inside the table computation."""

import math
import random
import time

import numpy as np
import pytest

from sgplab.chartab import (_charpoly, _dixon_prime, _is_prime, _nullspaces,
                            _poly_roots, _primitive_root, _rref)


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
    """Faddeev-LeVerrier divides by 1 .. n, so every n < p is exact, up to
    n = p - 1 = 6 at p = 7."""
    rng = random.Random(seed)
    for p in (7, 13, 101):
        n = rng.randint(1, 6)
        M = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        poly = _charpoly(np.array(M, dtype=np.int64), p)
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
    (N, _), = _nullspaces(np.array([M], dtype=np.int64), p)
    basis = N.T.tolist()
    assert basis
    for v in basis:
        for row in M:
            assert sum(a * b for a, b in zip(row, v)) % p == 0


# -- the int64 Gauss-Jordan, against the list-based one it replaced ------------


def _rref_ref(A, p, ncols):
    """Gauss-Jordan mod p on lists, pivots in the first ncols columns only."""
    A = [row[:] for row in A]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(A):
            break
        piv = next((i for i in range(r, len(A)) if A[i][c] % p), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], p - 2, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return A, pivots


def _nullspace_ref(M, p):
    """A null-space basis that is the identity at the free columns of M."""
    m = len(M[0])
    A, pivots = _rref_ref(M, p, m)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [0] * m
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-A[i][fc]) % p
        basis.append(v)
    return basis


def _solve_restriction_ref(B, MB, p):
    """S with B*S = MB, where the r x d matrix B has full column rank: the
    second Gauss-Jordan per split that the reduced bases made unnecessary."""
    d = len(B[0])
    A, pivots = _rref_ref([b + mb for b, mb in zip(B, MB)], p, d)
    assert len(pivots) == d
    return [row[d:] for row in A[:d]]


def _matmul_mod(A, B, p):
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)]
            for row in A]


def _random_matrix(rng, p, rows, cols, rank):
    """rows x cols of rank at most `rank`: a product through `rank` dimensions."""
    L = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
    R = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
    return [[sum(L[i][t] * R[t][j] for t in range(rank)) % p for j in range(cols)]
            for i in range(rows)]


PRIMES = [13, 3061, 2**31 - 1]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", range(12))
def test_rref_and_nullspace_match_list_reference(p, seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    rank = rng.randint(0, min(rows, cols)) if seed % 2 else min(rows, cols)
    M = _random_matrix(rng, p, rows, cols, rank)
    (A,), (pivots,) = _rref(np.array([M], dtype=np.int64), p)
    assert (A.tolist(), pivots) == _rref_ref(M, p, cols)
    assert len(pivots) <= rank
    (N, at), = _nullspaces(np.array([M], dtype=np.int64), p)
    assert N.dtype == np.int64 and N.shape == (cols, cols - len(pivots))
    assert N.T.tolist() == _reduced_at_first_rows(_nullspace_ref(M, p), p, at)
    assert all(v == 0 for row in _matmul_mod(M, N.tolist(), p) for v in row)


def _reduced_at_first_rows(basis, p, at):
    """The basis of the span of the vectors `basis` that is the identity
    at its first rows of full rank, as rows, checking that those rows are
    `at`: the per-root null space and `_rref` of its transpose, as the
    split used them before both came from one batched call."""
    if not basis:
        assert at == []
        return []
    A, pivots = _rref_ref(basis, p, len(basis[0]))
    assert pivots == at
    return A


def _eigen_stack(rng, p, d, jordan):
    """S - lambda for every root lambda of the characteristic polynomial of
    a d x d matrix S = Q D Q^-1 mod p with a repeated eigenvalue, whose
    eigenspace is of dimension above one unless a Jordan block (D one
    above its diagonal) shortens it."""
    lams = rng.sample(range(p), rng.randint(1, d - 1))
    diag = sorted(lams + [rng.choice(lams) for _ in range(d - len(lams))])
    while True:
        Q = _random_matrix(rng, p, d, d, d)
        if len(_rref_ref(Q, p, d)[1]) == d:
            break
    Qinv = [row[d:] for row in _rref_ref([q + [int(i == j) for j in range(d)]
                                          for i, q in enumerate(Q)], p, d)[0]]
    D = [[diag[i] if i == j else 0 for j in range(d)] for i in range(d)]
    i = next(i for i in range(d - 1) if diag[i] == diag[i + 1])
    if jordan:
        D[i][i + 1] = rng.randrange(1, p)      # a Jordan block: a short eigenspace
    S = _matmul_mod(_matmul_mod(Q, D, p), Qinv, p)
    roots = _poly_roots(_charpoly(np.array(S, dtype=np.int64), p), p)
    assert sorted(set(diag)) == roots
    return np.array([[[(S[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                      for i in range(d)] for lam in roots], dtype=np.int64)


@pytest.mark.parametrize("p", [13, 3061])
@pytest.mark.parametrize("seed", range(10))
def test_batched_rref_and_null_spaces_match_per_matrix(p, seed):
    """One `_rref` over a stack of S - lambda, one matrix per root (some
    repeated, so of nullity above one, and one that must swap rows)
    against the list Gauss-Jordan of each matrix on its own, and
    `_nullspaces` of the stack against the per-root null space reduced at
    its first rows of full rank."""
    rng = random.Random(seed)
    d, jordan = rng.randint(2, 9), seed % 2
    stack = _eigen_stack(rng, p, d, jordan)
    nullities = [len(at) for _, at in _nullspaces(stack, p)]
    assert sum(nullities) < d if jordan else max(nullities) > 1
    if seed % 3 == 0:                  # one more, zero only at [0, 0]: a swap
        extra = stack[0].copy()
        extra[0, 0], extra[0, 1:] = 0, 1
        stack = np.concatenate([stack, extra[None]])
    A, pivots = _rref(stack, p)
    for a, piv, M in zip(A, pivots, stack.tolist()):
        assert (a.tolist(), piv) == _rref_ref(M, p, len(M[0]))
    for (N, at), M in zip(_nullspaces(stack, p), stack.tolist()):
        assert N.T.tolist() == _reduced_at_first_rows(_nullspace_ref(M, p), p, at)


def _invariant_space(rng, p, r, d):
    """A random r x r matrix M mod p and a random basis B0 of an M-invariant
    subspace of dimension d, its pivot rows moved by a random permutation."""
    X = [[rng.randrange(p) for _ in range(d)] for _ in range(r - d)]
    Q = [[int(i == j) for j in range(r)] for i in range(r)]
    Qinv = [row[:] for row in Q]
    for i in range(r - d):
        for j in range(d):
            Q[d + i][j], Qinv[d + i][j] = X[i][j], -X[i][j] % p
    T = [[rng.randrange(p) if i < d or j >= d else 0 for j in range(r)]
         for i in range(r)]                      # block upper triangular
    M = _matmul_mod(_matmul_mod(Q, T, p), Qinv, p)
    perm = rng.sample(range(r), r)
    M = [[M[perm[i]][perm[j]] for j in range(r)] for i in range(r)]
    while True:
        G = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if len(_rref_ref(G, p, d)[1]) == d:
            break
    B0 = _matmul_mod([Q[perm[i]][:d] for i in range(r)], G, p)
    return M, B0


@pytest.mark.parametrize("p", [13, 3061])
@pytest.mark.parametrize("seed", range(10))
def test_restriction_on_the_reduced_basis_matches_solve(p, seed):
    """On the reduced basis B (the identity at its pivot rows P) the
    restriction of M is S = (M B)_P, one product: M B = B S, and S is
    similar to what `_solve_restriction_ref` finds from any other basis,
    whose pivot rows are the same P."""
    rng = random.Random(seed)
    r = rng.randint(2, 8)
    d = rng.randint(1, r - 1)
    M, B0 = _invariant_space(rng, p, r, d)
    _, P_old = _rref_ref([list(c) for c in zip(*B0)], p, r)
    MB0 = _matmul_mod(M, B0, p)
    S_old = _solve_restriction_ref([B0[k] for k in P_old], [MB0[k] for k in P_old], p)
    assert _matmul_mod(B0, S_old, p) == MB0

    (A,), (P,) = _rref(np.array(B0, dtype=np.int64).T[None], p)
    B = A.T
    assert P == P_old and B[P].tolist() == np.eye(d, dtype=int).tolist()
    S = np.array(M, dtype=np.int64)[P] @ B % p
    assert (B @ S % p).tolist() == _matmul_mod(M, B.tolist(), p)
    assert _charpoly(S, p) == _charpoly(np.array(S_old, dtype=np.int64), p)


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
