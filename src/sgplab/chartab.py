"""Exact irreducible character tables and the standard operations on them.

Tables are computed by the class-matrix (Burnside) method: eigenvectors of
class-multiplication matrices over a prime field GF(p) with p = 1 mod the
group exponent, p > 2*sqrt(|G|) and p > r, lifted back to cyclotomic
integers by matching eigenvalue multiplicities through the power map.  A
degree d is the least root of x^2 - d^2 mod p (`_poly_roots`).  The lift
is one matrix product per class, the character values mod p along its
power map times the inverse of the root-power matrix [w^(k t)]
(`_root_powers`), and it checks nothing itself: the multiplicities go
straight to the column orthogonality check, which evaluates them with the
same `_root_powers` mod its own prime.  A table that passes it is kept as
integers: per class, the canonical coefficients of its values, the
multiplicities times the fixed reduction R_n mod the n-th cyclotomic
polynomial (`exactnum._canonical_rows`).  Those rows are the one
representation of every table: one given by its values
(`families.sl2_table`) gets them at construction, each value lifted to its
class's element order (`_value_rows`).  Degrees, the order of the
irreducibles, the residues of `restriction_matrix`, equality and the JSON
export are read from them; a computed character's `Cyclo` values are built
on first access.  The power map is read from `ClassData.power_classes`.  A
returned table is exact, not trusted.

The orthogonality check runs in GF(p_v) for a second prime p_v = 1 mod the
exponent with p_v > 2|G|: each pair of columns, of orders n1 and n2, is
compared at all phi(lcm(n1, n2)) embeddings of Q(zeta_lcm) into GF(p_v),
the pairs of one pair of orders in one product.  Agreement at every
embedding is equality, because each difference is an algebraic integer
whose conjugates are at most 2|G| < p_v in absolute value, so its norm is
either 0 or too small to be divisible by p_v^phi(lcm) (see
`_verify_column_orthogonality`).

Class matrices are never built whole (G. J. A. Schneider, "Dixon's
character table algorithm revisited", J. Symbolic Comput. 9 (1990)
601-606).  Each invariant space of dimension d is kept in reduced form:
an int64 basis B that is the identity at its d pivot rows P, the first
rows at which the space has full rank (one Gauss-Jordan, `_rref`, gives
both).  As M*B = B*S, a class matrix M acts on the space by S = (M*B)_P,
the d rows of M at P times B, and each eigenspace of S is B*N for N the
null-space basis of S - lambda that is the identity at its first rows of
full rank, for each root lambda of the Faddeev-LeVerrier characteristic
polynomial of S (`_charpoly`, exact as d <= r < p).  The pivot rows of
B*N are those rows of P, so B*N is already reduced, and one batched
`_rref` gives the null spaces of every root (`_nullspaces`).

Pivots are chosen in the order identity class first, then by class size,
then by index, and a space of dimension d > 1 is split by M_k for k its
first pivot after the identity.  That split cannot fail: the space is
spanned by d central characters omega_a, its pivot block [omega_a(C_j)]
is invertible, and omega_a(C_1) = 1 for every a, so the eigenvalues
omega_a(C_k) of M_k on it are not all equal.  A space that M_k leaves
whole raises `InternalCheckError`.  The class algebra is commutative, so
row k of M_i is row i of M_k; it is read from the column of the smaller
of C_i and C_k, rescaled by the symmetry of the structure constants, at
min(|C_i|, |C_k|) products (rows are cached per pair of classes, every
column is checked to sum to the class size, and a rescaled entry that is
not an integer raises `InternalCheckError`).  The columns a space lacks
are computed together: one fixed-element product per column, then one
lookup and one count for all of them.  Every batched step runs in runs of
at most _BATCH keys or values (`_batches`), so its temporaries stay
bounded whatever the group.

Tables and characters are immutable; sharing across threads is fine.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import InternalCheckError, ResourceBoundError, SubgroupError
from .exactnum import Cyclo, _canonical_rows, _prime_factors, cyclotomic_poly
from .groups import ClassData, FinGroup, _require_subgroup, conjugacy_classes

__all__ = [
    "Character", "CharTable", "dixon_schneider", "inner_product", "induce",
    "restrict", "restriction_matrix", "split_fuse", "trivial_character",
    "tables_equal_upto_permutation", "table_to_json", "table_to_csv",
]

MAX_CLASSES = 200
_BATCH = 1 << 16      # keys, or int64 values, per batched step (`_batches`)


def _batches(items, size):
    """Runs of consecutive items whose sizes sum to at most _BATCH, or one
    item alone, so a step batched over a run holds O(_BATCH) temporaries."""
    run, total = [], 0
    for item in items:
        if run and total + size(item) > _BATCH:
            yield run
            run, total = [], 0
        run.append(item)
        total += size(item)
    if run:
        yield run


# -- small mod-p linear algebra ----------------------------------------------


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _dixon_prime(exponent: int, bound: int) -> int:
    """The least prime p = 1 mod exponent with p > bound."""
    p = bound - (bound - 1) % exponent + exponent
    while not _is_prime(p):
        p += exponent
    return p


def _dixon_root(exponent: int, bound: int) -> tuple:
    """(p, z): the least prime p = 1 mod exponent above bound, and an element
    z of multiplicative order exponent mod p."""
    p = _dixon_prime(exponent, bound)
    return p, pow(_primitive_root(p), (p - 1) // exponent, p)


def _primitive_root(p: int) -> int:
    fs = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in fs):
            return g
    raise InternalCheckError(f"no primitive root mod {p}")


def _rref(A: np.ndarray, p: int) -> tuple:
    """Gauss-Jordan mod p on a stack of int64 matrices (t, m, n), exact for
    p < 2^31, each matrix with pivots of its own.

    Returns the reduced copies and, per matrix, its pivot columns.  The
    reduced row echelon form is unique, so it does not depend on the pivot
    choices.
    """
    A = A % p
    rank = np.zeros(len(A), dtype=np.intp)
    pivots = [[] for _ in A]
    for c in range(A.shape[2]):
        # per matrix, its first row at or below its rank that is nonzero at c
        below = (A[:, :, c] != 0) & (np.arange(A.shape[1]) >= rank[:, None])
        at = np.flatnonzero(below.any(axis=1))
        if not at.size:
            continue
        r, piv = rank[at], below[at].argmax(axis=1)
        row = A[at, piv]
        A[at, piv] = A[at, r]
        row = row * np.array([pow(int(x), p - 2, p) for x in row[:, c]])[:, None] % p
        f = A[at, :, c]
        f[np.arange(at.size), r] = 0
        A[at] = (A[at] - f[:, :, None] * row[:, None, :]) % p
        A[at, r] = row
        rank[at] += 1
        for i in at.tolist():
            pivots[i].append(c)
    return A, pivots


def _nullspaces(M: np.ndarray, p: int) -> list:
    """Per matrix of a stack M (t, m, n), the basis of its right null space
    mod p that is the identity at its first rows of full rank, and those
    rows: (N, rows), N an int64 n x k matrix.  One `_rref` of M with its
    columns reversed gives them all: there a pivot row's entries sit only
    at later free columns, so in the original order every row of N that is
    not free is a combination of earlier free rows, and the free columns
    are the first rows of full rank, where N is the identity."""
    n = M.shape[2]
    A, pivots = _rref(M[:, :, ::-1], p)
    out = []
    for a, piv in zip(A, pivots):
        free = [c for c in reversed(range(n)) if c not in piv]
        N = np.zeros((n, len(free)), dtype=np.int64)
        N[free, range(len(free))] = 1
        N[piv] = -a[:len(piv), free] % p
        out.append((N[::-1], [n - 1 - c for c in free]))
    return out


def _charpoly(S: np.ndarray, p: int) -> list:
    """Characteristic polynomial mod p of an int64 matrix S of size d < p,
    ascending coefficients (monic), by Faddeev-LeVerrier: N_1 = I,
    c_(d-k) = -tr(S N_k) / k and N_(k+1) = S N_k + c_(d-k) I."""
    d = len(S)
    c = [0] * d + [1]
    eye = np.eye(d, dtype=np.int64)
    N = eye
    for k in range(1, d + 1):
        SN = S @ N % p
        c[d - k] = -int(np.trace(SN)) * pow(k, p - 2, p) % p
        N = (SN + c[d - k] * eye) % p
    return c


def _poly_roots(poly: list, p: int) -> list:
    """The roots in [0, p) of a nonzero polynomial (ascending coefficients),
    in increasing order: Horner's rule at every x at once, in int64, which
    is exact while (p - 1)^2 + p - 1 < 2^63."""
    if p >= 1 << 31:
        raise InternalCheckError(f"p = {p} is too large for int64 root finding")
    x = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(poly):
        acc = (acc * x + c % p) % p
    return [int(v) for v in np.flatnonzero(acc == 0)[:len(poly) - 1]]


def _root_powers(z: int, exponent: int, n: int, p: int) -> np.ndarray:
    """The n x n matrix [w^(k t) mod p], w = z^(exponent / n), for z of
    multiplicative order exponent mod p and n dividing exponent."""
    w = pow(z, exponent // n, p)
    powers = np.array([pow(w, e, p) for e in range(n)], dtype=np.int64)
    k = np.arange(n)
    return powers[np.outer(k, k) % n]


def _lift(chi: np.ndarray, pow_classes: list, exponent: int, p: int, z: int) -> list:
    """Eigenvalue multiplicities from the r x r character values mod p, by
    the inverse DFT along each class's power map: entry [a, k] of matrix j
    is the multiplicity of zeta_n^k in rep_j under irreducible a, n =
    order(rep_j), as a residue mod p (int64 while n * p^2 < 2^63).  Nothing
    is checked here: `_verify_column_orthogonality` refuses any residue
    matrix that is not a character table (z: of order exponent mod p)."""
    mults = []
    for pc in pow_classes:
        n = len(pc)
        w_inv = _root_powers(z, exponent, n, p)[:, -np.arange(n) % n]
        mults.append(chi[:, list(pc)] @ w_inv % p * pow(n, p - 2, p) % p)
    return mults


def _value_rows(irreducibles, orders) -> list:
    """The canonical rows of a table given by its values: the value of each
    irreducible at class j lifted to the element order n_j.  A character
    value is an algebraic integer, and the power basis of Z[zeta_n] is
    integral, so a value of an order that does not divide n_j, or with a
    coefficient that is not an integer or does not fit int64, is refused."""
    rows = []
    for j, n in enumerate(orders):
        C = np.zeros((len(irreducibles), len(cyclotomic_poly(n)) - 1), dtype=np.int64)
        for a, ch in enumerate(irreducibles):
            v = ch.values[j]
            if n % v.order:
                raise InternalCheckError(
                    f"class {j}: a value of order {v.order} at element order {n}")
            for k, c in v.lift(n).coeffs.items():
                if c.denominator != 1 or not -(1 << 63) <= c < 1 << 63:
                    raise InternalCheckError(
                        f"class {j}: canonical coefficient {c} is not an int64 integer")
                C[a, k] = int(c)
        rows.append(C)
    return rows


# -- characters and tables ---------------------------------------------------


class Character:
    """A class function with exact cyclotomic values, one per class.

    A character of a computed table (`_of_table`) holds the canonical
    coefficients of each value, and builds its `Cyclo` values on first
    access; they are cached, like `Cyclo.coeffs`."""

    __slots__ = ("group", "name", "_values", "_rows")

    def __init__(self, group: FinGroup, values, name: str = ""):
        self.group, self.name = group, name
        self._values, self._rows = tuple(values), None

    @classmethod
    def _of_table(cls, group: FinGroup, rows: tuple) -> "Character":
        """rows[j] = (order n_j, canonical coefficients) of the value at class j."""
        ch = cls(group, ())
        ch._values, ch._rows = None, rows
        return ch

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = tuple(Cyclo(n, {k: c for k, c in enumerate(coeffs) if c})
                                 for n, coeffs in self._rows)
        return self._values

    @property
    def degree(self) -> Fraction:
        cd = conjugacy_classes(self.group)
        d = self.values[cd.identity_class].as_rational()
        if d is None:
            raise InternalCheckError("character degree is not rational")
        return d


class CharTable:
    """The complete set of irreducible characters on a fixed class order.

    `canonical[j]` is the r x phi(n_j) int64 matrix of canonical
    coefficients at class j, one row per irreducible in table order: given
    for a table `dixon_schneider` computed or carried, and
    built from the values otherwise (`_value_rows`).  `multiplicities[j]`
    is the r x n_j eigenvalue multiplicities a computed table was verified
    from, None for a table built from values."""

    def __init__(self, group: FinGroup, classes: ClassData, irreducibles,
                 stats=None, canonical=(), multiplicities=None):
        self.group = group
        self.classes = classes
        self.irreducibles = tuple(irreducibles)
        if len(self.irreducibles) != len(classes):
            raise InternalCheckError("table is not square")
        self.canonical = list(canonical) or _value_rows(self.irreducibles, classes.orders)
        self.multiplicities = multiplicities
        # how the table was computed: not part of the table or its export
        self.stats = MappingProxyType(dict(stats or {}))

    def _degree_column(self) -> list:
        """The degrees in table order: the identity class's canonical column."""
        return self.canonical[self.classes.identity_class][:, 0].tolist()

    @property
    def degrees(self) -> list:
        return sorted(self._degree_column())

    def total_degree(self) -> Fraction:
        return Fraction(sum(self._degree_column()))

    def max_degree(self) -> Fraction:
        return Fraction(max(self._degree_column()))

    def __repr__(self):
        return f"CharTable({self.group.label}, {len(self.irreducibles)} irreducibles)"


def trivial_character(G: FinGroup) -> Character:
    r = len(conjugacy_classes(G))
    return Character(G, tuple(Cyclo.from_rational(1) for _ in range(r)), "Tr")


def _class_columns(G: FinGroup, cd: ClassData, inverses, columns: list) -> list:
    """Column m of the class matrix of C_i for each (i, m) in columns:
    M[k][m] = #{x in C_i : x^-1 g_m in C_k}, with inverses[i] the keys x^-1
    of the members x of C_i.  One fixed-element product per column, then
    one lookup and one count, offset by column, for each run of columns of
    at most _BATCH keys."""
    r, out = len(cd), []
    for run in _batches(columns, lambda c: cd.sizes[c[0]]):
        ys = []
        for i, m in run:
            y = G.ops.mul(inverses[i], G.keys[cd.reps[m]])
            y.sort()          # only counted: sorted needles search faster
            ys.append(y)
        at = np.repeat(np.arange(0, len(ys) * r, r), [y.size for y in ys])
        at += cd.class_of[G.index_of(np.concatenate(ys))]
        del ys
        counts = np.bincount(at, minlength=len(run) * r).reshape(len(run), r)
        if counts.sum(axis=1).tolist() != [cd.sizes[i] for i, _ in run]:
            raise InternalCheckError("class-matrix column sum mismatch")
        out += counts.tolist()
    return out


def _class_row(cd: ClassData, col: list, k: int) -> list:
    """Row k of a class matrix from its column k*, by the symmetry of the
    structure constants: |C_m| * M[k][m] = |C_k| * M[m*][k*]."""
    row = []
    for m, mstar in enumerate(cd.inverse_class):
        val, rem = divmod(cd.sizes[k] * col[mstar], cd.sizes[m])
        if rem:
            raise InternalCheckError("class-matrix symmetry fails")
        row.append(val)
    return row


def _central_characters(G: FinGroup, cd: ClassData, p: int) -> tuple:
    """The r central characters omega_a mod p, each normalized to 1 at the
    identity class, as the common eigenvectors of the class matrices M_k
    (M_k omega_a = omega_a(C_k) omega_a), and the number of class-matrix
    columns computed for them."""
    r = len(cd)
    id_cls = cd.identity_class
    # pivot rows are chosen in this order, so the identity row always is one
    order = [id_cls] + sorted((i for i in range(r) if i != id_cls),
                              key=lambda i: (cd.sizes[i], i))
    rank = {c: t for t, c in enumerate(order)}
    inverses, rows = {}, {}       # the members of a class, inverted once

    def class_rows(i, ks):
        """Rows k of M_i for k in ks, each row i of M_k: read from a column
        of the smaller class, those not cached computed together."""
        pairs = [tuple(sorted((i, k), key=rank.get)) for k in ks]
        todo = [ab for ab in dict.fromkeys(pairs) if ab not in rows]
        for a, _ in todo:
            if a not in inverses:
                inverses[a] = G.ops.inv(G.keys[cd.class_of == a])
        cols = _class_columns(G, cd, inverses, [(a, cd.inverse_class[b]) for a, b in todo])
        for (a, b), col in zip(todo, cols):
            rows[a, b] = _class_row(cd, col, b)
        return [rows[ab] for ab in pairs]

    # split the common eigenspaces of the class matrices; a space is (B, P)
    # with B an r x d basis that is the identity at its pivot rows P, so
    # M B = B S gives S = (M B)_P, and M_k of the first pivot k after the
    # identity splits it.  Rows of B off P are combinations of earlier
    # pivot rows, so an eigenspace B N has its pivot rows among P, where
    # it is N: the reduced null spaces of S - lambda, one stack for the
    # roots lambda in each run of at most _BATCH values, give the new
    # spaces.
    spaces = [(np.eye(r, dtype=np.int64)[:, order], order)]
    lines = []
    while spaces:
        B, P = spaces.pop()
        if len(P) == 1:
            lines.append(B)
            continue
        S = np.array(class_rows(P[1], P), dtype=np.int64) % p @ B % p
        roots = _poly_roots(_charpoly(S, p), p)
        if len(roots) < 2:
            raise InternalCheckError("class matrices failed to split the algebra")
        eye = np.eye(len(P), dtype=np.int64)
        for run in _batches(roots, lambda _: eye.size):
            for N, at in _nullspaces(S - np.array(run)[:, None, None] * eye, p):
                spaces.append((B @ N % p, [P[k] for k in at]))
    if len(lines) != r:
        raise InternalCheckError("class matrices failed to split the algebra")

    omegas = []
    for B in lines:
        v = B[:, 0].tolist()
        scale = pow(v[id_cls], p - 2, p)
        omegas.append([x * scale % p for x in v])
    return omegas, len(rows)


def dixon_schneider(G: FinGroup) -> CharTable:
    """The exact irreducible character table of an enumerated group.  An
    image (`groups._image`) carries its source's: class j takes the
    multiplicities of the source's class of its representative, read
    through the kept argsort, verified and ordered as a computed table."""
    if G._chartable is not None:
        return G._chartable
    cd = conjugacy_classes(G)
    if G.source:
        S, _, by = G.source
        T = dixon_schneider(S)
        G._chartable = _verified_table(
            G, cd, [T.multiplicities[j] for j in T.classes.class_of[by[list(cd.reps)]]],
            dict(T.stats, class_columns=0, carried_from=S.label))
        return G._chartable
    r = len(cd)
    if r > MAX_CLASSES:
        raise ResourceBoundError(f"{r} classes exceeds the bound {MAX_CLASSES}")
    exponent = math.lcm(*cd.orders)
    p, z = _dixon_root(exponent, max(2 * math.isqrt(G.order) + 1, r))  # p > d
    if max(r, *cd.orders) * p * p >= 1 << 63:
        raise InternalCheckError(f"Dixon prime {p} overflows the int64 lift and split")
    omegas, n_columns = _central_characters(G, cd, p)

    # degrees:  d^2 = |G| / sum_j omega_j * omega_{j*} / |C_j|, d the least root
    size_inv = [pow(cd.sizes[j], p - 2, p) for j in range(r)]
    chars_mod = []
    for u in omegas:
        s = sum(u[j] * u[cd.inverse_class[j]] * size_inv[j] for j in range(r)) % p
        roots = _poly_roots([-G.order * pow(s, p - 2, p) % p, 0, 1], p)
        if not roots or roots[0] == 0:
            raise InternalCheckError("degree recovery failed")
        chars_mod.append([roots[0] * u[j] % p * size_inv[j] % p for j in range(r)])

    # lift to cyclotomics through the power map, verified before it is used:
    # chi_a(rep_j) = sum_k mults[j][a, k] zeta_n^k, n = order(rep_j)
    mults = _lift(np.array(chars_mod, dtype=np.int64), cd.power_classes,
                  exponent, p, z)
    G._chartable = _verified_table(G, cd, mults, {"dixon_prime": p,
                                                  "class_columns": n_columns})
    return G._chartable


def _verified_table(G: FinGroup, cd: ClassData, mults: list, stats: dict) -> CharTable:
    """The table whose class j has the eigenvalue multiplicities mults[j],
    once `_verify_column_orthogonality` passes them, kept as canonical
    rows and ordered by degree, then by the canonical values."""
    p_v = _verify_column_orthogonality(G.order, cd, mults)
    canonical = [_canonical_rows(M) for M in mults]
    rows = [tuple(zip(cd.orders, row)) for row in zip(*(C.tolist() for C in canonical))]
    degrees = [row[cd.identity_class][1][0] for row in rows]
    # by degree, then per class the nonzero (exponent, coefficient) pairs of
    # the canonical form of the value at order n_j
    order = sorted(range(len(cd)), key=lambda a: (degrees[a], tuple(
        tuple((k, c) for k, c in enumerate(coeffs) if c) for _, coeffs in rows[a])))
    irreducibles = [Character._of_table(G, rows[a]) for a in order]
    return CharTable(G, cd, irreducibles, dict(stats, verify_prime=p_v),
                     [C[order] for C in canonical], [M[order] for M in mults])


def _embeddings(n1: int, n2: int) -> tuple:
    """The phi(n) embeddings zeta_n -> w^u, u a unit mod n = lcm(n1, n2), as
    the root powers (t1, t2) at which an order-n1 column and the conjugate
    of an order-n2 column are read."""
    n = math.lcm(n1, n2)
    u = np.array([u for u in range(n) if math.gcd(u, n) == 1])
    return u % n1, -u % n2


def _verify_column_orthogonality(order: int, cd: ClassData, mults: list) -> int:
    """Check sum_i chi_i(g_j1) conj(chi_i(g_j2)) = delta * |G| / |C_j1| for
    every pair of classes, exactly, and return the verification prime.

    mults[j] is the r x n_j matrix of eigenvalue multiplicities of class j
    (see `dixon_schneider`): chi_i(g_j) = sum_k mults[j][i, k] zeta^k for a
    primitive n_j-th root zeta.  Every column is evaluated mod a prime
    p_v = 1 mod the exponent with p_v > 2|G|, at every power of one
    primitive n_j-th root w_j of GF(p_v), and a pair of orders n1, n2 is
    compared at the phi(n) embeddings zeta_n -> w^u, u a unit mod
    n = lcm(n1, n2) (the conjugate column at w^-u).

    This is exact.  Let alpha = S - target in Z[zeta_n].  As p_v = 1 mod n,
    p_v splits into phi(n) distinct primes (p_v, zeta_n - w^u) of
    Z[zeta_n] (Washington, Introduction to Cyclotomic Fields, ch. 2), so
    alpha vanishing at every u puts alpha in p_v Z[zeta_n], and
    p_v^phi(n) divides the norm N(alpha).  But each chi_i(g) is a sum of
    chi_i(1) = d_i roots of unity (the multiplicities are non-negative and
    sum to d_i) and sum d_i^2 = |G|, so |sigma(S)| <= |G| under every
    embedding sigma, |sigma(alpha)| <= 2|G| < p_v and
    |N(alpha)| < p_v^phi(n).  Hence N(alpha) = 0 and alpha = 0.  Those
    three facts are checked here first; the sums stay in int64 while
    r * p_v^2 < 2^62.
    """
    r = len(cd)
    exponent = math.lcm(*cd.orders)
    p, z = _dixon_root(exponent, 2 * order)
    if r * p * p >= 1 << 62:
        raise InternalCheckError(f"verification prime {p} overflows int64 sums")
    degrees = mults[cd.identity_class][:, 0]
    if (any((M < 0).any() or not np.array_equal(M.sum(axis=1), degrees)
            for M in mults) or int(degrees @ degrees) != order):
        raise InternalCheckError("eigenvalue multiplicities are not a character table")
    # evals[j][i, t]: chi_i(g_j) under zeta_n -> w^t
    evals = [M @ _root_powers(z, exponent, M.shape[1], p) % p for M in mults]
    of_order = {}
    for j, n in enumerate(cd.orders):
        of_order.setdefault(n, []).append(j)
    failed = []
    # the pairs of classes of orders n1 <= n2 in one product per pair of
    # runs of them, each run at most _BATCH values at the phi(lcm)
    # embeddings; a pair and its swap hold conjugate sums, so each
    # unordered pair is checked once
    for n1, n2 in itertools.combinations_with_replacement(sorted(of_order), 2):
        t1, t2 = _embeddings(n1, n2)
        for J1 in _batches(of_order[n1], lambda _: r * t1.size):
            E1 = np.stack([evals[j][:, t1] for j in J1])
            for J2 in _batches(of_order[n2], lambda _: r * t2.size):
                s = np.einsum("aiu,biu->abu", E1,
                              np.stack([evals[j][:, t2] for j in J2])) % p
                want = np.array([[order // cd.sizes[a] % p if a == b else 0
                                  for b in J2] for a in J1], dtype=np.int64)
                failed += [tuple(sorted((J1[a], J2[b]))) for a, b in
                           np.argwhere((s != want[:, :, None]).any(axis=2)).tolist()]
    if failed:
        j1, j2 = min(failed)
        raise InternalCheckError(f"column orthogonality fails at classes ({j1}, {j2})")
    return p


# -- operations ---------------------------------------------------------------


def inner_product(a: Character, b: Character) -> Fraction:
    """(1/|G|) sum over classes of size * a * conj(b)."""
    if a.group is not b.group:
        raise SubgroupError("inner product needs characters of the same group")
    cd = conjugacy_classes(a.group)
    val = sum((size * x * y.conjugate() for size, x, y
               in zip(cd.sizes, a.values, b.values)), Cyclo.zero()).as_rational()
    if val is None:
        raise InternalCheckError("inner product of class functions is irrational")
    return val / a.group.order


def _fusion_map(H: FinGroup, G: FinGroup) -> list:
    """G-class index of each H-class representative."""
    _require_subgroup(H, G)
    cdh, cdg = conjugacy_classes(H), conjugacy_classes(G)
    reps = H.keys[list(cdh.reps)]
    return [int(cdg.class_of[i]) for i in G.index_of(reps)]


def restrict(chi: Character, H: FinGroup) -> Character:
    """chi viewed on the classes of the subgroup H."""
    G = chi.group
    fusion = _fusion_map(H, G)
    return Character(H, tuple(chi.values[c] for c in fusion),
                     chi.name and f"{chi.name}|{H.label}")


def restriction_matrix(TG: CharTable, TH: CharTable) -> np.ndarray:
    """M[i, j] = <chi_i|_H, psi_j> over the irreducibles of G and H in table
    order, as the int64 matrix X_G[:, fusion] diag(|h^H|) conj(X_H)^T / |H|
    mod G's Dixon prime p = 1 mod e = exp(G), every table value read at the
    one embedding zeta_n -> z^(e/n), z of order e (`_residues`; the
    conjugate is the value at the inverse class).  This is exact:
    - both tables are verified character tables and the fusion map is an
      exact lookup, so M_ij is an integer in [0, chi_i(1)];
    - chi_i(1) <= sqrt(|G|) < p, so the residue determines M_ij;
    - every prime dividing |G| divides e < p, so p does not divide |G| and
      |H| is invertible mod p.
    An entry above chi_i(1) or a failed reciprocity identity,
    sum_j M_ij psi_j(1) = chi_i(1) or sum_i M_ij chi_i(1) = [G:H] psi_j(1),
    raises InternalCheckError.
    """
    G, H = TG.group, TH.group
    cdg, cdh = TG.classes, TH.classes
    fusion = _fusion_map(H, G)
    exponent = math.lcm(*cdg.orders)
    p, z = _dixon_root(exponent, max(2 * math.isqrt(G.order) + 1, len(cdg)))
    where = f"({G.label}, {H.label})"
    if max(len(cdh), *cdg.orders) * p * p >= 1 << 63:
        raise InternalCheckError(f"{where}: table values do not fit the prime {p}")
    XG, XH = (_residues(T, p, z, exponent, where) for T in (TG, TH))
    weighted = XG[:, fusion] * (np.array(cdh.sizes, dtype=np.int64) % p) % p
    M = weighted @ XH[:, cdh.inverse_class].T % p * pow(H.order, p - 2, p) % p
    d_g, d_h = XG[:, cdg.identity_class], XH[:, cdh.identity_class]
    if ((M > d_g[:, None]).any() or not np.array_equal(M @ d_h, d_g)
            or (d_g @ M).tolist() != [G.order // H.order * int(d) for d in d_h]):
        raise InternalCheckError(f"({G.label}, {H.label}): multiplicities "
                                 f"fail the degree or reciprocity checks")
    return M


def _residues(T: CharTable, p: int, z: int, exponent: int, where: str) -> np.ndarray:
    """T's values mod p, a value at a class of order n read at
    zeta_n -> z^(exponent/n) for z of order exponent: the canonical rows
    times the powers of that root (int64 while phi(n) * p^2 < 2^63)."""
    columns = []
    for C, n in zip(T.canonical, T.classes.orders):
        if exponent % n:
            raise InternalCheckError(
                f"{where}: class order {n} does not divide the exponent {exponent}")
        w = pow(z, exponent // n, p)
        powers = np.array([pow(w, k, p) for k in range(C.shape[1])], dtype=np.int64)
        columns.append(C % p @ powers % p)
    return np.column_stack(columns)


def induce(psi: Character, G: FinGroup) -> Character:
    """Frobenius induction of a class function from H up to G."""
    H = psi.group
    fusion = _fusion_map(H, G)
    cdh, cdg = conjugacy_classes(H), conjugacy_classes(G)
    r = len(cdg)
    sums = [Cyclo.zero() for _ in range(r)]
    for i, c in enumerate(fusion):
        cent_h = Fraction(1, H.order // cdh.sizes[i])
        sums[c] = sums[c] + cent_h * psi.values[i]
    vals = [Fraction(G.order, cdg.sizes[k]) * sums[k] for k in range(r)]
    return Character(G, tuple(vals), psi.name and f"{psi.name}^{G.label}")


def split_fuse(psi: Character, G: FinGroup) -> str:
    """For |G : H| = 2: 'split' if psi induces reducibly, 'fuse' otherwise."""
    H = psi.group
    if G.order != 2 * H.order:
        raise SubgroupError("split/fuse analysis needs an index-2 subgroup")
    ind = induce(psi, G)
    norm = inner_product(ind, ind)
    if norm == 2:
        return "split"
    if norm == 1:
        return "fuse"
    raise InternalCheckError(f"induced norm {norm}: psi was not irreducible")


# -- comparison and export -----------------------------------------------------


def tables_equal_upto_permutation(A: CharTable, B: CharTable) -> bool:
    """Exact equality up to a permutation of the irreducibles, for two tables
    on one group and one class order (False for any other pair): their
    canonical rows, sorted, are equal."""
    if A.group is not B.group or A.classes is not B.classes:
        return False

    def rows(T):
        return sorted(zip(*(C.tolist() for C in T.canonical)))

    return rows(A) == rows(B)


def table_to_json(T: CharTable) -> dict:
    """The table as JSON, its values written from its canonical rows
    (integer coefficients, so denominator 1)."""
    cd = T.classes
    rows = [C.tolist() for C in T.canonical]
    return {
        "group": T.group.label,
        "order": T.group.order,
        "classes": [
            {"rep": T.group.ops.describe(T.group.keys[cd.reps[j]]),
             "size": cd.sizes[j],
             "element_order": cd.orders[j]}
            for j in range(len(cd))
        ],
        "irreducibles": [[{"order": n, "coeffs": [[k, c, 1] for k, c in enumerate(row[a]) if c]}
                          for n, row in zip(cd.orders, rows)] for a in range(len(cd))],
    }


def table_to_csv(T: CharTable) -> str:
    """Human-oriented rendering; complex floats, lossy by design."""
    cd = T.classes
    lines = ["# lossy float rendering of an exact table; use JSON for exact values"]
    lines.append(",".join(["degree"] + [f"size{cd.sizes[j]}/ord{cd.orders[j]}"
                                        for j in range(len(cd))]))
    for ch in T.irreducibles:
        cells = []
        for v in ch.values:
            z = v.to_complex()
            cells.append(f"{z.real:.6g}{z.imag:+.6g}i" if abs(z.imag) > 1e-9
                         else f"{z.real:.6g}")
        lines.append(",".join([str(int(ch.degree))] + cells))
    return "\n".join(lines) + "\n"
