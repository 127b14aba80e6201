"""Explicit finite matrix groups over GF(2^e) and their conjugacy structure.

Groups are full element enumerations.  Each element is a small matrix whose
entry codes (Zech-log codes, see `gfield`) are bit-packed into one key, a
uint32 when the packed width fits in 32 bits and a uint64 otherwise (the
`dtype` of its MatOps or ExtOps); a group stores the sorted key array, so
membership and class lookups are binary searches and all of the heavy work
(closure, conjugation orbits, class-matrix counts) runs as vectorized numpy
passes over key arrays.

Almost every hot product multiplies a key array by one fixed element.
`MatOps.mul` does those with byte tables of the GF(2)-linear map x -> x*g
(or g*x), built on first use from the images of the dim*dim*bits
single-bit keys (read off the entries of g, no product) and kept in a
small bounded cache on the MatOps; conjugation x -> g^-1*x*g is one such
linear map too, so `MatOps.conj` (the class partition's step) costs one
table pass, not two.  Inverses are a fixed permutation of entry bits, applied the same
way.  Other products go through `MatOps._matmul`.  `ExtOps` (the twisted
pairs of ext-sp2q2) runs its matrix part on the same kernel.

Group specs are read from one table, `_SPECS` (name -> arity, builder);
`parse_group_spec` is the only validator, and the builders take its
validated ints.  Every builder refuses a closed-form order above max_order
before enumerating.  Every group but sp4:q closes its own generators
(`_generated`); the subgroups of sp4:q check their keys in one batched
pass instead of enumerating sp4:q.  sp4:q itself is the union of the
cosets t P of P = parabolic-p:q, one per point of PG(3, q), with a proof
that its generating pair generates it, so its class partition takes two
products per element; building sp4:q leaves P in the build cache too.

The class partition runs one trace fiber at a time, and carries the
labels of a fiber along the entrywise Frobenius (`MatOps.frobenius`) to
the fiber of the squared trace.  The graph automorphism tau of Sp4(2^e)
(`MatOps.graph_aut`) pairs maximal subgroups; `carry_classes` moves the
classes of one onto the other, checked.  Every 2 x 2 form a1 b2 + a2 b1 (the
minors of tau, the Gram forms, so4's x1 x4 + x2 x3) is one `MatOps.pair_form` gather.

A FinGroup's keys never change after construction; its class partition
and character table are computed on first request and cached on it.  The
table cache of a MatOps (shared by every group over one field, dimension
and inverse mode) is a bounded `functools.lru_cache`, which does its own
locking.  Every kernel entry point runs its pass in _CHUNK-key slices
(`_sliced`), so a whole-group pass holds its output and O(_CHUNK)
temporaries, and its results do not depend on the slice boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, repeat

import numpy as np

from . import gfield
from .errors import (GroupSpecError, InternalCheckError, ResourceBoundError,
                     SubgroupError)
from .exactnum import _prime_factors

__all__ = [
    "ClassData", "FinGroup", "MatOps", "ExtOps",
    "build_group", "parse_group_spec", "conjugacy_classes", "h_classes",
    "centralizer_order", "maximal_subgroups_sp4", "subgroup",
    "find_generators", "mulclose", "element_order", "element_powers",
    "is_subgroup", "carry_classes",
    "squares_subgroup", "cyclic_subgroup", "perm_group", "all_subgroups",
]

MAX_ORDER_DEFAULT = 2_500_000
_CHUNK = 1 << 16      # keys per kernel pass (`_sliced`); _matmul's ~18 MB over GF(8)
_TABLE_CACHE = 64   # (element, map) byte-table sets kept per MatOps
_PAIRS = ((0, 1), (0, 2), (1, 3), (2, 3))   # the basis e_i ^ e_j of `MatOps.graph_aut`

def _key_dtype(width: int):
    """The narrowest key dtype that holds `width` packed bits."""
    if width > 64:
        raise ValueError("matrix does not fit in a 64-bit key")
    return np.dtype(np.uint32 if width <= 32 else np.uint64)


def _as_key_array(x, dtype) -> np.ndarray:
    """x as a 1-d key array of `dtype`, not copied if it is one; a value
    that does not fit raises instead of wrapping."""
    a = np.asarray(x)
    if a.dtype.kind not in "ui":       # Python ints past 2**63: float or object
        a = np.array(x, dtype=np.uint64)
    if a.dtype != dtype:
        if a.size and (a.min() < 0 or a.max() > np.iinfo(dtype).max):
            raise ValueError(f"a key does not fit in {dtype}")
        a = a.astype(dtype)
    return a.reshape(1) if a.ndim == 0 else a


def _sliced(f, *arrays) -> np.ndarray:
    """f(*arrays), computed over _CHUNK-key slices into one output array of
    the dtype f returns: each argument of the longest length n is sliced,
    one of length 1 is passed whole, so f's temporaries stay O(_CHUNK) keys
    whatever n is.  Every whole-group kernel pass goes through here."""
    n, chunk = max(len(a) for a in arrays), _CHUNK
    if n <= chunk:
        return f(*arrays)
    out = None
    for lo in range(0, n, chunk):
        part = f(*(a if len(a) == 1 else a[lo:lo + chunk] for a in arrays))
        if out is None:
            out = np.empty(n, dtype=part.dtype)
        out[lo:lo + chunk] = part
        del part                 # before the next slice's temporaries
    return out


class MatOps:
    """Packed dim x dim matrices over a FieldCtx, entry codes bit-packed.

    inv_mode: "symplectic" uses M^-1 = J M^T J for the fixed antidiagonal
    Gram matrix J; "transpose" is for permutation matrices.  Both are entry
    permutations, applied with byte tables.

    Products by one fixed element, and conjugation by one, use byte tables
    that are built on first use from the images of the single-bit keys
    (read off the entries of the element, with no product) and kept, at
    most _TABLE_CACHE (element, map) pairs, least recently used dropped
    first; it and the pair table are the only state that changes after construction.
    """

    def __init__(self, ctx: gfield.FieldCtx, dim: int, inv_mode: str = "symplectic"):
        self.ctx = ctx
        self.dim = dim
        self.bits = max(1, (ctx.q - 1).bit_length())
        self.dtype = dt = _key_dtype(dim * dim * self.bits)
        if inv_mode not in ("symplectic", "transpose"):
            raise ValueError(f"unknown inverse mode {inv_mode!r}")
        self.inv_mode = inv_mode
        self._shifts = np.arange(dim * dim, dtype=dt) * dt.type(self.bits)
        self._mask = dt.type((1 << self.bits) - 1)
        self._eye = eye = np.zeros((dim, dim), dtype=np.uint8)
        for i in range(dim):
            eye[i, i] = ctx.one
        self.identity = self.pack_one(eye)
        # key chunks of whole entries, at most a byte wide: (shift, width)
        width = max(1, 8 // self.bits) * self.bits
        total = dim * dim * self.bits
        self._chunks = [(s, min(width, total - s)) for s in range(0, total, width)]
        self._poly = np.array([ctx.poly_of(a) for a in range(ctx.q)], dtype=np.uint8)
        code = np.array([ctx.code_of_poly(m) for m in range(ctx.q)], dtype=np.uint8)
        # per chunk, the XOR that turns polynomial codes into log codes: it
        # changes that chunk only, so `_gather` can apply it in place; None
        # over GF(2) and GF(4), where the two codes are the same
        self._to_code = (None if np.array_equal(code, np.arange(ctx.q)) else
                         self._chunk_tables(lambda k: self.pack(code[self.unpack(k)]) ^ k))
        # the code of x^t, bit t of a polynomial code, and the polynomial
        # code of each chunk value
        self._bit_codes = np.array([ctx.code_of_poly(1 << t) for t in range(self.bits)],
                                   dtype=np.uint8)
        self._chunk_poly = self.pack(self._poly[self.unpack(
            np.arange(1 << self._chunks[0][1], dtype=dt))])
        self._inv_tables = self._chunk_tables(
            lambda k: self.pack(self._inv_perm(self.unpack(k))))
        frob = ctx.lut_frob(1)
        self._frob_tables = self._chunk_tables(lambda k: self.pack(frob[self.unpack(k)]))
        # per chunk, the XOR of the polynomial codes of its diagonal entries
        self._trace_tables = self._chunk_tables(lambda k: np.bitwise_xor.reduce(
            self._poly[np.diagonal(self.unpack(k), axis1=1, axis2=2)], axis=1))
        # (int element, side) -> tables
        self._tables = lru_cache(maxsize=_TABLE_CACHE)(self._fixed_tables)

    # -- packing ---------------------------------------------------------

    def pack(self, mats: np.ndarray) -> np.ndarray:
        flat = mats.reshape(len(mats), self.dim * self.dim).astype(self.dtype)
        return np.bitwise_or.reduce(flat << self._shifts, axis=1)

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        keys = _as_key_array(keys, self.dtype)
        # entry by entry, so no temporary is wider than one key array
        flat = np.empty((len(keys), self.dim * self.dim), dtype=np.uint8)
        for i, s in enumerate(self._shifts):
            flat[:, i] = (keys >> s) & self._mask
        return flat.reshape(len(keys), self.dim, self.dim)

    def pack_one(self, mat):
        return self.pack(np.asarray(mat, dtype=np.uint8)[None])[0]

    # -- arithmetic ------------------------------------------------------

    def _matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        mul = self.ctx.lut_mul
        add = self.ctx.lut_add
        terms = mul[a[:, :, :, None], b[:, None, :, :]]  # [n,i,k,j]
        acc = terms[:, :, 0, :]
        for k in range(1, self.dim):
            acc = add[acc, terms[:, :, k, :]]
        return acc

    def mul(self, a, b) -> np.ndarray:
        a, b = _as_key_array(a, self.dtype), _as_key_array(b, self.dtype)
        if len(b) == 1 and len(a) != 1:
            return self._mul_fixed(a, b[0], "right")
        if len(a) == 1 and len(b) != 1:
            return self._mul_fixed(b, a[0], "left")
        return self._mul_ref(a, b)

    def _mul_ref(self, a, b) -> np.ndarray:
        """Products by `_matmul`: the reference the byte tables are built from."""
        return _sliced(lambda x, y: self.pack(self._matmul(self.unpack(x),
                                                           self.unpack(y))),
                       _as_key_array(a, self.dtype), _as_key_array(b, self.dtype))

    # Over GF(2), x -> x*g and x -> g*x are linear maps on the entry bits of
    # x in polynomial basis (Four Russians: Albrecht, Bard and Hart, ACM
    # TOMS 37(1), 2010).  Entry conversion is entrywise and the chunks hold
    # whole entries, so table c maps each value of chunk c of a log-coded key
    # straight to the polynomial bits of its image; XOR over the chunks gives
    # the image of the whole key, and `_to_code` maps it back.  Over GF(2)
    # and GF(4) the polynomial code of an entry is its log code (1 + k for
    # gamma^k, and gamma^2 = gamma + 1 = 3), so there is no `_to_code`: a
    # product is one gather.  A linear map's tables are XORs of the images
    # of the dim*dim*bits single-bit keys x^t E_ij, and each image is an
    # outer product of a column and a row read off the entries of g, so a
    # table set costs no reference product.

    def _chunk_tables(self, image) -> list:
        """Per chunk, `image` of every key that is zero outside that chunk."""
        return [image(np.arange(1 << w, dtype=self.dtype) << self.dtype.type(s))
                for s, w in self._chunks]

    def _linear_tables(self, images: np.ndarray) -> list:
        """The chunk tables of the GF(2)-linear map that sends bit k of a
        polynomial-coded key to images[k]: per chunk, the XOR of the images
        of every subset of its bits, read at each value's polynomial code.
        All chunks are spanned in one doubling pass, a narrower last chunk
        padded with zero images."""
        n, w = len(self._chunks), self._chunks[0][1]
        bits = np.zeros(n * w, dtype=self.dtype)
        bits[:images.size] = images
        bits = bits.reshape(n, w)
        span = np.zeros((n, 1), dtype=self.dtype)    # [c, j]: XOR of chunk c's bits of j
        for b in range(w):
            span = np.concatenate([span, span ^ bits[:, b:b + 1]], axis=1)
        span = span[:, self._chunk_poly]
        return [span[c, :1 << w] for c, (_, w) in enumerate(self._chunks)]

    def _fixed_tables(self, g, side: str) -> list:
        """Chunk tables of keys * g ("right"), g * keys ("left") or
        g^-1 * keys * g ("conj"), from the entries of g: the image of the
        single-bit key x^t E_ij is x^t u_i v_j for the column u_i = U e_i
        and the row v_j = e_j^T V, with (U, V) = (1, g), (g, 1) or
        (g^-1, g)."""
        m = self.unpack(g)[0]
        u, v = {"right": (self._eye, m), "left": (m, self._eye),
                "conj": (self._inv_perm(m[None])[0], m)}[side]
        mul = self.ctx.lut_mul
        outer = mul[u.T[:, None, :, None], v[None, :, None, :]]     # [i, j, a, b]
        images = mul[self._bit_codes[:, None, None], outer[:, :, None]]  # [i, j, t, a, b]
        return self._linear_tables(self.pack(
            self._poly[images].reshape(-1, self.dim, self.dim)))

    def _gather(self, tables: list, keys: np.ndarray, out=None) -> np.ndarray:
        """XOR over the chunks c of tables[c][chunk c of each key], XORed
        into `out` if one is given.  out may be keys itself when each
        tables[c] changes chunk c only, as `_to_code` does: chunk c is read
        before it is written.  Two arrays the size of keys are reused over
        the chunks; mode "clip" keeps take from buffering its output (every
        chunk value indexes its table)."""
        idx = np.empty(len(keys), dtype=np.intp)
        part = None
        for (s, w), t in zip(self._chunks, tables):
            np.right_shift(keys, keys.dtype.type(s), out=idx, casting="unsafe")
            idx &= (1 << w) - 1
            if out is None:
                out = np.take(t, idx)
            else:
                if part is None:
                    part = np.empty_like(out)
                out ^= np.take(t, idx, out=part, mode="clip")
        return out

    def _mul_fixed(self, keys: np.ndarray, g, side: str) -> np.ndarray:
        """keys * g (side "right"), g * keys ("left") or g^-1 * keys * g ("conj")."""
        tables = self._tables(int(g), side)

        def image(k):            # polynomial codes of the images, recoded in place
            poly = self._gather(tables, k)
            return poly if self._to_code is None else self._gather(self._to_code, poly, poly)
        return _sliced(image, keys)

    def conj(self, keys, g) -> np.ndarray:
        """g^-1 * keys * g for one fixed g."""
        return self._mul_fixed(_as_key_array(keys, self.dtype), g, "conj")

    def _inv_perm(self, mats: np.ndarray) -> np.ndarray:
        """The entry permutation that inverts: M^T, or J M^T J, whose entry
        (i, j) is M[d-1-j][d-1-i] in characteristic 2."""
        t = mats.swapaxes(1, 2)
        return t[:, ::-1, ::-1] if self.inv_mode == "symplectic" else t

    def inv(self, keys) -> np.ndarray:
        return _sliced(lambda k: self._gather(self._inv_tables, k),
                       _as_key_array(keys, self.dtype))

    def fiber_of(self, keys) -> np.ndarray:
        """The trace of each key as a uint8 polynomial code: a class
        function, so the class partition can run one trace fiber at a time."""
        return _sliced(lambda k: self._gather(self._trace_tables, k),
                       _as_key_array(keys, self.dtype))

    def frobenius(self, keys) -> np.ndarray:
        """The entrywise Frobenius x -> x^2 of each key: an automorphism of
        the matrix group, which maps the trace fiber t onto fiber t^2."""
        return _sliced(lambda k: self._gather(self._frob_tables, k),
                       _as_key_array(keys, self.dtype))

    @cached_property
    def _pair(self) -> np.ndarray:     # T[a1 a2 b1 b2] = a1 b2 + a2 b1, flat: 4 KB over GF(8)
        mul = self.ctx.lut_mul
        return self.ctx.lut_add[mul[:, None, None, :], mul[None, :, :, None]].ravel()

    def pair_form(self, a1, a2, b1, b2):
        """a1 b2 + a2 b1 for four arrays (or scalars) of entry codes: one gather of `_pair`."""
        a1, e = np.asarray(a1, np.min_scalar_type(self._pair.size - 1)), self.bits
        return self._pair[((a1 << e | a2) << e | b1) << e | b2]

    def graph_aut(self, keys) -> np.ndarray:
        """The graph automorphism tau of Sp4(2^e) (Steinberg, Lectures on
        Chevalley Groups, 1967, sec. 10-11): g on W / <omega>, W the kernel
        of v ^ w -> B(v, w) in Lambda^2 V, omega = e1 ^ e4 + e2 ^ e3.  In the
        basis e_i ^ e_j, (i, j) in _PAIRS (Gram matrix J), tau(g)[r, c] is the
        2 x 2 minor of g on row pair r and column pair c (`pair_form`).
        tau^2 is the entrywise Frobenius."""
        if (self.dim, self.inv_mode) != (4, "symplectic"):
            raise ValueError("the graph automorphism acts on 4 x 4 symplectic keys")
        first, second = np.array(_PAIRS).T

        def image(k):
            m = self.unpack(k)
            top, bottom = m[:, first], m[:, second]     # [n, r, j]: column j on row pair r
            return self.pack(self.pair_form(top[:, :, first], bottom[:, :, first],
                                            top[:, :, second], bottom[:, :, second]))
        return _sliced(image, _as_key_array(keys, self.dtype))

    def powers(self, keys):
        """keys^1, keys^2, ... as key arrays: the running product is kept
        unpacked, so each power is one `_matmul` and one pack."""
        return map(self.pack, accumulate(repeat(self.unpack(keys)), self._matmul))

    def describe(self, key) -> list:
        """Entry-log rows: -1 for the zero entry, else the discrete log."""
        m = self.unpack(key)[0]
        return [[int(c) - 1 for c in row] for row in m]


class ExtOps:
    """Pairs (m, t): m a 2x2 matrix over GF(q^2), t in {0,1}.

    Products twist by the entrywise Frobenius sigma: x -> x^q when t = 1:
    (m, t)(m', t') = (m * sigma^t(m'), t xor t').  The key of (m, t) is the
    MatOps key of m with t in the bit above its entries, and the matrix part
    runs on the byte-table kernel of the shared 2x2 symplectic MatOps over
    GF(q^2); sigma is one more entrywise byte-table map.
    """

    def __init__(self, q: int):
        e = q.bit_length() - 1
        self.q = q
        self.ctx = gfield.field_ctx(2 * e)
        self.dim = 2
        self._mat = mo = mat_ops(self.ctx, 2, "symplectic")
        self.dtype = dt = _key_dtype(4 * mo.bits + 1)
        self._tshift = dt.type(4 * mo.bits)
        self._mmask = dt.type((1 << (4 * mo.bits)) - 1)
        frob = self.ctx.lut_frob(e)
        self._sigma = mo._chunk_tables(lambda k: mo.pack(frob[mo.unpack(k)]))
        self.identity = dt.type(mo.identity)

    def pack_one(self, mat, t: int = 0):
        return self.dtype.type(int(self._mat.pack_one(mat)) | t << int(self._tshift))

    def _split(self, keys):
        """(matrix keys in the MatOps dtype, twist bits as bool) of ext keys."""
        return ((keys & self._mmask).astype(self._mat.dtype, copy=False),
                (keys >> self._tshift).astype(bool))

    def _join(self, mkeys, twist):
        return mkeys.astype(self.dtype, copy=False) | (twist.astype(self.dtype)
                                                       << self._tshift)

    def _twist(self, mkeys, twist):
        """sigma^t of each matrix key, t its twist bit."""
        out = mkeys.copy()
        out[twist] = self._mat._gather(self._sigma, mkeys[twist])
        return out

    def mul(self, a, b) -> np.ndarray:
        return _sliced(self._mul, _as_key_array(a, self.dtype),
                       _as_key_array(b, self.dtype))

    def _mul(self, a, b) -> np.ndarray:
        (ma, ta), (mb, tb) = self._split(a), self._split(b)
        mo = self._mat
        if len(b) == 1 and len(a) != 1:       # by g where t = 0, by sigma(g) where 1
            m = np.empty_like(ma)
            for t, g in ((False, mb[0]), (True, mo._gather(self._sigma, mb)[0])):
                rows = ta == t
                if rows.any():
                    m[rows] = mo._mul_fixed(ma[rows], g, "right")
        elif len(a) == 1 and len(b) != 1:
            m = mo._mul_fixed(mo._gather(self._sigma, mb) if ta[0] else mb,
                              ma[0], "left")
        else:
            m = mo._mul_ref(ma, self._twist(mb, ta))
        return self._join(m, ta ^ tb)

    def conj(self, keys, g) -> np.ndarray:
        """g^-1 * keys * g for one fixed g: both fixed-element products in
        each slice, so the pass holds its output and O(_CHUNK) temporaries."""
        g = _as_key_array(g, self.dtype)
        ginv = self._inv(g)
        return _sliced(lambda k: self._mul(self._mul(ginv, k), g),
                       _as_key_array(keys, self.dtype))

    def inv(self, keys) -> np.ndarray:
        return _sliced(self._inv, _as_key_array(keys, self.dtype))

    def _inv(self, keys) -> np.ndarray:
        """(m, t)^-1 = (sigma^t(m^-1), t)."""
        m, t = self._split(keys)
        minv = self._mat._gather(self._mat._inv_tables, m)
        return self._join(self._twist(minv, t), t)

    def powers(self, keys):
        """keys^1, keys^2, ... as key arrays, one product per power."""
        return accumulate(repeat(keys), self.mul)

    def fiber_of(self, keys) -> np.ndarray:
        """The twist bit of each key (uint8), which conjugation keeps."""
        return _sliced(lambda k: (k >> self._tshift).astype(np.uint8),
                       _as_key_array(keys, self.dtype))

    def describe(self, key) -> dict:
        m, t = self._split(_as_key_array(key, self.dtype))
        return {"matrix": self._mat.describe(m[0]), "twist": int(t[0])}


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _mat_ops_cached(e: int, dim: int, inv_mode: str) -> MatOps:
    return MatOps(gfield.field_ctx(e), dim, inv_mode)


def mat_ops(ctx: gfield.FieldCtx, dim: int, inv_mode: str = "symplectic") -> MatOps:
    """Shared MatOps instance; groups over one (field, dim, mode) compare keys."""
    return _mat_ops_cached(ctx.e, dim, inv_mode)


@lru_cache(maxsize=None)
def _ext_ops_cached(q: int) -> ExtOps:
    return ExtOps(q)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in increasing order, by sort and neighbour compare.
    Sorts `keys` in place (no copy of a large candidate array)."""
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def mulclose(ops, gens_keys, max_order: int) -> np.ndarray:
    """Sorted keys of the subgroup generated by gens_keys."""
    gens = sorted({int(g) for g in gens_keys})
    all_keys = _sorted_unique(_as_key_array([int(ops.identity)] + gens, ops.dtype))
    frontier = all_keys
    while frontier.size and gens:
        cand = _sorted_unique(np.concatenate([ops.mul(frontier, g) for g in gens]))
        pos = np.searchsorted(all_keys, cand)
        new = all_keys[np.minimum(pos, all_keys.size - 1)] != cand
        fresh = cand[new]
        if not fresh.size:
            break
        if all_keys.size + fresh.size > max_order:
            raise ResourceBoundError(
                f"group order exceeds the enumeration bound {max_order}")
        # fresh is sorted, so inserting at the searchsorted positions keeps order
        all_keys = np.insert(all_keys, pos[new], fresh)
        frontier = fresh
    return all_keys


def _greedy_generators(ops, candidates: np.ndarray, target: int) -> tuple:
    """(gens, closure): take the first candidate not yet in the closure of
    gens, close again, and stop when the closure has `target` elements or
    no candidate is left outside it (Seress, Permutation Group Algorithms,
    2003, sec. 4.1)."""
    gens: list = []
    closure = np.array([ops.identity], dtype=ops.dtype)
    while closure.size < target:
        pos = np.minimum(np.searchsorted(closure, candidates), closure.size - 1)
        outside = np.flatnonzero(closure[pos] != candidates)
        if not outside.size:
            break
        gens.append(candidates[outside[0]])
        candidates = candidates[outside[0] + 1:]
        closure = mulclose(ops, gens, target)
    return gens, closure


def find_generators(keys: np.ndarray, ops) -> list:
    """A small deterministic generating set for an enumerated subgroup: the
    greedy closure of its keys in key order."""
    return _greedy_generators(ops, keys, keys.size)[0]


@dataclass(frozen=True)
class ClassData:
    """Partition of a group into conjugation orbits (by G itself or by H <= G)."""

    sizes: tuple
    reps: tuple            # element indices of class representatives
    class_of: np.ndarray   # element index -> class index, np.min_scalar_type(r - 1)
    inverse_class: tuple   # power_classes[j][-1], the class of rep_j^-1
    orders: tuple          # element order of each representative
    identity_class: int
    power_classes: tuple   # per class j, the class of rep_j^t, t = 0 .. orders[j] - 1

    def __len__(self):
        return len(self.sizes)


class FinGroup:
    """An enumerated matrix group: sorted packed keys plus batched operations."""

    def __init__(self, label: str, ops, keys: np.ndarray, gens_keys):
        self.label = label
        self.ops = ops
        self.keys = keys = _as_key_array(keys, ops.dtype)
        self.order = int(keys.size)
        self.gens_keys = [int(g) for g in gens_keys]
        # the inverses are the keys again, so sorted in place they must
        # equal the sorted, distinct keys; ops.inv runs in _CHUNK slices,
        # so this holds one key-sized array beside the keys
        inv = ops.inv(keys)
        inv.sort()
        if not np.array_equal(inv, keys):
            raise InternalCheckError(
                f"{label}: the inverses of its keys are not its keys")
        del inv
        self.identity_idx = int(self.index_of(ops.identity)[0])
        self._classes = None
        self._chartable = None

    def index_of(self, keys) -> np.ndarray:
        keys = _as_key_array(keys, self.ops.dtype)
        pos = np.searchsorted(self.keys, keys)
        bad = (pos >= self.order) | (self.keys[np.minimum(pos, self.order - 1)] != keys)
        if bad.any():
            raise InternalCheckError(
                f"{self.label}: a computed element is not in the group")
        return pos.astype(np.int64)

    def contains(self, keys) -> np.ndarray:
        keys = _as_key_array(keys, self.ops.dtype)
        pos = np.searchsorted(self.keys, keys)
        pos = np.minimum(pos, self.order - 1)
        return self.keys[pos] == keys

    def __repr__(self):
        return f"FinGroup({self.label}, order={self.order})"


def element_powers(ops, keys) -> tuple:
    """(orders, powers) of a key array: orders[j] is the order of keys[j],
    and powers[t][j] = keys[j]^t for t = 0 .. max(orders) - 1.  One array
    product per power (`ops.powers`) serves all the keys."""
    keys = _as_key_array(keys, ops.dtype)
    orders = np.zeros(keys.size, dtype=np.int64)
    powers = [np.full(keys.size, ops.identity, dtype=ops.dtype)]
    for t, acc in enumerate(ops.powers(keys), 1):
        orders[(acc == ops.identity) & (orders == 0)] = t
        if orders.all():
            return [int(n) for n in orders], powers
        powers.append(acc)


def element_order(ops, key) -> int:
    return element_powers(ops, [key])[0][0]


def is_subgroup(H: FinGroup, G: FinGroup) -> bool:
    return H.ops is G.ops and bool(G.contains(H.keys).all())


def _require_subgroup(H, G):
    if not is_subgroup(H, G):
        raise SubgroupError(f"{H.label} is not a subgroup of {G.label}")


def _sorted_onto(img: np.ndarray, keys: np.ndarray, message: str) -> np.ndarray:
    """by = argsort(img), checked to sort img onto the sorted, distinct keys:
    img has their size and img[by] == keys, compared in _CHUNK slices.  So
    img is a permutation of keys, and img[i] = keys[j] for i = by[j]; any
    other image raises InternalCheckError(message)."""
    by = np.argsort(img)
    if img.size != keys.size or not all(
            np.array_equal(img[by[lo:lo + _CHUNK]], keys[lo:lo + _CHUNK])
            for lo in range(0, keys.size, _CHUNK)):
        raise InternalCheckError(message)
    return by


def _conjugation_perm(G: FinGroup, keys: np.ndarray, g) -> np.ndarray:
    """The inverse of i -> index of g^-1 keys[i] g, for the sorted keys of
    a union of classes of G, read off one sort (`_sorted_onto`), since
    conjugation permutes them (a conjugate outside them, or two keys with
    one conjugate, raises)."""
    return _sorted_onto(G.ops.conj(keys, g), keys,
                        f"{G.label}: a conjugate is not in the group, or two elements "
                        "share one, or it leaves its fiber")


def _cycle_minima(P: np.ndarray, n: int) -> np.ndarray:
    """The least position of the cycle of each position under the int32
    permutation P, whose cycles have lengths dividing n: after k rounds of
    label = min(label, label[P]), P = P[P] from label = its own position,
    label[i] is the least of i, P(i), ..., P^(2^k - 1)(i), so ceil(log2 n)
    rounds cover every cycle."""
    label = np.arange(P.size, dtype=np.int32)
    rounds = (n - 1).bit_length()
    for k in range(rounds):
        np.minimum(label, label[P], out=label)
        if k + 1 < rounds:
            P = P[P]
    return label


def _join_orbits(label: np.ndarray, by: np.ndarray) -> None:
    """The union-find step of `_orbit_partition`, in place: join the trees
    of i and by[i] for every i, until each edge i -- by[i] lies in one tree
    and every label is its tree's root."""
    n = label.size
    while True:
        joined = False
        for lo in range(0, n, _CHUNK):
            a, b = label[lo:lo + _CHUNK], label[by[lo:lo + _CHUNK]]
            cross = a != b
            if cross.any():
                a, b = a[cross], b[cross]
                np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
                joined = True
        if not joined:
            return
        total = None
        while True:
            for lo in range(0, n, _CHUNK):
                label[lo:lo + _CHUNK] = label[label[lo:lo + _CHUNK]]
            last, total = total, int(label.sum(dtype=np.int64))
            if total == last:        # labels only fall, so an equal sum moved none
                break


def _orbit_partition(G: FinGroup, gens, within=None) -> tuple:
    """Conjugation-orbit partition of G.keys under the given generators.

    Conjugation keeps the id of `ops.fiber_of` (the trace of a matrix, the
    twist bit of an ExtOps pair), so each fiber is a union of orbits and
    is partitioned on its own; an id that is not a class function fails
    `_conjugation_perm`'s check.  In a fiber, the orbits are the connected
    components of the graph on key positions with the edges i -- by[i],
    by = _conjugation_perm(G, keys, g) for every generator g.  The first
    generator's edges form the cycles of its permutation, whose lengths
    divide its order, so its labels are the cycle minima by doubling
    (`_cycle_minima`), with no union-find.  Each later generator joins
    them by union-find on the int32 labels.  A round reads the labels at both
    ends of every edge, which are roots (label[r] == r) when the round
    starts, and lowers the larger root's label to the smaller
    (np.minimum.at); then pointers jump (label[i] = label[label[i]], in
    place and _CHUNK at a time) until no label moves.  Rounds repeat until
    no edge joins two roots.  A round writes only to the labels of roots,
    so earlier joins stay, and a label is always a position of its orbit
    no greater than its own, so each orbit ends with one root: its least
    position, the key of least index.  Classes are numbered in order of
    their least index, which is their representative.

    The entrywise Frobenius F maps fiber t onto fiber t^2 and the orbits
    under a group K onto those under F(K).  So when F maps G and `within`,
    the group of the generators, into themselves, each fiber's labels are
    carried around its F-orbit, fibers taken in increasing order: the next
    fiber is F of this one, sorted (one gather and `_sorted_onto`),
    each orbit labelled by its least position (np.minimum.at).  Beyond the keys,
    this holds the uint8 fiber ids, the class ids class_of
    (np.min_scalar_type(r - 1) for r classes) and, for one fiber at a
    time, its keys (the group's own when it is one fiber), labels, and one
    generator's conjugates and their argsort, or the first generator's
    int32 permutation and its square; a carry also holds the previous
    fiber's labels, and its keys until their image is taken.
    """
    n, ops = G.order, G.ops
    fiber = ops.fiber_of(G.keys)
    counts = sum(np.bincount(fiber[lo:lo + _CHUNK], minlength=256)
                 for lo in range(0, n, _CHUNK))
    class_of, reps, r = np.empty(n, dtype=np.uint8), [], 0
    first = element_order(ops, gens[0]) if gens else 1
    stable = (within is not None and isinstance(ops, MatOps) and all(
        X.contains(ops.frobenius(X.gens_keys)).all() for X in (G, within)))
    done = set()
    for f in np.flatnonzero(counts).tolist():
        prev = label = None
        while f not in done:
            keys = G.keys if counts[f] == n else np.concatenate(
                [np.compress(fiber[lo:lo + _CHUNK] == f, G.keys[lo:lo + _CHUNK])
                 for lo in range(0, n, _CHUNK)])
            m = keys.size
            if prev is None:
                label = (_cycle_minima(_conjugation_perm(G, keys, gens[0]).astype(np.int32),
                                       first) if gens else np.arange(m, dtype=np.int32))
                for g in gens[1:]:       # each permutation is freed when _join_orbits returns
                    _join_orbits(label, _conjugation_perm(G, keys, g))
            else:                        # keys[i] = F(prev[by[i]]), in prev[by[i]]'s orbit
                img = ops.frobenius(prev)
                del prev
                by = _sorted_onto(img, keys, f"{G.label}: the Frobenius image of a trace "
                                  "fiber is not the fiber of the squared trace")
                del img
                orbit = label[by]
                del by
                label = np.full(m, m, dtype=np.int32)
                np.minimum.at(label, orbit, np.arange(m, dtype=np.int32))
                label = label[orbit]
                del orbit
            done.add(f)
            roots = np.concatenate([lo + np.flatnonzero(label[lo:lo + _CHUNK] == np.arange(
                lo, min(lo + _CHUNK, m), dtype=np.int32)) for lo in range(0, m, _CHUNK)])
            reps.append(np.searchsorted(G.keys, keys[roots]))
            base, r = r, r + roots.size
            if r - 1 > np.iinfo(class_of.dtype).max:
                class_of = class_of.astype(np.min_scalar_type(r - 1))
            ids = np.empty(m, dtype=class_of.dtype)     # id base + j for the j-th root
            ids[roots] = np.arange(base, r)
            pos = 0
            for lo in range(0, n, _CHUNK):
                at = lo + np.flatnonzero(fiber[lo:lo + _CHUNK] == f)
                class_of[at] = ids.take(label[pos:pos + at.size])
                pos += at.size
            del ids
            nxt = int(ops.fiber_of(ops.frobenius(keys[:1]))[0]) if stable else f
            if nxt not in done:
                f, prev = nxt, keys
            del keys
        del label
    reps = np.concatenate(reps)
    by = np.argsort(reps)
    rank = np.empty(r, dtype=class_of.dtype)
    rank[by] = np.arange(r)
    sizes = np.zeros(r, dtype=np.int64)
    for lo in range(0, n, _CHUNK):   # renumber by least index
        part = rank[class_of[lo:lo + _CHUNK]]
        class_of[lo:lo + _CHUNK] = part
        sizes += np.bincount(part, minlength=r)
    return tuple(int(s) for s in sizes), tuple(int(i) for i in reps[by]), class_of


def _with_powers(G: FinGroup, sizes, reps, class_of) -> ClassData:
    """The ClassData of a partition of G, with the power map of its
    representatives: one lookup of their powers."""
    orders, powers = element_powers(G.ops, G.keys[list(reps)])
    at = class_of[G.index_of(np.concatenate(powers))].reshape(len(powers), -1).T
    power_classes = tuple(tuple(row[:n]) for row, n in zip(at.tolist(), orders))
    return ClassData(sizes, reps, class_of, tuple(pc[-1] for pc in power_classes),
                     tuple(orders), int(class_of[G.identity_idx]), power_classes)


def _class_data(G: FinGroup, gens, within=None) -> ClassData:
    """Partition of G into orbits under conjugation by the given generators
    of the group `within`, if it is given (see `_orbit_partition`)."""
    return _with_powers(G, *_orbit_partition(G, gens, within))


def conjugacy_classes(G: FinGroup) -> ClassData:
    if G._classes is None:
        G._classes = _class_data(G, G.gens_keys, G)
    return G._classes


def h_classes(G: FinGroup, H: FinGroup) -> ClassData:
    """Partition of G into orbits under conjugation by H only."""
    _require_subgroup(H, G)
    return _class_data(G, H.gens_keys, H)


def carry_classes(G: FinGroup, H: FinGroup, aut) -> tuple:
    """(ClassData of H, old) for an isomorphism aut of H onto G on keys:
    class j of H, numbered by least index, is the preimage of class old[j]
    of G.  Checked: aut maps H's keys onto G's; aut(x a) = aut(x) aut(a)
    and conjugation by a keeps x's class, for every representative x and
    generator a of H; the carried power map is that of H's representatives."""
    cd = conjugacy_classes(G)
    r = len(cd)
    by = _sorted_onto(aut(H.keys), G.keys, f"{H.label} is not mapped onto {G.label}")
    image_class = np.empty_like(cd.class_of)
    image_class[by] = cd.class_of                   # H index -> class of its image
    least = np.unique(image_class, return_index=True)[1]
    old = np.argsort(least)
    new = np.empty(r, dtype=cd.class_of.dtype)
    new[old] = np.arange(r)
    class_of, reps = new[image_class], least[old]
    # x a and a^-1 x a for each representative x and generator a: array products, no tables
    ops, n = H.ops, len(H.gens_keys)
    x, a = np.tile(H.keys[reps], n), np.repeat(np.array(H.gens_keys, dtype=ops.dtype), r)
    xa = ops.mul(x, a)
    if not (np.array_equal(aut(xa), G.ops.mul(aut(x), aut(a)))
            and np.array_equal(class_of[H.index_of(ops.mul(ops.inv(a), xa))],
                               np.tile(np.arange(r), n))):
        raise InternalCheckError(
            f"{H.label}: the classes carried from {G.label} are not its classes")
    carried = _with_powers(H, tuple(cd.sizes[j] for j in old),
                           tuple(int(i) for i in reps), class_of)
    if carried.power_classes != tuple(tuple(int(new[c]) for c in cd.power_classes[j])
                                      for j in old):
        raise InternalCheckError(
            f"{H.label}: the power map carried from {G.label} is not its power map")
    return carried, old


def centralizer_order(G: FinGroup, key) -> int:
    if not G.contains(key)[0]:
        raise SubgroupError("element is not in the group")
    left = G.ops.mul(G.keys, key)
    right = G.ops.mul(key, G.keys)
    return int(np.count_nonzero(left == right))


def subgroup(G: FinGroup, keys: np.ndarray, label: str) -> FinGroup:
    keys = _sorted_unique(_as_key_array(keys, G.ops.dtype).copy())
    if not G.contains(keys).all():
        raise SubgroupError(f"{label}: keys are not all elements of {G.label}")
    return FinGroup(label, G.ops, keys, find_generators(keys, G.ops))


def squares_subgroup(G: FinGroup, label: str | None = None) -> FinGroup:
    """The subgroup generated by all squares (= A6 for S6, A5 for S5, ...)."""
    sq = _sorted_unique(G.ops.mul(G.keys, G.keys))
    keys = mulclose(G.ops, sq, G.order)
    return subgroup(G, keys, label or f"squares({G.label})")


def cyclic_subgroup(G: FinGroup, key, label: str | None = None) -> FinGroup:
    keys = mulclose(G.ops, [key], G.order)
    return subgroup(G, keys, label or f"cyclic{keys.size}({G.label})")


def all_subgroups(G: FinGroup) -> list:
    """Every subgroup of a small group, as sorted key arrays (exhaustive)."""
    if G.order > 200:
        raise ResourceBoundError("subgroup enumeration is for small groups only")
    seen = {}
    todo = [np.array([G.ops.identity], dtype=G.ops.dtype)]
    while todo:
        keys = todo.pop()
        name = tuple(int(k) for k in keys)
        if name in seen:
            continue
        seen[name] = keys
        # every subgroup is a chain of one-element joins from the trivial one
        gens = find_generators(keys, G.ops)
        todo += [mulclose(G.ops, gens + [g], G.order)
                 for g in np.setdiff1d(G.keys, keys, assume_unique=True)]
    return sorted(seen.values(), key=lambda ks: (ks.size, tuple(int(k) for k in ks)))


# -- constructors -----------------------------------------------------------


def _even_prime_power(q: int, text: str, pos: int) -> int:
    e = q.bit_length() - 1
    if q < 2 or (1 << e) != q:
        raise GroupSpecError(f"q={q} is not a power of 2", text, pos)
    return e


def _sl2_gens(ctx):
    one, g = ctx.one, ctx.gamma
    gens = [[[one, one], [0, one]], [[one, 0], [one, one]]]
    if ctx.q > 2:
        gens.append([[g, 0], [0, ctx.inv(g)]])
    return gens


def _check_order(G: FinGroup, expect: int) -> FinGroup:
    """The end-to-end guard on the kernel: G must have its closed-form order."""
    if G.order != expect:
        raise InternalCheckError(
            f"{G.label}: enumerated {G.order} elements, closed form {expect}")
    return G


def _symplectic(ops, m: np.ndarray) -> np.ndarray:
    """M^T J M = J for each unpacked 4 x 4 matrix M: B(x, y) = x^T J y of J
    antidiagonal is alternating in characteristic 2, so this is the six
    forms B(M e_i, M e_j) = J[i, j], i < j, each the minor of M on rows
    (1, 4) plus the minor on rows (2, 3) at the columns (i, j), by
    `MatOps.pair_form`.  It says what J M^T J M = 1 says, without a product."""
    ok = np.ones(len(m), dtype=bool)
    for i, j in combinations(range(4), 2):      # one form at a time: O(len(m)) temporaries
        b = ops.ctx.lut_add[ops.pair_form(m[:, 0, i], m[:, 3, i], m[:, 0, j], m[:, 3, j]),
                            ops.pair_form(m[:, 1, i], m[:, 2, i], m[:, 1, j], m[:, 2, j])]
        ok &= b == (ops.ctx.one if i + j == 3 else 0)
    return ok


def _generated(label: str, ops, gens, order: int, max_order: int,
               cond=None) -> FinGroup:
    """The closure of gens, refused before enumerating if its closed-form
    `order` exceeds max_order; its order must be `order`.  With `cond` (a
    batched condition on the unpacked matrices) every key must also pass
    cond and be symplectic (`_symplectic`)."""
    if order > max_order:
        raise ResourceBoundError(
            f"{label}: order {order} exceeds the enumeration bound {max_order}")
    keys = mulclose(ops, gens, max_order)
    if cond is not None:
        def ok(k):
            m = ops.unpack(k)
            return cond(m) & _symplectic(ops, m)
        bad = np.count_nonzero(~_sliced(ok, keys))
        if bad:
            raise InternalCheckError(
                f"{label}: {bad} enumerated elements fail its defining condition")
    return _check_order(FinGroup(label, ops, keys, gens), order)


def _build_sl2(q, max_order):
    ctx = gfield.field_ctx(q.bit_length() - 1)
    ops = mat_ops(ctx, 2, "symplectic")
    gens = [ops.pack_one(rows) for rows in _sl2_gens(ctx)]
    return _generated(f"sl2:{q}", ops, gens, q * (q * q - 1), max_order)


def _transvection(ops, entries):
    d = ops.dim
    m = np.zeros((d, d), dtype=np.uint8)
    for i in range(d):
        m[i, i] = ops.ctx.one
    for (i, j), c in entries.items():
        m[i, j] = c
    return ops.pack_one(m)


def _sp4_gens(ops):
    ctx = ops.ctx
    one, g = ctx.one, ctx.gamma
    gens = [
        _transvection(ops, {(0, 1): one, (2, 3): one}),  # short simple root
        _transvection(ops, {(1, 0): one, (3, 2): one}),
        _transvection(ops, {(1, 2): one}),               # long simple root
        _transvection(ops, {(2, 1): one}),
    ]
    if ctx.q > 2:
        # torus conjugation sweeps the root subgroups over all of GF(q)
        gens.append(ops.pack_one([[g, 0, 0, 0], [0, one, 0, 0],
                                  [0, 0, one, 0], [0, 0, 0, ctx.inv(g)]]))
        gens.append(ops.pack_one([[one, 0, 0, 0], [0, g, 0, 0],
                                  [0, 0, ctx.inv(g), 0], [0, 0, 0, one]]))
    return gens


def _sp4_pair(ops):
    """Two generators of sp4:q, from those of `_sp4_gens`: g0 g1 g2 and g3
    (q = 2) or g3 g4.  Finite groups of Lie type are 2-generated
    (Steinberg, Canad. J. Math. 14, 1962); `_build_sp4` proves that this
    pair generates, and the class partition then costs two products per
    element."""
    g = _sp4_gens(ops)
    return [ops.mul(ops.mul(g[0], g[1]), g[2])[0],
            g[3] if len(g) == 4 else ops.mul(g[3], g[4])[0]]


def _points(ops, keys) -> list:
    """The point <t e1> of PG(3, q) of each key t: the first column of t,
    scaled so that its first nonzero coordinate is 1, as a tuple of codes."""
    ctx = ops.ctx
    out = []
    for col in ops.unpack(keys)[:, :, 0].tolist():
        c = ctx.inv(next(x for x in col if x))
        out.append(tuple(ctx.mul(c, x) for x in col))
    return out


def _build_sp4(q, max_order):
    """sp4:q as the disjoint union of the left cosets t P of the stabilizer
    P = parabolic-p:q of <e1>, one per point <t e1> of PG(3, q).

    A breadth-first search of <e1> under the pair of `_sp4_pair` gives a
    transversal, t_w = g t_v for the tree edge that finds w = g v, and the
    coset of w is g times the coset of v: one left product by a pair
    element per coset.  By Schreier's lemma the elements t_w^-1 g t_v, over
    every point v and pair element g, generate the stabilizer of <e1> in
    the group H the pair generates (Seress, Permutation Group Algorithms,
    2003, sec. 4.1).  Each must lie in P, and they are closed one at a time
    until their closure is P; then |orbit| |P| must be the closed-form
    order and the cosets disjoint, so sp4:q = union of t P lies in H.  The
    class partition relies on that, since it conjugates by the pair."""
    label = f"sp4:{q}"
    order = q**4 * (q**2 - 1) * (q**4 - 1)
    if order > max_order:
        raise ResourceBoundError(
            f"{label}: order {order} exceeds the enumeration bound {max_order}")
    P = build_group(f"parabolic-p:{q}", max_order=max_order)
    ops = P.ops
    pair = _sp4_pair(ops)
    reps = [ops.identity]                # t_v of each point v, in BFS order
    tree = []                            # (v, pair index) that found point 1, 2, ...
    seen = {_points(ops, reps)[0]: 0}
    ends, images = [], []                # w and g t_v of every edge v -> w = g v
    frontier = [0]
    while frontier:
        layer = []
        for i, g in enumerate(pair):
            imgs = ops.mul(g, np.array([reps[v] for v in frontier], dtype=ops.dtype))
            for v, t, pt in zip(frontier, imgs, _points(ops, imgs)):
                if pt not in seen:
                    seen[pt] = len(reps)
                    reps.append(t)
                    tree.append((v, i))
                    layer.append(seen[pt])
                ends.append(seen[pt])
                images.append(t)
        frontier = layer
    reps = np.array(reps, dtype=ops.dtype)
    schreier = ops.mul(ops.inv(reps[ends]), np.array(images, dtype=ops.dtype))
    if not P.contains(schreier).all():
        raise InternalCheckError(f"{label}: a Schreier generator is not in {P.label}")
    stab = _greedy_generators(ops, schreier, P.order)[1]
    if reps.size * stab.size != order:
        raise InternalCheckError(
            f"{label}: enumerated {reps.size * stab.size} elements, closed form {order}")
    n = P.order
    keys = np.empty(reps.size * n, dtype=ops.dtype)     # coset v at keys[v n:(v + 1) n]
    keys[:n] = P.keys
    for w, (v, i) in enumerate(tree, 1):
        keys[w * n:(w + 1) * n] = ops.mul(pair[i], keys[v * n:(v + 1) * n])
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        raise InternalCheckError(f"{label}: two cosets of {P.label} overlap")
    return _check_order(FinGroup(label, ops, keys, pair), order)


def _build_wreath(q, max_order):
    ctx = gfield.field_ctx(q.bit_length() - 1)
    ops = mat_ops(ctx, 4, "symplectic")
    one = ctx.one
    gens = []
    for rows in _sl2_gens(ctx):
        # act on the hyperbolic plane <e1, e4>
        (a, b), (c, d) = rows
        gens.append(ops.pack_one([[a, 0, 0, b], [0, one, 0, 0],
                                  [0, 0, one, 0], [c, 0, 0, d]]))
    gens.append(_plane_swap(ops))
    return _generated(f"wreath-sp2:{q}", ops, gens, 2 * q**2 * (q**2 - 1) ** 2,
                      max_order)


def _build_ext_abstract(q, max_order):
    ops = _ext_ops_cached(q)
    gens = [ops.pack_one(rows, 0) for rows in _sl2_gens(ops.ctx)]
    gens.append(ops.pack_one([[ops.ctx.one, 0], [0, ops.ctx.one]], 1))
    return _generated(f"ext-sp2q2:{q}", ops, gens, 2 * q**2 * (q**4 - 1), max_order)


def _build_ext_embedded(q, max_order):
    """Concrete image of ext-sp2q2:q inside sp4:q.  With g the gamma of
    GF(q^2), t = g + g^q and n = g^(q+1) in GF(q), so x^2 + t x + n is g's
    minimal polynomial.  In the basis (1,0), (g,0), (0,1), (0,g) of GF(q)^4,
    z = u + v g acts by [[u, n v], [v, u + t v]], the Frobenius by
    [[1, t], [0, 1]] on each half, and Tr(x1 y2 + x2 y1) has the Gram
    matrix [[0,0,0,t],[0,0,t,t^2],[0,t,0,0],[t,t^2,0,0]].  T = diag([[1, t],
    [0, 1]], 1/t, 1/t) takes it to J, and the generators are T^-1 M T,
    T^-1 = diag([[1, t], [0, 1]], t, t)."""
    label = f"ext-sp2q2-embedded:{q}"
    e = q.bit_length() - 1
    ctx, ctx2 = gfield.field_ctx(e), gfield.field_ctx(2 * e)
    g = ctx2.gamma

    def down(w):   # a nonzero code of GF(q^2) that lies in GF(q), as a GF(q) code
        if not w or (w - 1) % (q + 1):
            raise InternalCheckError(
                f"{label}: GF({q * q}) code {w} is not a unit of GF({q})")
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

    ops = mat_ops(ctx, 4, "symplectic")
    frob = [[one, t], [0, one]]
    t_key = ops.pack_one(diag(frob, [[ti, 0], [0, ti]]))
    t_inv = ops.pack_one(diag(frob, [[t, 0], [0, t]]))
    gen_rows = [image(rows) for rows in _sl2_gens(ctx2)] + [diag(frob, frob)]
    gens = [ops.mul(ops.mul(t_inv, ops.pack_one(r)), t_key)[0] for r in gen_rows]
    if not _symplectic(ops, ops.unpack(gens)).all():
        raise InternalCheckError(f"{label}: a generator is not symplectic")
    return _generated(label, ops, gens, 2 * q**2 * (q**4 - 1), max_order)


def _build_parabolic(q, max_order, kind):
    """The stabilizer of <e1> ("p") or of <e1, e2> ("q"): the generators of
    sp4:q without the one root element that moves that flag; its members
    have zeros below the flag."""
    ops = mat_ops(gfield.field_ctx(q.bit_length() - 1), 4, "symplectic")
    gens = _sp4_gens(ops)
    del gens[1 if kind == "p" else 3]
    cells = ([(1, 0), (2, 0), (3, 0)] if kind == "p"
             else [(2, 0), (3, 0), (2, 1), (3, 1)])
    return _generated(f"parabolic-{kind}:{q}", ops, gens,
                      q**3 * (q**2 + q) * (q - 1) ** 2, max_order,
                      lambda m: ~np.any([m[:, i, j] for i, j in cells], axis=0))


def _plane_swap(ops):
    """The swap of the hyperbolic planes <e1, e4> and <e2, e3>."""
    one = ops.ctx.one
    return ops.pack_one([[0, one, 0, 0], [one, 0, 0, 0],
                         [0, 0, 0, one], [0, 0, one, 0]])


def _build_so4(q, max_order, sign):
    """O(Q) for Q(x) = x1 x4 + x2 x3, plus x2^2 + a x3^2 for sign "-", where
    a is the first power of gamma of absolute trace 1; both polarize to J.
    Generated by the reflections x -> x + (x^T J v / Q(v)) v for the
    nonsingular v of a fixed list, plus the plane swap for so4+:2, where
    reflections give 36 of the 72 elements (Taylor, The Geometry of the
    Classical Groups, ch. 11).  Members keep Q(M e_j) = Q(e_j), its term
    x1 x4 + x2 x3 read by `MatOps.pair_form` and x2^2 + a x3^2 by a table."""
    ctx = gfield.field_ctx(q.bit_length() - 1)
    ops = mat_ops(ctx, 4, "symplectic")
    mul, add = ctx.lut_mul, ctx.lut_add
    a = next(c for c in range(1, ctx.q) if ctx.trace_bit(c))
    squares = add[mul.diagonal()[:, None], mul[a, mul.diagonal()]]  # [x2, x3] -> x2^2 + a x3^2

    def Q(x):   # on four codes, or four code arrays
        s = ops.pair_form(*x)
        return s if sign == "+" else add[s, squares[x[1], x[2]]]

    o, g = ctx.one, ctx.gamma
    vecs = [(o, 0, 0, o), (o, 0, 0, g), (0, o, 0, 0), (0, o, g, 0), (0, g, o, 0),
            (o, o, 0, o), (o, o, o, 0)]
    gens = []
    for v in dict.fromkeys(v for v in vecs if Q(v)):   # gamma = 1 when q = 2
        c = ctx.inv(int(Q(v)))
        gens.append(ops.pack_one(
            [[ctx.add(o if i == j else 0, ctx.mul(c, ctx.mul(v[i], v[3 - j])))
              for j in range(4)] for i in range(4)]))
    if q == 2 and sign == "+":
        gens.append(_plane_swap(ops))
    order = 2 * q**2 * (q**2 - 1) ** 2 if sign == "+" else 2 * q**2 * (q**4 - 1)
    qe = Q(np.eye(4, dtype=np.uint8) * o)        # Q(e_j) for each column j
    return _generated(f"so4{sign}:{q}", ops, gens, order, max_order,
                      lambda m: (Q(m.transpose(1, 0, 2)) == qe).all(axis=1))


def _build_sz(q, max_order):
    e = q.bit_length() - 1
    n = (e - 1) // 2
    theta = 1 << (n + 1)  # the automorphism x -> x^theta with theta^2 = 2q
    ctx = gfield.field_ctx(e)
    ops = mat_ops(ctx, 4, "symplectic")
    one = ctx.one

    def smat(a, b):
        ath = ctx.pow(a, theta) if a else 0
        f = 0
        if a:
            f = ctx.pow(a, theta + 2)
        f = ctx.add(f, ctx.mul(a, b))
        if b:
            f = ctx.add(f, ctx.pow(b, theta))
        r42 = ctx.add(ctx.mul(ath, a) if a else 0, b)
        return ops.pack_one([[one, 0, 0, 0],
                             [a, one, 0, 0],
                             [b, ath, one, 0],
                             [f, r42, a, one]])

    gens = [smat(one, 0), smat(0, one)]
    if q > 2:
        lam = ctx.gamma
        d1 = ctx.pow(lam, 1 + (1 << n))
        d2 = ctx.pow(lam, 1 << n)
        gens.append(ops.pack_one([[d1, 0, 0, 0], [0, d2, 0, 0],
                                  [0, 0, ctx.inv(d2), 0],
                                  [0, 0, 0, ctx.inv(d1)]]))
    gens.append(ops.pack_one([[0, 0, 0, one], [0, 0, one, 0],
                              [0, one, 0, 0], [one, 0, 0, 0]]))
    return _generated(f"sz:{q}", ops, gens, q**2 * (q**2 + 1) * (q - 1), max_order)


def _build_sp4_sub(q, q0, max_order):
    """sp4:q0 inside sp4:q: the generators of sp4:q0, entries mapped by
    subfield_embed; its members have every entry in GF(q0)."""
    ops = mat_ops(gfield.field_ctx(q.bit_length() - 1), 4, "symplectic")
    small = mat_ops(gfield.field_ctx(q0.bit_length() - 1), 4, "symplectic")
    lut = np.array([gfield.subfield_embed(small.ctx, ops.ctx, a) for a in range(q0)],
                   dtype=np.uint8)
    gens = ops.pack(lut[small.unpack(_sp4_gens(small))])
    return _generated(f"sp4-sub:{q}:{q0}", ops, gens,
                      q0**4 * (q0**2 - 1) * (q0**4 - 1), max_order,
                      lambda m: np.isin(m, lut).all(axis=(1, 2)))


def _build_trivial(max_order):
    ops = mat_ops(gfield.field_ctx(1), 2, "symplectic")    # the ops of sl2:2
    return FinGroup("trivial", ops, np.array([ops.identity], dtype=ops.dtype), [])


def perm_group(perms, label: str, n: int | None = None) -> FinGroup:
    """Group generated by permutations (tuples of images), as 0/1 matrices."""
    n = n or len(perms[0])
    ops = mat_ops(gfield.field_ctx(1), n, "transpose")
    gens = []
    for p in perms:
        m = np.zeros((n, n), dtype=np.uint8)
        for i, pi in enumerate(p):
            m[pi, i] = 1
        gens.append(ops.pack_one(m))
    keys = mulclose(ops, gens, MAX_ORDER_DEFAULT)
    return FinGroup(label, ops, keys, gens)


# -- the group-spec mini-language -------------------------------------------

# name -> (arity, builder); a builder takes the validated int arguments and
# max_order, and parse_group_spec is the only place that checks them
_SPECS = {
    "sl2": (1, _build_sl2),
    "sp4": (1, _build_sp4),
    "wreath-sp2": (1, _build_wreath),
    "ext-sp2q2": (1, _build_ext_abstract),
    "parabolic-p": (1, lambda q, m: _build_parabolic(q, m, "p")),
    "parabolic-q": (1, lambda q, m: _build_parabolic(q, m, "q")),
    "sz": (1, _build_sz),
    "sp4-sub": (2, _build_sp4_sub),
    "so4+": (1, lambda q, m: _build_so4(q, m, "+")),
    "so4-": (1, lambda q, m: _build_so4(q, m, "-")),
    "s6": (0, lambda m: build_group("sp4:2", max_order=m)),
    "trivial": (0, _build_trivial),
    "ext-sp2q2-embedded": (1, _build_ext_embedded),
}


def parse_group_spec(text: str) -> tuple:
    """Parse `name[:arg[:arg]]` into (name, args); errors carry a position."""
    parts = text.split(":")
    name = parts[0]
    if name not in _SPECS:
        raise GroupSpecError(f"unknown group name {name!r}", text, 0)
    args, starts = [], []
    pos = len(name) + 1
    for part in parts[1:]:
        if not part.isdigit():
            raise GroupSpecError(f"expected an integer, got {part!r}", text, pos)
        args.append(int(part))
        starts.append(pos)
        pos += len(part) + 1
    arity = _SPECS[name][0]
    if len(args) != arity:
        raise GroupSpecError(
            f"{name} takes {arity} argument(s), got {len(args)}", text, 0)
    # validity conditions that do not need any enumeration
    for q, at in zip(args, starts):
        _even_prime_power(q, text, at)
    if name == "sz" and (args[0].bit_length() - 1) % 2 == 0:
        raise GroupSpecError(f"sz:{args[0]} needs odd field degree", text,
                             len(name) + 1)
    if name == "sp4-sub":
        q, q0 = args
        e, e0 = q.bit_length() - 1, q0.bit_length() - 1
        if e % e0 or e == e0:
            raise GroupSpecError(f"sp4-sub:{q}:{q0}: invalid subfield", text, 0)
    return name, tuple(args)


@lru_cache(maxsize=None)
def _build_cached(name: str, args: tuple, max_order: int) -> FinGroup:
    return _SPECS[name][1](*args, max_order)


def build_group(spec, *, max_order: int = MAX_ORDER_DEFAULT) -> FinGroup:
    """Build (and cache) the group named by a group-spec string, or by the
    (name, args) pair that parse_group_spec made of one."""
    name, args = parse_group_spec(spec) if isinstance(spec, str) else spec
    return _build_cached(name, args, max_order)


def maximal_subgroups_sp4(q: int, *, max_order: int = MAX_ORDER_DEFAULT) -> list:
    """(subgroup, label) for one concrete subgroup of sp4:q per applicable
    maximal-subgroup row; at q = 2 (sp4:2 = S6) A6 comes first."""
    e = _even_prime_power(q, str(q), 0)
    specs = [f"parabolic-p:{q}", f"parabolic-q:{q}", f"wreath-sp2:{q}",
             f"ext-sp2q2-embedded:{q}"]
    specs += [f"sp4-sub:{q}:{1 << (e // r)}" for r in _prime_factors(e)]
    specs += [f"so4+:{q}", f"so4-:{q}"] + ([f"sz:{q}"] if e > 1 and e % 2 else [])
    out = []
    if q == 2:
        out.append((squares_subgroup(build_group("sp4:2", max_order=max_order),
                                     "a6"), "a6"))
    return out + [(build_group(spec, max_order=max_order),
                   spec.replace("-embedded", "")) for spec in specs]
