"""Barycentric chains over a base simplex and the induced algebra diagram.

The one combinatorial simplex type is the AugChain: a weakly increasing
run of vertices i_0 <= ... <= i_k, all members of the first subset,
followed by a nested run of subsets of {0..n} with at least two elements
each.  These augmented chains interpolate between the subdivided simplex
and the simplex itself (no subset suffix); a chain of the subdivided simplex
has at most one distinct vertex, for a singleton subset.  Faces drop an
entry, degeneracies double one.

Chains are validated where they enter: the public constructor and the
enumeration.  face and degeneracy check their index by every nerve's one
rule (``nerve._index``) and build their results unchecked (``_trusted``):
dropping or doubling an entry of a valid chain keeps the vertices weakly
increasing, the subsets nested (nesting is transitive and allows equal
entries) and the vertices inside the first subset.

On the algebra side, a subset S with top vertex m picks out the module
E_S = (+)_{v in S} E_{v m} over A_m; A_S is its compact operators.  For
S inside T, with top M, the hom f_ST: A_S -> A_T sends x to x (x) id along
the connecting edge E_{m M}, rewritten through the cells u_{v m M} and
included: Bratteli data, one isometry per pair of blocks.  Only the prefix
homs f_ab, [0..a] to [0..b], are built (``_isometries`` for a < b, the
identity for a = b).  Summand v of S is summand v of [0..m] and lands in
summand v of E_T, so every other f_ST is the same bits cut from the prefix
hom of its tops, rows on T's summands and columns on S's (``_place``), its
data on first read: a reader of multiplicities alone (K0) cuts none.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .algebra import FdCstarAlgebra, StarHom, _bratteli_hom, _composite_residual, identity_hom
from .errors import DimensionTooLarge, FunctorialityViolated, IndexOutOfRange, NotNested, ShapeViolation
from .linalg import EPS
from .modules import HilbertModule, direct_sum_modules
from .nerve import NCorrSimplex, _index

__all__ = [
    "AugChain",
    "face",
    "degeneracy",
    "enumerate_csd",
    "SdVertexData",
    "module_E_S",
    "SdFunctor",
    "subdivision_functor",
]

_MAX_N = 4
# Bound on the bytes of all dense connecting homs of one subdivision, the views
# a reader would build on first read, checked from the vertex algebras before
# any hom is built: the tests' largest takes 157 MB, blockscale's n = 3 144 MiB.
MAX_HOM_BYTES = 512 * 2**20


def _vertices(seq) -> tuple:
    """Vertex labels by nerve's rule (``operator.index``: numpy integers
    pass, 1.5 and "1" do not), nonnegative; ShapeViolation otherwise."""
    try:
        out = tuple(map(operator.index, seq))
    except TypeError:
        raise ShapeViolation(f"vertices must be integers, got {seq!r}") from None
    if any(v < 0 for v in out):
        raise ShapeViolation("vertices must be nonnegative")
    return out


def _check_subset(s) -> tuple:
    t = _vertices(s)
    if not t:
        raise ShapeViolation("subsets must be nonempty")
    if any(b <= a for a, b in zip(t, t[1:])):
        raise ShapeViolation(f"subset {t} must be strictly increasing")
    return t


@dataclass(frozen=True)
class AugChain:
    """A vertex run followed by a nested subset run.

    Vertices are weakly increasing and contained in the first subset; the
    subsets have at least two elements each.  Either run may be empty, not
    both.  Chains are equal when both runs are, and hash as the pair of runs.
    """

    vertices: tuple
    subsets: tuple

    def __post_init__(self):
        vs = _vertices(self.vertices)
        ss = tuple(_check_subset(s) for s in self.subsets)
        if not vs and not ss:
            raise ShapeViolation("a chain needs at least one entry")
        if any(b < a for a, b in zip(vs, vs[1:])):
            raise ShapeViolation(f"vertices {vs} must be weakly increasing")
        for s in ss:
            if len(s) < 2:
                raise ShapeViolation(f"subset entries need at least two elements, got {s}")
        for a, b in zip(ss, ss[1:]):
            if not set(a) <= set(b):
                raise NotNested(f"{a} is not contained in {b}")
        if vs and ss and not set(vs) <= set(ss[0]):
            raise ShapeViolation(f"vertices {vs} must lie in the first subset {ss[0]}")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "subsets", ss)

    @classmethod
    def _trusted(cls, vs, ss):
        """Unchecked; only for slices or monotone relabellings of a valid chain."""
        out = cls.__new__(cls)
        object.__setattr__(out, "vertices", vs)
        object.__setattr__(out, "subsets", ss)
        return out

    @property
    def dim(self) -> int:
        return len(self.vertices) + len(self.subsets) - 1


def _drop(t: tuple, i: int) -> tuple:
    return t[:i] + t[i + 1 :]


def face(chain, i: int):
    """Drop entry i.  Built unchecked: the vertices stay weakly increasing,
    the subsets nested and the vertices inside the first subset."""
    vs, ss = chain.vertices, chain.subsets
    nv, dim = len(vs), len(vs) + len(ss) - 1
    if dim == 0:
        raise ShapeViolation("a point has no faces")
    i = _index("face", i, dim)
    if i < nv:
        return AugChain._trusted(vs[:i] + vs[i + 1 :], ss)
    i -= nv
    return AugChain._trusted(vs, ss[:i] + ss[i + 1 :])


def degeneracy(chain, i: int):
    """Double entry i.  Built unchecked like ``face``: ``<=`` allows equal
    vertices and nesting allows equal subsets."""
    vs, ss = chain.vertices, chain.subsets
    nv = len(vs)
    i = _index("degeneracy", i, nv + len(ss) - 1)
    if i < nv:
        return AugChain._trusted(vs[: i + 1] + vs[i:], ss)
    i -= nv
    return AugChain._trusted(vs, ss[: i + 1] + ss[i:])


def _nonempty_subsets(n):
    """The vertex sets of the subdivided n-simplex; n is capped at _MAX_N."""
    if n > _MAX_N:
        raise DimensionTooLarge(f"n = {n} exceeds the supported bound {_MAX_N}")
    if n < 0:
        raise ShapeViolation("n must be nonnegative")
    return [tuple(i for i in range(n + 1) if mask >> i & 1) for mask in range(1, 1 << (n + 1))]


def enumerate_csd(n: int):
    """Nondegenerate augmented chains, keyed by dimension."""
    big = [s for s in _nonempty_subsets(n) if len(s) >= 2]
    suffixes = [()]
    stack = [(s,) for s in big]
    while stack:
        c = stack.pop()
        suffixes.append(c)
        for t in big:
            if len(t) > len(c[-1]) and set(c[-1]) < set(t):
                stack.append(c + (t,))
    by_dim: dict = {}
    for suf in suffixes:
        pool = suf[0] if suf else tuple(range(n + 1))
        for r in range(0 if suf else 1, len(pool) + 1):
            for vs in combinations(pool, r):
                ch = AugChain(vs, suf)
                by_dim.setdefault(ch.dim, []).append(ch)
    for d in by_dim:
        by_dim[d].sort(key=lambda ch: (ch.vertices, ch.subsets))
    return by_dim


@dataclass(frozen=True)
class SdVertexData:
    """E_S with its bookkeeping: summand order and row offsets per block."""

    subset: tuple
    module: HilbertModule
    algebra: FdCstarAlgebra
    starts: tuple

    @property
    def top(self) -> int:
        return self.subset[-1]


def _fitting_subset(subset, n: int) -> tuple:
    s = _check_subset(subset)
    if s[-1] > n:
        raise IndexOutOfRange(f"subset {s} does not fit in [0, {n}]")
    return s


def module_E_S(sigma: NCorrSimplex, subset) -> SdVertexData:
    """E_S = (+)_{v in S} E_{v, max S} as a module over the top algebra."""
    s = _fitting_subset(subset, sigma.n)
    module, starts = direct_sum_modules([sigma.edge(v, s[-1]).module for v in s])
    return SdVertexData(s, module, module.compacts, starts)


def _isometries(sigma, data_s, data_t):
    """The Bratteli data of f_ST: W[l][j] of shape (dim_T, dim_S, r_jl),
    keyed by the blocks of A_T and A_S; the functor builds only the prefix
    homs with it.

    W[:, p, rho] is the E_T coordinate vector of (row p of E_S) tensored
    with the rho-th range vector of the connecting edge E_mM, rewritten
    through the structure cell u_vmM of its summand v, so each summand's
    block depends on v, m and M alone.
    """
    m, top = data_s.subset[-1], data_t.subset[-1]
    rows = [data_t.subset.index(v) for v in data_s.subset]  # summand v's place in E_T
    r = sigma.tp(m, m, top).r  # ranks of E_mM's left action, for every summand
    out = []
    for l in data_t.module.kept:
        per_j = {}
        for jp, j in enumerate(data_s.module.kept):
            if r[j][l] == 0:
                continue
            w = np.zeros((data_t.module.mult[l], data_s.module.mult[j], r[j][l]), dtype=complex)
            for si, v in enumerate(data_s.subset):
                mv = sigma.edge(v, m).module.mult[j]
                u_l = sigma.cell(v, m, top).blocks[l]
                o_t, o_s = data_t.starts[rows[si]][l], data_s.starts[si][j]
                # the tensor rows (j, a, rho) of summand v, a < mv
                src0 = sigma.tp(v, m, top).row_start(l, j, 0)
                block = u_l[:, src0 : src0 + mv * r[j][l]]
                w[o_t : o_t + u_l.shape[0], o_s : o_s + mv] = block.reshape(u_l.shape[0], mv, r[j][l])
            per_j[jp] = w
        out.append(per_j)
    return out


def _place(data: SdVertexData, prefix: SdVertexData) -> tuple:
    """Where E_S lies in E_P, P = [0..max S]: A_S, and per kept block of E_S
    its place among E_P's and the rows of E_P's block on S's summands."""
    ends = prefix.starts[1:] + (prefix.module.mult,)
    kept = data.module.kept
    rows = [np.concatenate([np.arange(prefix.starts[v][k], ends[v][k]) for v in data.subset]) for k in kept]
    return data.algebra, np.array([prefix.module.kept.index(k) for k in kept]), rows


def _cut(f: StarHom, place_s, place_t) -> StarHom:
    """f_ST cut from f, the prefix hom of its tops: rows on T's summands and
    columns on S's of each kept block, taken on first read."""
    (src, js, cols), (dst, ls, rows) = place_s, place_t

    def build():
        ws = f._ws
        return [
            {jp: ws[l][j].take(r, 0).take(cols[jp], 1) for jp, j in enumerate(js) if j in ws[l]}
            for l, r in zip(ls, rows)
        ]

    return StarHom(src, dst, None, f.mult_matrix[np.ix_(js, ls)], build)


@dataclass(frozen=True)
class SdFunctor:
    """The diagram S -> A_S, (S <= T) -> f_ST over one base simplex."""

    base: NCorrSimplex
    subsets: tuple
    data: dict
    homs: dict

    def algebra(self, s) -> FdCstarAlgebra:
        return self.data[_fitting_subset(s, self.base.n)].algebra

    def hom(self, s, t) -> StarHom:
        """f_ST; raises IndexOutOfRange or ShapeViolation for subsets that
        do not fit the base simplex, NotNested for subsets that are not
        nested."""
        s, t = _fitting_subset(s, self.base.n), _fitting_subset(t, self.base.n)
        if not set(s) <= set(t):
            raise NotNested(f"{s} is not contained in {t}")
        return self.homs[(s, t)]

    def restrict(self, face: NCorrSimplex, vertices) -> "SdFunctor":
        """The functor of ``face = apply_map(base, vertices)``, vertices
        strictly increasing: this functor's algebras and homs at the
        relabelled subsets, each vertex datum carrying the face's label.
        Each hom has the per-pair build's bits, as the face's own cut would,
        and one not read yet is still cut on first read.  It needs no check:
        a checked functor bounded every strictly nested triple, the face's."""
        vs = tuple(vertices)
        up = {s: tuple(vs[i] for i in s) for s in _nonempty_subsets(face.n)}
        data = {s: replace(self.data[t], subset=s) for s, t in up.items()}
        homs = {(s, t): self.homs[(up[s], up[t])] for s in up for t in up if set(s) <= set(t)}
        return SdFunctor(face, tuple(up), data, homs)


def subdivision_functor(sigma: NCorrSimplex, *, eps: float = EPS, check: bool = True) -> SdFunctor:
    """The subdivision's algebras and connecting homs, each non-prefix hom's
    data cut from its tops' prefix hom on first read (module docstring).

    A subdivision whose dense homs (16 dim A_S dim A_T bytes each), if all
    read, would exceed MAX_HOM_BYTES raises DimensionTooLarge before any hom
    is built.  With ``check`` on, each of the C(n+1, 3) prefix triples
    a < b < c is tested for f_bc . f_ab = f_ac on the prefix homs' data by
    ``algebra._composite_residual``, an upper bound on the largest entry of
    the dense difference from the r x r overlaps of the two sides'
    isometries, no dense matrix read or built; one not <= eps raises
    FunctorialityViolated with it.  That bounds every strictly nested
    S < T < U, tops m <= M <= N.  If m < M < N, the composite contracts over
    T's rows of E_T, the prefix's over E_[0..M]'s; f_mM puts S's columns in
    S's summands only, so the dropped rows add exact zeros and the dense
    difference is the prefix triple's compressed to U's rows and S's
    columns.  If two tops agree, one factor is an exact 0/1 inclusion and
    the composite's data is f_SU's.
    """
    subsets = tuple(_nonempty_subsets(sigma.n))
    data = {s: module_E_S(sigma, s) for s in subsets}
    pairs = [(s, t) for s in subsets for t in subsets if set(s) <= set(t)]
    nbytes = sum(16 * data[s].algebra.dim * data[t].algebra.dim for s, t in pairs)
    if nbytes > MAX_HOM_BYTES:
        raise DimensionTooLarge(
            f"the subdivision's connecting homs would take {nbytes / 2**20:.0f} MiB,"
            f" over the bound of {MAX_HOM_BYTES // 2**20} MiB"
        )
    top = [data[tuple(range(m + 1))] for m in range(sigma.n + 1)]  # the prefixes [0..m]
    pre = {(p.subset, p.subset): identity_hom(p.algebra) for p in top}
    for p, q in combinations(top, 2):
        pre[p.subset, q.subset] = _bratteli_hom(p.algebra, q.algebra, _isometries(sigma, p, q))
    place = {s: _place(data[s], top[s[-1]]) for s in subsets}
    homs = {
        (s, t): pre.get((s, t)) or _cut(pre[top[s[-1]].subset, top[t[-1]].subset], place[s], place[t])
        for s, t in pairs
    }
    for p, q, r in combinations((d.subset for d in top), 3) if check else ():
        resid = _composite_residual(homs[q, r], homs[p, q], homs[p, r])
        if not resid <= eps:
            raise FunctorialityViolated(p, q, r, resid)
    return SdFunctor(sigma, subsets, data, homs)
