"""Barycentric chains over a base simplex and the induced algebra diagram.

The one combinatorial simplex type is the AugChain: a weakly increasing
run of vertices i_0 <= ... <= i_k, all members of the first subset,
followed by a nested run of subsets of {0..n} with at least two elements
each.  These augmented chains interpolate between the subdivided simplex
and the simplex itself (no subset suffix); a chain of the subdivided
simplex is one with at most one distinct vertex, which stands for a
singleton subset.  Faces drop an entry, degeneracies double one.

Chains are validated where they enter: the public constructor and the
enumeration.  face and degeneracy check their index by every nerve's one
rule (``nerve._index``) and build their results unchecked (``_trusted``):
dropping or doubling an entry of a valid chain keeps the vertices weakly
increasing, the subsets nested (nesting is transitive and allows equal
entries) and the vertices inside the first subset.

On the algebra side, a subset S with top vertex m picks out the module
E_S = (+)_{v in S} E_{v m} over A_m; A_S is its compact operators.  For
S inside T, with top M, the hom f_ST: A_S -> A_T sends x to x (x) id along
the connecting edge E_{m M}, rewritten through the structure cells u_{v m M}
and included.  When the tops agree, E_{m m} is the identity and the cells
are unitors, so f_ST conjugates by the summand inclusion.  Either way f_ST
is given by Bratteli data, one isometry per pair of blocks, and built from
it by ``algebra._bratteli_hom``, which keeps the data on the hom; its dense
matrix is a view built on first read.  subdivision_functor builds all of
these homs and checks f_TU . f_ST = f_SU for every strictly nested triple
on that data: the composite's isometries are products of the factors', and
each block of the two sides is compared through the r x r overlap of their
isometries, which bounds the block's largest dense entry; no dense hom
matrix is built or multiplied and no Gram matrix built.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .algebra import FdCstarAlgebra, StarHom, _bratteli_hom, _composite_residual, identity_hom
from .errors import (
    DimensionTooLarge,
    FunctorialityViolated,
    IndexOutOfRange,
    NotNested,
    ShapeViolation,
)
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
# Bound on the bytes of all dense connecting homs of one subdivision, the
# views a reader would build on first read, checked from the vertex algebras
# before any hom is built.  The largest subdivision of the tests takes
# 157 MB, blockscale's n = 3 chain 144 MiB.
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

    def entry(self, i: int):
        nv = len(self.vertices)
        if i < nv:
            return self.vertices[i]
        return self.subsets[i - nv]


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


def _check_nested(s: tuple, t: tuple):
    if not set(s) <= set(t):
        raise NotNested(f"{s} is not contained in {t}")


def module_E_S(sigma: NCorrSimplex, subset) -> SdVertexData:
    """E_S = (+)_{v in S} E_{v, max S} as a module over the top algebra."""
    s = _fitting_subset(subset, sigma.n)
    m = s[-1]
    mods = [sigma.edge(v, m).module for v in s]
    module, starts = direct_sum_modules(mods)
    return SdVertexData(s, module, module.compacts, starts)


def _isometries(sigma, data_s, data_t):
    """The Bratteli data of f_ST: W[l][j] of shape (dim_T, dim_S, r_jl),
    keyed by the blocks of A_T and A_S.

    W[:, p, rho] is the E_T coordinate vector of (row p of E_S) tensored
    with the rho-th range vector of the connecting edge E_mM, rewritten
    through the structure cell u_vmM of its summand v.  When the tops agree,
    E_mm is the identity and u_vmm a unitor, both exact 0/1, so W is the
    summand inclusion.
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
                w[o_t : o_t + u_l.shape[0], o_s : o_s + mv] = u_l[
                    :, src0 : src0 + mv * r[j][l]
                ].reshape(u_l.shape[0], mv, r[j][l])
            per_j[jp] = w
        out.append(per_j)
    return out


def _connecting(sigma, data_s, data_t) -> StarHom:
    """f_ST, certified by construction: x -> x (x) id along a valid edge,
    rewritten through unitary cells and included."""
    s, t = data_s.subset, data_t.subset
    _check_nested(s, t)
    if s == t:
        return identity_hom(data_s.algebra)
    return _bratteli_hom(data_s.algebra, data_t.algebra, _isometries(sigma, data_s, data_t))


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
        _check_nested(s, t)
        return self.homs[(s, t)]

    def restrict(self, face: NCorrSimplex, vertices) -> "SdFunctor":
        """The functor of ``face = apply_map(base, vertices)``, vertices
        strictly increasing: this functor's algebras and homs at the
        relabelled subsets, each vertex datum carrying the face's label.

        The bits are those of a fresh build: module_E_S and _isometries
        read only edge, cell and tp over T, and apply_map is a pure lookup.
        It needs no check of its own: a checked functor (or one restricted
        from it) covered every strictly nested triple, the images of the
        face's included, and these are the same homs.
        """
        vs = tuple(vertices)
        up = {s: tuple(vs[i] for i in s) for s in _nonempty_subsets(face.n)}
        data = {s: replace(self.data[t], subset=s) for s, t in up.items()}
        homs = {(s, t): self.homs[(up[s], up[t])] for s in up for t in up if set(s) <= set(t)}
        return SdFunctor(face, tuple(up), data, homs)


def subdivision_functor(sigma: NCorrSimplex, *, eps: float = EPS, check: bool = True) -> SdFunctor:
    """All vertex algebras and connecting homs of the subdivided simplex.

    A subdivision whose dense homs (16 dim A_S dim A_T bytes each), if all
    read, would exceed MAX_HOM_BYTES raises DimensionTooLarge before any hom
    is built.
    With ``check`` on, every strictly nested triple S < T < U is tested for
    f_TU . f_ST = f_SU on the Bratteli data each hom keeps: the residual is
    a bound, never below it, on the largest absolute entry of the dense
    difference, computed block by block from the r x r overlap of the two
    sides' isometries (``algebra._composite_residual``), exact where one
    side lacks the block; one that is not <= eps raises
    FunctorialityViolated with it.  No dense matrix is read or built: each
    is a view built on first read from the data it is checked on.  The
    other nested triples need no test: f_SS is the exact identity, so with
    S = T or T = U the composite is f_SU itself.
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
    homs = {(s, t): _connecting(sigma, data[s], data[t]) for s, t in pairs}
    for s, t in pairs if check else ():
        for u in subsets:
            if set(s) < set(t) < set(u):
                resid = _composite_residual(homs[(t, u)], homs[(s, t)], homs[(s, u)])
                if not resid <= eps:
                    raise FunctorialityViolated(s, t, u, resid)
    return SdFunctor(sigma, subsets, data, homs)
