"""Finite-dimensional C*-algebras and *-homomorphisms.

An algebra is a direct sum of full matrix blocks, held in its canonical
matrix-unit basis (blocks in order, entries row-major).  A *-homomorphism is
stored as the dense matrix of the underlying linear map in those bases,
together with its integer block-multiplicity matrix, read off as traces:
the image of a minimal projection e_00 of a source block is a projection in
each target block, and its trace there is the multiplicity.

``make_star_hom`` validates a matrix from outside and raises on invalid
data; ``StarHom`` itself is the certified constructor that canonical
constructions from valid inputs (identities, composites, corner inclusions)
build through without re-checking.

A *-hom is fixed by Bratteli data: its multiplicities and, per target
block, one isometry.  ``hom_normal_form`` extracts that data from a matrix
and ``_conjugation_matrix`` builds the matrix from it, one product per
pair of blocks; every constructor that starts from such data builds its
matrix there, through ``_bratteli_hom``, which keeps the data on the hom.
``_compose_ws`` composes such data and ``_composite_residual`` compares a
composite with a third hom on it, block by block: each pair of blocks is
compared through the r x r overlap of its two isometries, and no Gram matrix
is built.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EndpointMismatch,
    InvalidAlgebra,
    NotMultiplicative,
    NotProjection,
    NotStarPreserving,
    ShapeMismatch,
)
from .linalg import EPS, frob, orthonormal_range

__all__ = [
    "FdCstarAlgebra",
    "AlgElement",
    "StarHom",
    "make_algebra",
    "make_star_hom",
    "identity_hom",
    "compose_homs",
    "is_full_hom",
    "corner_algebra",
    "CornerPresentation",
    "hom_normal_form",
]

class FdCstarAlgebra:
    """A direct sum of matrix blocks M_{n_1} (+) ... (+) M_{n_r}."""

    __slots__ = ("blocks", "label", "dim", "_offsets", "_diag", "_diag_starts", "_identity")

    def __init__(self, blocks, label: str = ""):
        blocks = tuple(int(b) for b in blocks)
        if len(blocks) == 0:
            raise InvalidAlgebra("an algebra needs at least one block")
        if any(b < 1 for b in blocks):
            raise InvalidAlgebra(f"block sizes must be >= 1, got {blocks}")
        self.blocks = blocks
        self.label = label
        self.dim = sum(b * b for b in blocks)
        offs, diag, starts, o = [], [], [], 0
        for b in blocks:
            offs.append(o)
            starts.append(len(diag))
            diag.extend(range(o, o + b * b, b + 1))
            o += b * b
        self._offsets = tuple(offs)
        # flat indices of the diagonal entries, and where each block's run
        # starts among them: a block trace is one gather and one reduceat
        self._diag = np.array(diag, dtype=np.intp)
        self._diag_starts = tuple(starts)
        self._identity = None  # modules.identity_corr(self), built on first use

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, FdCstarAlgebra) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"FdCstarAlgebra({list(self.blocks)}{tag})"

    def offset(self, i: int) -> int:
        return self._offsets[i]

    def block_rows(self, matrix, i: int) -> np.ndarray:
        """The rows of block i of a (dim x k) matrix, as an (n, n, k) view."""
        n, o = self.blocks[i], self._offsets[i]
        return matrix[o : o + n * n].reshape(n, n, matrix.shape[1])

    def zero(self) -> "AlgElement":
        return AlgElement(self, [np.zeros((b, b), dtype=complex) for b in self.blocks])

    def identity(self) -> "AlgElement":
        return AlgElement(self, [np.eye(b, dtype=complex) for b in self.blocks])

    def block_unit(self, i: int) -> "AlgElement":
        mats = [np.zeros((b, b), dtype=complex) for b in self.blocks]
        mats[i] = np.eye(self.blocks[i], dtype=complex)
        return AlgElement(self, mats)

    def matrix_unit(self, i: int, a: int, b: int) -> "AlgElement":
        mats = [np.zeros((n, n), dtype=complex) for n in self.blocks]
        mats[i][a, b] = 1.0
        return AlgElement(self, mats)

    def basis_triples(self):
        """Yield (flat_index, block, row, col) over the canonical basis."""
        p = 0
        for i, n in enumerate(self.blocks):
            for a in range(n):
                for c in range(n):
                    yield p, i, a, c
                    p += 1

    def from_vec(self, v) -> "AlgElement":
        v = np.asarray(v, dtype=complex).ravel()
        if v.size != self.dim:
            raise ShapeMismatch(f"expected coordinate vector of length {self.dim}, got {v.size}")
        mats = []
        for i, n in enumerate(self.blocks):
            o = self._offsets[i]
            mats.append(v[o : o + n * n].reshape(n, n).copy())
        return AlgElement(self, mats)

    def adjoint_perm(self) -> np.ndarray:
        """Permutation p with vec(x*) = conj(vec(x))[p]."""
        p = np.empty(self.dim, dtype=np.intp)
        for flat, i, a, c in self.basis_triples():
            n = self.blocks[i]
            p[flat] = self._offsets[i] + c * n + a
        return p


def make_algebra(blocks, label: str = "") -> FdCstarAlgebra:
    return FdCstarAlgebra(blocks, label)


class AlgElement:
    """An element of an FdCstarAlgebra, one matrix per block."""

    __slots__ = ("algebra", "mats")

    def __init__(self, algebra: FdCstarAlgebra, mats):
        if len(mats) != algebra.nblocks:
            raise ShapeMismatch("wrong number of blocks")
        for m, n in zip(mats, algebra.blocks):
            if m.shape != (n, n):
                raise ShapeMismatch(f"block of shape {m.shape}, expected ({n}, {n})")
        self.algebra = algebra
        self.mats = [np.asarray(m, dtype=complex) for m in mats]

    def to_vec(self) -> np.ndarray:
        return np.concatenate([m.ravel() for m in self.mats])

    def __add__(self, other):
        return AlgElement(self.algebra, [a + b for a, b in zip(self.mats, other.mats)])

    def __sub__(self, other):
        return AlgElement(self.algebra, [a - b for a, b in zip(self.mats, other.mats)])

    def __mul__(self, scalar):
        return AlgElement(self.algebra, [scalar * m for m in self.mats])

    __rmul__ = __mul__

    def __matmul__(self, other):
        return AlgElement(self.algebra, [a @ b for a, b in zip(self.mats, other.mats)])

    def adjoint(self) -> "AlgElement":
        return AlgElement(self.algebra, [m.conj().T for m in self.mats])

    def norm(self) -> float:
        return frob(self.to_vec())

    def is_close(self, other, eps: float = EPS) -> bool:
        return (self - other).norm() <= eps

    def __repr__(self):
        return f"AlgElement({self.algebra!r})"


@dataclass(frozen=True)
class StarHom:
    """A *-homomorphism between finite-dimensional C*-algebras.

    ``matrix`` is the (dst.dim x src.dim) matrix of the linear map in the
    canonical bases, stored C-ordered so that nothing computed from it depends
    on the caller's memory layout; it must already be a *-hom, so this is for
    canonical constructions from valid inputs, and ``make_star_hom`` is the
    one that checks.  Derived at construction:

    ``mult_matrix``, the (src.nblocks x dst.nblocks) integer matrix of block
    multiplicities: r_ij is the rounded real trace of phi(e^(i)_00) in dst
    block j, a projection of rank r_ij <= m_j (Bratteli's structure
    theorem); a larger |r_ij| cannot be cast and raises NotProjection;

    ``unital``, true iff sum_i r_ij n_i = m_j for every dst block j, i.e.
    phi(1) fills every dst block.

    ``_gamma`` keeps Gamma(phi) and its range isometries per eps (bicategory).

    ``_ws`` keeps the Bratteli data the matrix was built from, when it was
    built from such data (``_bratteli_hom``), and is None otherwise.
    """

    src: FdCstarAlgebra
    dst: FdCstarAlgebra
    matrix: np.ndarray
    mult_matrix: np.ndarray = field(init=False)
    unital: bool = field(init=False)
    _gamma: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _ws: list = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        src, dst = self.src, self.dst
        matrix = np.ascontiguousarray(self.matrix, dtype=complex).view()
        matrix.setflags(write=False)
        diag = matrix[dst._diag[:, None], src._offsets].real
        ranks = np.rint(np.add.reduceat(diag, dst._diag_starts, axis=0))
        if (np.abs(ranks) > np.array(dst.blocks)[:, None]).any():
            raise NotProjection("a trace of phi(e_00) is not a rank in its block")
        mult = ranks.T.astype(np.int64)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "mult_matrix", mult)
        object.__setattr__(self, "unital", bool((np.dot(src.blocks, mult) == dst.blocks).all()))

    def apply(self, x) -> AlgElement:
        if isinstance(x, AlgElement):
            if x.algebra != self.src:
                raise EndpointMismatch("element not in the source algebra")
            x = x.to_vec()
        return self.dst.from_vec(self.matrix @ np.asarray(x, dtype=complex).ravel())

    def __call__(self, x) -> AlgElement:
        return self.apply(x)

    def __repr__(self):
        return f"StarHom({self.src!r} -> {self.dst!r})"


def _star_residual(src, dst, matrix) -> float:
    """Frobenius norm of phi(x^*) - phi(x)^* over the basis."""
    ps, pd = src.adjoint_perm(), dst.adjoint_perm()
    return frob(matrix[:, ps] - np.conj(matrix[pd, :]))


def _sq_norms(d) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a stack (k, m, m)."""
    r = d.reshape(len(d), -1).view(np.float64)
    return np.einsum("ij,ij->i", r, r)


def _mult_residual(src, dst, matrix):
    """Worst residual of multiplicativity, and where it occurs.

    With v_a := phi(e_a0), w_b := phi(e_0b) and P := w_0 v_0 per source block,
      (1) phi(e_ab) = v_a w_b
      (2) w_b v_c = delta P   (delta: same block and b = c; zero across blocks)
      (3) v_a P = v_a
    hold iff phi(e_ab) phi(e_cd) = delta_bc phi(e_ad) on all basis pairs:
    (1)-(3) give v_a w_b v_c w_d = delta v_a P w_d = delta v_a w_d, and each
    of them is an instance of the pair identity.  So the check costs one
    matmul per source and target block, plus two over all generators, instead
    of one product per basis pair.  Each residual is a Frobenius norm over
    all target blocks.  Returns the worst residual and a description of the
    identity, source block and matrix units where it occurs.
    """
    first, v_cols, w_cols = [], [], []
    for i, n in enumerate(src.blocks):
        o = src.offset(i)
        first.append(len(v_cols))  # generator index of v_0 = w_0
        v_cols += range(o, o + n * n, n)  # basis index of e_a0
        w_cols += range(o, o + n)  # basis index of e_0b
    ngen = len(v_cols)
    owner = np.repeat(np.arange(src.nblocks), src.blocks)  # source block of each generator
    diag = np.arange(ngen)
    sq1, sq2, sq3 = np.zeros(src.dim), np.zeros(ngen * ngen), np.zeros(ngen)
    for j, m in enumerate(dst.blocks):
        imgs = matrix[dst.offset(j) : dst.offset(j) + m * m].T.reshape(src.dim, m, m)
        v, w = imgs[v_cols], imgs[w_cols]
        for i, n in enumerate(src.blocks):
            g, o = first[i], src.offset(i)
            vw = v[g : g + n].reshape(n * m, m) @ w[g : g + n].transpose(1, 0, 2).reshape(m, n * m)
            d1 = vw.reshape(n, m, n, m).transpose(0, 2, 1, 3)
            d1 = d1 - imgs[o : o + n * n].reshape(n, n, m, m)
            sq1[o : o + n * n] += _sq_norms(d1.reshape(n * n, m, m))
        wv = (w.reshape(ngen * m, m) @ v.transpose(1, 0, 2).reshape(m, ngen * m)).reshape(
            ngen, m, ngen, m
        )
        p = wv[first, :, first, :][owner]
        wv[diag, :, diag, :] -= p
        sq2 += _sq_norms(wv.transpose(0, 2, 1, 3).reshape(ngen * ngen, m, m))
        sq3 += _sq_norms(v @ p - v)
    k1, k2, k3 = int(sq1.argmax()), int(sq2.argmax()), int(sq3.argmax())
    worst = max(sq1[k1], sq2[k2], sq3[k3])
    if worst == sq1[k1]:
        i = int(np.searchsorted(src._offsets, k1, side="right")) - 1
        a, b = divmod(k1 - src.offset(i), src.blocks[i])
        where = f"phi(e_ab) = v_a w_b in source block {i}, units (a, b) = ({a}, {b})"
    elif worst == sq2[k2]:
        b, c = divmod(k2, ngen)
        where = (
            f"w_b v_c = delta P for source blocks ({owner[b]}, {owner[c]}),"
            f" units (b, c) = ({b - first[owner[b]]}, {c - first[owner[c]]})"
        )
    else:
        i = owner[k3]
        where = f"v_a P = v_a in source block {i}, unit a = {k3 - first[i]}"
    return float(np.sqrt(worst)), where


def make_star_hom(src, dst, matrix, *, eps: float = EPS) -> StarHom:
    """The StarHom of a matrix from outside, after the star and
    multiplicativity checks; a residual that is not <= eps (NaN included)
    raises."""
    matrix = np.array(matrix, dtype=complex)
    if matrix.shape != (dst.dim, src.dim):
        raise ShapeMismatch(f"expected a {dst.dim} x {src.dim} matrix, got {matrix.shape}")
    resid = _star_residual(src, dst, matrix)
    if not resid <= eps:
        raise NotStarPreserving("map does not commute with the adjoint", resid)
    resid, where = _mult_residual(src, dst, matrix)
    if not resid <= eps:
        raise NotMultiplicative(f"fails {where}", resid)
    return StarHom(src, dst, matrix)


def identity_hom(a: FdCstarAlgebra) -> StarHom:
    """The identity, with its Bratteli data W_ii = I_{n_i}, one copy each.
    The identity matrix is _conjugation_matrix of that data to the bit, at
    a fraction of the cost."""
    ws = [{i: np.eye(n, dtype=complex)[:, :, None]} for i, n in enumerate(a.blocks)]
    return _bratteli_hom(a, a, ws, np.eye(a.dim, dtype=complex))


def compose_homs(psi: StarHom, phi: StarHom) -> StarHom:
    """psi . phi; a composite of *-homs is one, so it is not re-checked."""
    if phi.dst != psi.src:
        raise EndpointMismatch("homs are not composable")
    return StarHom(phi.src, psi.dst, psi.matrix @ phi.matrix)


def is_full_hom(phi: StarHom, *, eps: float = EPS) -> bool:
    """True iff span{ b phi(1) b' } = dst.

    In dst block j the family {e_ab p e_cd} = {p[b,c] e_ad} (p := phi(1)_j)
    has, as a matrix over the m^2 coordinates, orthogonal columns of equal
    norm ||p||_F, so its span is the whole block exactly when ||p||_F > eps:
    the rank test at eps * max(sigma_max, 1) reduces to that norm test.
    """
    p = phi.apply(phi.src.identity())
    return all(frob(pj) > eps for pj in p.mats)


@dataclass(frozen=True)
class CornerPresentation:
    """The corner p B p presented as a canonical algebra.

    ``isometries[t]`` has orthonormal columns spanning the range of the
    corresponding block of p; ``kept`` lists the original block indices with
    nonzero corner (zero blocks are dropped from the presentation).
    ``inclusion`` is the (typically non-unital) embedding back into B.
    """

    algebra: FdCstarAlgebra
    inclusion: StarHom
    isometries: tuple
    kept: tuple


def corner_algebra(p: AlgElement, b: FdCstarAlgebra, *, eps: float = EPS) -> CornerPresentation:
    if p.algebra != b:
        raise EndpointMismatch("projection does not live in the given algebra")
    r1 = frob((p @ p - p).to_vec())
    r2 = frob((p.adjoint() - p).to_vec())
    if max(r1, r2) > eps:
        raise NotProjection("p is not a projection", max(r1, r2))
    kept, isos = [], []
    for i, n in enumerate(b.blocks):
        v = orthonormal_range(p.mats[i], eps)
        if v.shape[1] > 0:
            kept.append(i)
            isos.append(v)
    if not kept:
        raise InvalidAlgebra("the corner of a zero projection is not an algebra")
    corner = FdCstarAlgebra([v.shape[1] for v in isos], label=f"{b.label}-corner" if b.label else "")
    ws = [{} for _ in b.blocks]
    for t, i in enumerate(kept):
        ws[i] = {t: isos[t][:, :, None]}
    inclusion = _bratteli_hom(corner, b, ws)
    return CornerPresentation(corner, inclusion, tuple(isos), tuple(kept))


def hom_normal_form(phi: StarHom, *, eps: float = EPS):
    """Unitaries W_j with W_j^* phi(x)_j W_j in canonical block-diagonal form.

    Canonical form in dst block j: for src blocks i in order, r_ij copies of
    x_i arranged as x_i (x) I_{r_ij} (row index (a, t), a major), then zero
    padding.  Returns the list of W_j.
    """
    src, dst = phi.src, phi.dst
    ws = []
    for j, m in enumerate(dst.blocks):
        cols = []
        for i, n in enumerate(src.blocks):
            r = int(phi.mult_matrix[i, j])
            if r == 0:
                continue
            p11 = phi.apply(src.matrix_unit(i, 0, 0)).mats[j]
            v = orthonormal_range(p11, eps)
            if v.shape[1] != r:
                raise NotMultiplicative(
                    f"rank of phi(e11) in block {j} is {v.shape[1]}, expected {r}"
                )
            for a in range(n):
                ea1 = phi.apply(src.matrix_unit(i, a, 0)).mats[j]
                for t in range(r):
                    cols.append(ea1 @ v[:, t])
        w = np.column_stack(cols) if cols else np.zeros((m, 0), dtype=complex)
        fill = w.shape[1]
        if fill < m:
            comp = np.eye(m, dtype=complex) - w @ w.conj().T
            extra = orthonormal_range(comp, eps)
            if extra.shape[1] != m - fill:
                raise ShapeMismatch("could not complete normal-form unitary")
            w = np.column_stack([w, extra])
        ws.append(w)
    return ws


def _conjugation_matrix(src: FdCstarAlgebra, dst: FdCstarAlgebra, ws) -> np.ndarray:
    """Dense matrix of x -> (+)_l sum_i W_li (x_i (x) I_r) W_li^*, the
    inverse of hom_normal_form.

    ``ws[l]`` maps a source block i to W_li of shape (m_l, n_i, r_il):
    phi(e^(i)_pq) has block l sum_rho W[:, p, rho] W[:, q, rho]^*, so block
    (l, i) of the matrix is the Gram matrix of W_li (``_gram``), with its
    rows and columns regrouped.  The result is a *-hom when, for each l, the
    W_li are isometries (as m_l x n_i r_il matrices) with orthogonal ranges.
    """
    matrix = np.zeros((dst.dim, src.dim), dtype=complex)
    for l, m in enumerate(dst.blocks):
        o = dst.offset(l)
        for i, w in ws[l].items():
            n, c = src.blocks[i], src.offset(i)
            # splitting each axis of the slice in two is a view, so the
            # regrouped Gram is written into the matrix in one copy
            block = matrix[o : o + m * m, c : c + n * n].reshape(m, m, n, n)
            block[...] = _gram(w).reshape(m, n, m, n).transpose(0, 2, 1, 3)
    return matrix


def _gram(w) -> np.ndarray:
    """W W^* for W of shape (m, n, r), read as an (m n) x r matrix."""
    m, n, r = w.shape
    w2 = w.reshape(m * n, r)
    return w2 @ w2.conj().T


def _bratteli_hom(src: FdCstarAlgebra, dst: FdCstarAlgebra, ws, matrix=None) -> StarHom:
    """The certified StarHom of Bratteli data ``ws`` in the format of
    ``_conjugation_matrix``, keeping ``ws`` on it.  ``matrix``, when given,
    is that function's result, known without computing it."""
    if matrix is None:
        matrix = _conjugation_matrix(src, dst, ws)
    phi = StarHom(src, dst, matrix)
    object.__setattr__(phi, "_ws", ws)
    return phi


def _compose_ws(psi_ws, phi_ws):
    """The Bratteli data of psi . phi: W_li concatenates, over the middle
    blocks j, the products W^psi_lj (W^phi_ji (x) I_s), so its multiplicity
    is sum_j r^phi_ij r^psi_jl.  Block (l, i) is present when some middle
    block j has both W^psi_lj and W^phi_ji."""
    out = []
    for per_j in psi_ws:
        per_i = {}
        for j, v in per_j.items():
            for i, w in phi_ws[j].items():
                p = np.einsum("ajs,jbr->abrs", v, w)
                a, b, r, s = p.shape
                per_i.setdefault(i, []).append(p.reshape(a, b, r * s))
        out.append({i: np.concatenate(ps, axis=2) for i, ps in per_i.items()})
    return out


def _composite_residual(psi: StarHom, phi: StarHom, chi: StarHom) -> float:
    """A bound, never below it, on the largest absolute entry of the matrix
    of psi . phi - chi, computed from the Bratteli data of the three homs
    without their dense matrices or any Gram matrix.

    Block (l, i) of each side is the Gram matrix of its W_li, regrouped the
    same way on both sides, which leaves the largest entry of the difference
    unchanged; ``_gram_gap`` bounds that entry from the r x r overlap of the
    two sides' W_li.  A NaN entry makes the result NaN.
    """
    worst = [0.0]
    for lhs, rhs in zip(_compose_ws(psi._ws, phi._ws), chi._ws):
        for i in lhs.keys() | rhs.keys():
            worst.append(_gram_gap(lhs.get(i), rhs.get(i)))
    return float(np.max(worst))


def _gram_gap(w1, w2) -> float:
    """A bound on max |W1 W1^* - W2 W2^*| for W1, W2 of shape (m, n, r),
    read as (m n) x r matrices with rows W_x; None stands for a zero block.

    Multiplicities are compared first.  A PSD Gram's largest entry is its
    largest squared row norm, so for unequal r, a block that one side lacks
    included, the bound is the sum of the two sides' largest squared row
    norms, exact when one side is zero.
    For equal r, let U be the polar factor of the overlap W2^* W1 (the
    unitary minimizing ||W1 - W2 U||_F) and D = W1 - W2 U.  Then
    W1 W1^* - W2 W2^* = D W1^* + (W2 U) D^*, whose (x, y) entry is at most
    ||D_x|| ||W1_y|| + ||W2_x|| ||D_y||, so the bound is
    2 max_x ||D_x|| max_y max(||W1_y||, ||W2_y||), at O(m n r^2 + r^3).
    For r = 1 the overlap's polar factor is its phase and a row's norm its
    entry's modulus.  A non-finite entry gives NaN, not an SVD that cannot
    converge.
    """
    if w1 is None or w2 is None or w1.shape != w2.shape:
        return sum(np.linalg.norm(w, axis=2).max() ** 2 for w in (w1, w2) if w is not None)
    m, n, r = w1.shape
    if r == 1:
        x, y = w1.ravel(), w2.ravel()
        z = complex(np.vdot(y, x))
        u = z / abs(z) if z else 1.0
        return 2.0 * np.abs(x - u * y).max() * np.maximum(np.abs(x), np.abs(y)).max()
    w1, w2 = w1.reshape(m * n, r), w2.reshape(m * n, r)
    z = w2.conj().T @ w1
    if not np.isfinite(z).all():
        return np.nan
    p, _, vh = np.linalg.svd(z)
    d = np.linalg.norm(w1 - w2 @ (p @ vh), axis=1).max()
    return 2.0 * d * np.maximum(np.linalg.norm(w1, axis=1), np.linalg.norm(w2, axis=1)).max()
