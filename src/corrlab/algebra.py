"""Finite-dimensional C*-algebras and *-homomorphisms.

An algebra is a direct sum of full matrix blocks, held in its canonical
matrix-unit basis (blocks in order, entries row-major); an element is its
coordinate vector in that basis.  A *-homomorphism carries its integer
block-multiplicity matrix (the image of a minimal projection e_00 of a
source block is a projection in each target block, and its rank there is
the multiplicity) and the dense matrix of the underlying linear map in
those bases: given by its builder, or, for a hom built from Bratteli data,
a dense view scattered from that data's entries on first read.

An algebra is fixed by its block tuple, so it is hash-consed (Filliatre and
Conchon): one live object per tuple, kept in a weak-value table keyed on the
tuple, so equality is identity and equal algebras share what is kept on them.

``make_star_hom`` validates a matrix from outside, raises on invalid data
and traces its multiplicities (``_traced_mult``); ``StarHom`` itself is the
certified constructor that canonical constructions from valid inputs build
through without re-checking, passing the multiplicities they know.

A *-hom is fixed by Bratteli data: its multiplicities and, per target
block, one isometry.  ``hom_normal_form`` extracts that data from a matrix;
``_gram_blocks``, the one writer, writes a hom's entries from it, one Gram
of W's nonzero rows per pair of blocks, with no dense intermediate, for
both views: ``entries`` (nonzero entries, row by row; ``_bratteli_entries``)
and the dense ``matrix``, the same entries written into zeros
(``_conjugation_matrix``).  A hom's data comes from a builder run on first
read: ``_bratteli_hom`` (every constructor from data, the identity too)
passes the data, a subdivision's cut hom a cut.  ``_compose_ws`` composes
such data and ``_composite_residual`` compares a composite with a third
hom on it, block by block, through the r x r overlap of the isometries.
"""
from __future__ import annotations

import operator
import weakref
from functools import cached_property
from itertools import accumulate

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
    "StarHom",
    "make_algebra",
    "make_star_hom",
    "identity_hom",
    "compose_homs",
    "is_full_hom",
    "hom_normal_form",
]

class FdCstarAlgebra:
    """M_{n_1} (+) ... (+) M_{n_r}; built in ``__new__``, as ``__init__``
    would run again on the shared object and reset its ``_identity``."""

    __slots__ = ("blocks", "dim", "_offsets", "_identity", "__weakref__")
    _table = weakref.WeakValueDictionary()

    def __new__(cls, blocks):
        blocks = _sizes(blocks, InvalidAlgebra, "block sizes")
        a = cls._table.get(blocks)
        if a is None:
            if len(blocks) == 0:
                raise InvalidAlgebra("an algebra needs at least one block")
            if any(b < 1 for b in blocks):
                raise InvalidAlgebra(f"block sizes must be >= 1, got {blocks}")
            a = cls._table[blocks] = super().__new__(cls)
            a.blocks = blocks
            *offs, a.dim = accumulate((b * b for b in blocks), initial=0)
            a._offsets = tuple(offs)
            a._identity = None  # modules.identity_corr(a), built on first use
        return a

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"FdCstarAlgebra({list(self.blocks)})"

    def offset(self, i: int) -> int:
        return self._offsets[i]

    def block_rows(self, matrix, i: int) -> np.ndarray:
        """The rows of block i of a (dim x k) matrix, as an (n, n, k) view."""
        n, o = self.blocks[i], self._offsets[i]
        return matrix[o : o + n * n].reshape(n, n, matrix.shape[1])

    def adjoint_perm(self) -> np.ndarray:
        """Permutation p with vec(x*) = conj(vec(x))[p]: per block, its
        entries' flat indices, transposed."""
        runs = [np.arange(o, o + n * n, dtype=np.intp) for o, n in zip(self._offsets, self.blocks)]
        return np.concatenate([r.reshape(n, n).T.ravel() for r, n in zip(runs, self.blocks)])


def make_algebra(blocks) -> FdCstarAlgebra:
    return FdCstarAlgebra(blocks)


def _sizes(seq, error, what: str) -> tuple:
    """Sizes as ints by nerve's rule (``operator.index``), else ``error``."""
    try:
        return tuple(map(operator.index, seq))
    except TypeError:
        raise error(f"{what} must be integers, got {seq!r}") from None


class StarHom:
    """A *-homomorphism between finite-dimensional C*-algebras.

    ``matrix`` is the (dst.dim x src.dim) matrix of the linear map in the
    canonical bases, C-ordered and read-only so that nothing computed from
    it depends on the caller's memory layout; it must already be a *-hom,
    so this is for canonical constructions from valid inputs, and
    ``make_star_hom`` is the one that checks.  ``mult_matrix`` is the
    (src.nblocks x dst.nblocks) int64 matrix of block multiplicities: r_ij
    is the rank of phi(e^(i)_00) in dst block j (Bratteli's structure
    theorem), as each builder knows it from its inputs (its docstring says
    why).  Derived at construction:

    ``unital``, true iff sum_i r_ij n_i = m_j for every dst block j, i.e.
    phi(1) fills every dst block.

    ``_gamma`` keeps Gamma(phi) and its range isometries (bicategory).

    ``_ws``, the Bratteli data of a hom built from it, is made on first
    read by ``build``, a zero-argument builder, and made read-only, so the
    views are written from the data the hom was certified on; None with no
    builder.  Such a hom is given no matrix: ``matrix`` is built from
    ``_ws`` on first read and kept, as is ``entries``, its nonzero entries
    (``_entries``), written from ``_ws``, when set, with no dense matrix.

    Homs compare and hash by identity, so ``==`` never raises and never
    builds a matrix; whether two homs are the same map is a residual's
    question (``corr_close``) or a hash's (``structural_hash``).
    """

    def __init__(self, src: FdCstarAlgebra, dst: FdCstarAlgebra, matrix, mult_matrix, build=None):
        self.src, self.dst, self.mult_matrix = src, dst, mult_matrix
        self.unital = bool((np.dot(src.blocks, mult_matrix) == dst.blocks).all())
        self._gamma, self._build = {}, build
        if matrix is not None:
            self.matrix = _read_only(matrix)

    @cached_property
    def _ws(self):
        if self._build is None:
            return None
        ws, self._build = self._build(), None
        for w_l in ws:
            for w in w_l.values():
                w.setflags(write=False)
        return ws

    @cached_property
    def matrix(self) -> np.ndarray:
        return _read_only(_conjugation_matrix(self.src, self.dst, self._ws))

    @cached_property
    def entries(self) -> tuple:
        if self._ws is None:
            return _entries(self.matrix)
        return _bratteli_entries(self.src, self.dst, self._ws)

    def __repr__(self):
        return f"StarHom({self.src!r} -> {self.dst!r})"


def _read_only(matrix) -> np.ndarray:
    """A C-ordered complex read-only view of ``matrix``."""
    matrix = np.ascontiguousarray(matrix, dtype=complex).view()
    matrix.setflags(write=False)
    return matrix


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


def _traced_mult(src, dst, matrix) -> np.ndarray:
    """The multiplicities of a matrix from outside, read as traces: r_ij is
    the rounded real trace of phi(e^(i)_00) in dst block j, which for a
    *-hom is a projection of rank 0 <= r_ij <= m_j.  Any other r_ij cannot
    be a rank (nor, past 2**63, be cast) and raises NotProjection."""
    diag = [d for o, m in zip(dst._offsets, dst.blocks) for d in range(o, o + m * m, m + 1)]
    starts = np.cumsum((0,) + dst.blocks[:-1])  # where each block's run starts in diag
    traces = np.add.reduceat(matrix[np.array(diag)[:, None], src._offsets].real, starts, axis=0)
    ranks = np.rint(traces)
    if not ((ranks >= 0) & (ranks <= np.array(dst.blocks)[:, None])).all():  # NaN too
        raise NotProjection("a trace of phi(e_00) is not a rank in its block")
    return ranks.T.astype(np.int64)


def _hom_faults(src, dst, matrix, eps: float):
    """The checks of a matrix from outside, in order, as (name, residual,
    error or None); a residual not <= eps (NaN too) gives the error."""
    r = _star_residual(src, dst, matrix)
    err = None if r <= eps else NotStarPreserving("map does not commute with the adjoint", r)
    yield "star-preserving", r, err
    r, where = _mult_residual(src, dst, matrix)
    yield "multiplicative", r, None if r <= eps else NotMultiplicative(f"fails {where}", r)


def _raise_first(faults) -> None:
    """Raise the first error of a checker's results, checking no further."""
    for _, _, err in faults:
        if err is not None:
            raise err


def make_star_hom(src, dst, matrix, *, eps: float = EPS) -> StarHom:
    """The StarHom of a matrix from outside, after ``_hom_faults``; its
    multiplicities are traced (``_traced_mult``)."""
    matrix = np.array(matrix, dtype=complex)
    if matrix.shape != (dst.dim, src.dim):
        raise ShapeMismatch(f"expected a {dst.dim} x {src.dim} matrix, got {matrix.shape}")
    _raise_first(_hom_faults(src, dst, matrix, eps))
    return StarHom(src, dst, matrix, _traced_mult(src, dst, matrix))


def identity_hom(a: FdCstarAlgebra) -> StarHom:
    """The identity, with its Bratteli data W_ii = I_{n_i}, one copy each;
    its dense view, the Gram of the n_i rows W[p, p], is the identity
    matrix to the bit."""
    ws = [{i: np.eye(n, dtype=complex)[:, :, None]} for i, n in enumerate(a.blocks)]
    return _bratteli_hom(a, a, ws)


def compose_homs(psi: StarHom, phi: StarHom) -> StarHom:
    """psi . phi; a composite of *-homs is one, so it is not re-checked.
    Multiplicities: mult(phi) mult(psi), as ranks add over the middle blocks."""
    if phi.dst != psi.src:
        raise EndpointMismatch("homs are not composable")
    mult = np.dot(phi.mult_matrix, psi.mult_matrix)
    return StarHom(phi.src, psi.dst, psi.matrix @ phi.matrix, mult)


def _unit_image(phi: StarHom) -> np.ndarray:
    """phi(1) as a coordinate vector of dst: the matrix times the unit's
    coordinates, 1 on each source block's diagonal and 0 elsewhere."""
    one = np.concatenate([np.eye(n, dtype=complex).ravel() for n in phi.src.blocks])
    return phi.matrix @ one


def is_full_hom(phi: StarHom, *, eps: float = EPS) -> bool:
    """True iff span{ b phi(1) b' } = dst.

    In dst block j the family {e_ab p e_cd} = {p[b,c] e_ad} (p := phi(1)_j)
    has, as a matrix over the m^2 coordinates, orthogonal columns of equal
    norm ||p||_F, so its span is the whole block exactly when ||p||_F > eps:
    the rank test at eps * max(sigma_max, 1) reduces to that norm test.
    """
    p = _unit_image(phi)[:, None]
    return all(frob(phi.dst.block_rows(p, j)) > eps for j in range(phi.dst.nblocks))


def hom_normal_form(phi: StarHom, *, eps: float = EPS):
    """Unitaries W_j with W_j^* phi(x)_j W_j in canonical block-diagonal form.

    Canonical form in dst block j: for src blocks i in order, r_ij copies of
    x_i arranged as x_i (x) I_{r_ij} (row index (a, t), a major), then zero
    padding.  Returns the list of W_j.

    phi(e^(i)_a0) in block j is column offset(i) + a n_i of the matrix, read
    through ``block_rows``; ``+ 0.0`` copies it and turns -0.0 into 0.0, as
    the matvec of phi with that basis vector does.  The ranks are phi's
    multiplicities: P = phi(e^(i)_00)_j gets r_ij pivots, and eps bounds
    only the check that they span it, frob(P - V V^* P), else
    NotMultiplicative.  The padding gets m_j minus the filled columns.
    """
    src, dst = phi.src, phi.dst
    ws = []
    for j, m in enumerate(dst.blocks):
        imgs = dst.block_rows(phi.matrix, j)
        cols = []
        for i, n in enumerate(src.blocks):
            r = int(phi.mult_matrix[i, j])
            if r == 0:
                continue
            o = src.offset(i)
            p = imgs[:, :, o] + 0.0
            v = orthonormal_range(p, r)
            resid = frob(p - v @ (v.conj().T @ p))
            if not resid <= eps:
                raise NotMultiplicative(f"phi(e11) in block {j} is not of rank {r}", resid)
            for a in range(n):
                ea1 = imgs[:, :, o + a * n] + 0.0
                for t in range(r):
                    cols.append(ea1 @ v[:, t])
        w = np.column_stack(cols) if cols else np.zeros((m, 0), dtype=complex)
        fill = w.shape[1]
        if fill < m:
            try:
                extra = orthonormal_range(np.eye(m, dtype=complex) - w @ w.conj().T, m - fill)
            except ValueError as err:
                raise ShapeMismatch(f"could not complete normal-form unitary: {err}") from err
            w = np.column_stack([w, extra])
        ws.append(w)
    return ws


def _gram_blocks(ws):
    """The one writer of the matrix of x -> (+)_l sum_i W_li (x_i (x) I_r)
    W_li^*, the inverse of hom_normal_form: yields (l, i, a, p, G) per block
    (l, i), x = (a, p) running over W_li's nonzero rows and G their Gram,
    whose entry (x, y) is the matrix's at row offset(l) + a_x m_l + a_y and
    column offset(i) + p_x n_i + p_y; every other entry is zero.

    ``ws[l]`` maps a source block i to W_li of shape (m_l, n_i, r_il):
    phi(e^(i)_pq) has block l sum_rho W[:, p, rho] W[:, q, rho]^*, the Gram
    of W_li read as an (m n) x r matrix, regrouped.  This is a *-hom when,
    for each l, the W_li are isometries (as m_l x n_i r_il matrices) with
    orthogonal ranges.  A zero row of W is a zero row and column of its
    Gram: a NaN stays in its row's entries, not spread through 0 * NaN, and
    for a W with no zero row G is the full product to the bit.
    """
    for l, w_l in enumerate(ws):
        for i, w in w_l.items():
            a, p = np.nonzero(w.any(axis=2))
            x = w[a, p]
            yield l, i, a, p, x @ x.conj().T


def _conjugation_matrix(src: FdCstarAlgebra, dst: FdCstarAlgebra, ws) -> np.ndarray:
    """The dense view of Bratteli data: ``_gram_blocks`` written into zeros."""
    matrix = np.zeros((dst.dim, src.dim), dtype=complex)
    for l, i, a, p, g in _gram_blocks(ws):
        m, n, o, c = dst.blocks[l], src.blocks[i], dst.offset(l), src.offset(i)
        # splitting each axis of the slice in two is a view, written in place
        block = matrix[o : o + m * m, c : c + n * n].reshape(m, m, n, n)
        block[a[:, None], a, p[:, None], p] = g
    return matrix


def _bratteli_entries(src: FdCstarAlgebra, dst: FdCstarAlgebra, ws) -> tuple:
    """``_entries`` of Bratteli data's matrix, from ``_gram_blocks`` with no
    dense matrix: the zeros dropped, the rest sorted (no position repeats)."""
    rows, cols, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=complex)]
    for l, i, a, p, g in _gram_blocks(ws):
        rows.append(((dst.offset(l) + dst.blocks[l] * a)[:, None] + a).ravel())
        cols.append(((src.offset(i) + src.blocks[i] * p)[:, None] + p).ravel())
        vals.append(g.ravel())
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    at = np.flatnonzero(vals != 0)
    at = at[np.argsort(rows[at] * src.dim + cols[at])]
    return _packed((dst.dim, src.dim), rows[at], cols[at], vals[at])


def _entries(m) -> tuple:
    """A matrix as its nonzero entries, NaN and inf among them: (shape, rows,
    cols, values in row-major order, row starts, whether all are finite)."""
    m = np.asarray(m)
    rows, cols = np.nonzero(m)
    return _packed(m.shape, rows, cols, m[rows, cols])


def _packed(shape, rows, cols, vals) -> tuple:
    starts = np.searchsorted(rows, np.arange(shape[0] + 1))
    return shape, rows, cols, vals, starts, bool(np.isfinite(vals).all())


def _bratteli_hom(src: FdCstarAlgebra, dst: FdCstarAlgebra, ws) -> StarHom:
    """The certified StarHom of Bratteli data ``ws`` in the format of
    ``_gram_blocks``, holding ``ws`` and no matrix: its entries and dense
    views are written from ``ws`` on first read.  Its multiplicities are
    r_il = W_li.shape[2] (0 if absent), the rank of W_li[:, 0, :]."""
    mult = [[w[i].shape[2] if i in w else 0 for w in ws] for i in range(src.nblocks)]
    return StarHom(src, dst, None, np.array(mult, dtype=np.int64), lambda: ws)


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
