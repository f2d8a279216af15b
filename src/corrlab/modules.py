"""Hilbert modules, correspondences, unitary intertwiners, tensor products.

A right Hilbert module over B = (+)_k M_{n_k} is a direct sum of row spaces
C^{m_k x n_k} with entrywise right multiplication and inner product
<x, y> = (x_k^* y_k)_k.  Its compact operators form (+)_{m_k > 0} M_{m_k};
blocks with m_k = 0 stay in the module data but are dropped from the
compacts, with ``kept`` recording the surviving base indices.

A module is hash-consed like an algebra, one live object per (base.blocks,
mult): keyed on ints, as a base object in a key would be held for ever.

A correspondence A -> B is such a module together with a unital
*-homomorphism A -> K(E).  Unitary intertwiners are stored per base block,
which encodes right linearity structurally; ``_iso_residuals`` measures
their unitarity and intertwining, for the constructor and the acceptance
judges alike.

The balanced tensor product E (x)_B F is computed in closed form.  Writing
e^(j)_{a1} for the module matrix units of E, every simple tensor reduces to
the family { e^(j)_{a1} (x) y }, whose Gram matrix factors through the
projections P_jk = lambda_F(e^(j)_{11}) restricted to base block k.  An
orthonormalisation R_jk of P_jk turns each group into r_jk = rank(P_jk)
coordinate rows, so the tensor module has multiplicity
Q_k = sum_j m_j r_jk with rows ordered (j, a, t), j and a and t ascending.
r_jk is lambda_F's multiplicity, which every StarHom carries, so a frame,
and so a product, is a function of E and F alone.
tensor_corrs is the one place a product is built: it keeps E (x) F on E,
keyed weakly by F itself, and the product reads both factors weakly, so it
lives exactly as long as E and F both do and keeps neither alive.
E (x) id_B with the identity_corr kept on B is E itself: there P_jk is
e^(j)_00 at k = j and 0 elsewhere, so r is the identity, Q = mult(E), each
group starts at row 0 and lambda_G copies lambda_E, and the general
construction would rebuild E to the bit.
"""
from __future__ import annotations

import weakref
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .algebra import FdCstarAlgebra, StarHom, _raise_first, _sizes, make_star_hom, identity_hom
from .errors import (
    BaseMismatch, EndpointMismatch, InvalidAlgebra, NotIntertwining, NotRightLinear, NotUnitary, ShapeMismatch,
)
from .linalg import EPS, frob, gram_onb, worst_of

_NO_PRODUCTS = MappingProxyType({})  # every Correspondence's until its first product

__all__ = [
    "HilbertModule",
    "make_module",
    "direct_sum_modules",
    "Correspondence",
    "make_correspondence",
    "identity_corr",
    "corr_close",
    "is_full_corr",
    "CorrIso",
    "make_iso",
    "compose_isos",
    "iso_distance",
    "TensorProduct",
    "tensor_corrs",
    "tensor_iso",
    "left_unitor",
    "right_unitor",
    "associator",
]


class HilbertModule:
    """Right Hilbert module (+)_k C^{m_k x n_k} over a fixed base algebra."""

    __slots__ = ("base", "mult", "dim", "compacts", "kept", "_pos", "_offsets", "__weakref__")
    _table = weakref.WeakValueDictionary()

    def __new__(cls, base: FdCstarAlgebra, mult):
        mult = _sizes(mult, ShapeMismatch, "multiplicities")
        key = (base.blocks, mult)
        e = cls._table.get(key)
        if e is None:
            if len(mult) != base.nblocks:
                raise ShapeMismatch("one multiplicity per base block required")
            if any(m < 0 for m in mult):
                raise ShapeMismatch(f"multiplicities must be >= 0, got {mult}")
            kept = tuple(k for k, m in enumerate(mult) if m > 0)
            if not kept:
                raise InvalidAlgebra("the zero module has no compact operators")
            e = super().__new__(cls)
            e.base, e.mult, e.kept = base, mult, kept
            e._pos = {k: t for t, k in enumerate(kept)}
            e.compacts = FdCstarAlgebra([mult[k] for k in kept])
            *offs, e.dim = accumulate((m * n for m, n in zip(mult, base.blocks)), initial=0)
            e._offsets = tuple(offs)
            cls._table[key] = e
        return e

    def __hash__(self):
        return hash((self.base, self.mult))

    def __repr__(self):
        return f"HilbertModule({self.base!r}, mult={list(self.mult)})"

    def compact_pos(self, k: int):
        """Index of base block k inside the compacts, or None if dropped."""
        return self._pos.get(k)

    def offset(self, k: int) -> int:
        return self._offsets[k]


def make_module(base: FdCstarAlgebra, mult) -> HilbertModule:
    return HilbertModule(base, mult)


def direct_sum_modules(modules):
    """Direct sum over a common base.

    Returns (sum_module, starts) where starts[s][k] is the first row of
    summand s inside base block k (rows are stacked summand-major).
    """
    if not modules:
        raise ShapeMismatch("empty direct sum")
    base = modules[0].base
    for e in modules:
        if e.base != base:
            raise BaseMismatch("direct sum needs a common base algebra")
    mult = [0] * base.nblocks
    starts = []
    for e in modules:
        starts.append(tuple(mult))
        for k in range(base.nblocks):
            mult[k] += e.mult[k]
    return make_module(base, mult), tuple(starts)


class Correspondence:
    """A proper correspondence: a module plus a unital left action by compacts.

    Immutable.  Its data as the right factor of a tensor product is derived
    once on first use (``_frame``) and shared by every product; E (x) F is
    kept on E in ``_products``, under F as a weak key (tensor_corrs).
    """

    __slots__ = ("src", "module", "lam", "_kept_frame", "_products", "__weakref__")

    def __init__(self, src: FdCstarAlgebra, module: HilbertModule, lam: StarHom):
        if lam.src != src or lam.dst != module.compacts:
            raise EndpointMismatch("left action must map src into the compacts of the module")
        if not lam.unital:
            raise EndpointMismatch("left action must be unital on the compacts")
        self.src = src
        self.module = module
        self.lam = lam
        self._kept_frame = None
        self._products = _NO_PRODUCTS

    @property
    def dst(self) -> FdCstarAlgebra:
        return self.module.base

    @property
    def dim(self) -> int:
        return self.module.dim

    def _frame(self):
        """Read-only (r, proj, onb) of this F in any E (x)_B F: r_jk is
        lambda_F's multiplicity (0 at a dropped k), P_jk and its R_jk of r_jk
        columns; see TensorProduct.  P_jk is column offset(j) of lambda_F's
        matrix at block k, 0 x 0 at a dropped k; ``+ 0.0`` copies it and
        turns -0.0 into 0.0, as a matvec with e^(j)_11 does.  lambda_F is a
        *-hom (certified, or checked at the trust boundary, which traces its
        multiplicities), so P_jk is a projection of rank r_jk; a zero pivot
        (an overstated rank) raises ShapeMismatch, keeping nothing."""
        if self._kept_frame is None:
            kc, lam = self.module.compacts, self.lam.matrix
            pos = [self.module.compact_pos(k) for k in range(self.dst.nblocks)]
            mult = self.lam.mult_matrix.tolist()
            ranks = tuple(tuple(0 if p is None else row[p] for p in pos) for row in mult)
            zero = np.zeros((0, 0), dtype=complex)
            proj = tuple(
                tuple(zero if p is None else kc.block_rows(lam, p)[:, :, c] + 0.0 for p in pos)
                for c in self.src._offsets
            )
            try:
                onb = tuple(
                    tuple(gram_onb(p, r) for p, r in zip(ps, rs)) for ps, rs in zip(proj, ranks)
                )
            except ValueError as err:
                raise ShapeMismatch(f"lambda(e11) has rank below its multiplicity: {err}") from err
            for x in [p for row in proj + onb for p in row]:
                x.setflags(write=False)
            self._kept_frame = (ranks, proj, onb)
        return self._kept_frame

    def __repr__(self):
        return f"Correspondence({self.src!r} -> {self.dst!r}, mult={list(self.module.mult)})"


def make_correspondence(
    src: FdCstarAlgebra, module: HilbertModule, lam_matrix, *, eps: float = EPS
) -> Correspondence:
    lam = make_star_hom(src, module.compacts, lam_matrix, eps=eps)
    return Correspondence(src, module, lam)


def identity_corr(b: FdCstarAlgebra) -> Correspondence:
    """B as a correspondence B -> B; compacts coincide with B itself.  Built
    once per algebra object and kept on it, so every caller shares it."""
    if b._identity is None:
        b._identity = Correspondence(b, make_module(b, b.blocks), identity_hom(b))
    return b._identity


def corr_close(c1: Correspondence, c2: Correspondence, eps: float = EPS) -> bool:
    if c1 is c2:
        return True
    return c1.src is c2.src and c1.module is c2.module and frob(c1.lam.matrix - c2.lam.matrix) <= eps


def is_full_corr(corr: Correspondence) -> bool:
    """True iff span{ <x, y> } = dst.

    In base block k the family { <e_ra, e_sb> } = { delta_rs e_ab }, as a
    matrix over the n_k^2 coordinates, has orthogonal columns of equal norm
    sqrt(m_k), so its span is the whole block exactly when the multiplicity
    m_k is nonzero: no tolerance is involved.
    """
    return all(m > 0 for m in corr.module.mult)


def _iso_residuals(u) -> tuple:
    """(U*U - 1, U U* - 1, intertwining) worst Frobenius norms of the blocks
    of an intertwiner, each gathered with ``linalg.worst_of``, so a NaN shows.

    The one definition: ``_iso_faults`` bounds these numbers, and the
    acceptance judges report them.  The blocks must be square, of the
    shapes the modules give; then a kept source block is kept in the target
    too.
    """
    left, right, inter = [], [], []
    for b in u.blocks:
        one = np.eye(len(b))
        left.append(frob(b.conj().T @ b - one))
        right.append(frob(b @ b.conj().T - one))
    src, dst = u.src, u.dst
    cs, cd = src.module.compacts, dst.module.compacts
    for k in src.module.kept:
        b = u.blocks[k]
        s3 = cs.block_rows(src.lam.matrix, src.module.compact_pos(k))
        d3 = cd.block_rows(dst.lam.matrix, dst.module.compact_pos(k))
        lhs = np.tensordot(b, s3, axes=(1, 0))
        rhs = np.tensordot(d3, b, axes=(1, 0)).transpose(0, 2, 1)
        if lhs.size:
            inter.append(float(np.sqrt((np.abs(lhs - rhs) ** 2).sum(axis=(0, 1))).max()))
    return worst_of(left), worst_of(right), worst_of(inter)


def _iso_faults(u, eps: float, dense=None):
    """The checks of an intertwiner, in order, as (name, residual, error or
    None): with ``dense``, the matrix u was read off (``_dense_iso``), that
    it is right linear; unitarity and intertwining (``_iso_residuals``).  A
    residual not <= eps (NaN too) gives the error; endpoints or block
    shapes that do not fit raise at once, having no residual."""
    if dense is not None:
        r = frob(dense - u.dense())
        err = None if r <= eps else NotRightLinear("matrix does not commute with the right action", r)
        yield "right-linear", r, err
    src, dst, blocks = u.src, u.dst, u.blocks
    if src.src != dst.src or src.dst != dst.dst:
        raise EndpointMismatch("intertwiner endpoints disagree")
    if len(blocks) != src.dst.nblocks:
        raise ShapeMismatch("one block per base block required")
    for k, b in enumerate(blocks):
        want = (dst.module.mult[k], src.module.mult[k])
        if b.shape != want:
            raise ShapeMismatch(f"block {k} has shape {b.shape}, expected {want}")
    for k, b in enumerate(blocks):
        if b.shape[0] != b.shape[1]:
            raise NotUnitary(f"block {k} is not square: {b.shape}")
    r1, r2, r3 = _iso_residuals(u)
    r = worst_of((r1, r2))
    yield "unitary", r, None if r <= eps else NotUnitary("blocks are not unitary", r)
    yield "intertwining", r3, None if r3 <= eps else NotIntertwining("left actions are not intertwined", r3)


class CorrIso:
    """Unitary intertwiner of correspondences, one matrix per base block.

    Block k maps C^{m_k x n_k} by x -> U_k x, so right linearity holds by
    construction; the constructor raises the first error of its
    ``_iso_faults``: endpoints and square blocks of the modules' shapes,
    unitarity, and that the left actions are intertwined.
    """

    __slots__ = ("src", "dst", "blocks", "__weakref__")

    def __init__(self, src: Correspondence, dst: Correspondence, blocks, *, eps: float = EPS):
        self.src, self.dst = src, dst
        self.blocks = tuple(np.asarray(u, dtype=complex) for u in blocks)
        _raise_first(_iso_faults(self, eps))

    @classmethod
    def _trusted(cls, src, dst, blocks):
        """Skip validation; only for what is unitary and intertwining by
        construction: identities and the coordinate renamings (right unitor,
        corner factorization), whose residuals are exactly 0; the left
        unitor, associator, Gamma multiplicativity cell and Morita counits
        built from valid correspondences and *-homs; and tensors, adjoints
        and composites of valid isos.  Their residuals are rounding only."""
        out = cls.__new__(cls)
        out.src, out.dst, out.blocks = src, dst, tuple(blocks)
        return out

    def inverse(self) -> "CorrIso":
        return CorrIso._trusted(self.dst, self.src, [u.conj().T for u in self.blocks])

    def dense(self) -> np.ndarray:
        """Full matrix on module coordinates, blockdiag of U_k (x) I_{n_k}."""
        d = np.zeros((self.dst.module.dim, self.src.module.dim), dtype=complex)
        for k, u in enumerate(self.blocks):
            n = self.src.dst.blocks[k]
            o_r, o_c = self.dst.module.offset(k), self.src.module.offset(k)
            m_r, m_c = u.shape
            d[o_r : o_r + m_r * n, o_c : o_c + m_c * n] = np.kron(u, np.eye(n))
        return d

    def __repr__(self):
        return f"CorrIso({self.src!r} ~ {self.dst!r})"


def _dense_iso(src: Correspondence, dst: Correspondence, data) -> CorrIso:
    """The intertwiner read off a dense (dst.dim x src.dim) matrix, unchecked."""
    blocks = []
    for k, n in enumerate(src.dst.blocks):
        m_c, m_r = src.module.mult[k], dst.module.mult[k]
        o_r, o_c = dst.module.offset(k), src.module.offset(k)
        sub = data[o_r : o_r + m_r * n, o_c : o_c + m_c * n]
        u = np.zeros((m_r, m_c), dtype=complex)
        if n > 0 and m_r > 0 and m_c > 0:
            u = sub.reshape(m_r, n, m_c, n)[:, 0, :, 0].copy()
        blocks.append(u)
    return CorrIso._trusted(src, dst, blocks)


def make_iso(src: Correspondence, dst: Correspondence, blocks, *, eps: float = EPS) -> CorrIso:
    """The checked intertwiner of per-block unitaries, as ``CorrIso``; a dense
    matrix is read at the JSON trust boundary (``iso_from_json``)."""
    return CorrIso(src, dst, list(blocks), eps=eps)


def compose_isos(u: CorrIso, v: CorrIso, *, eps: float = EPS) -> CorrIso:
    """u after v."""
    if not corr_close(v.dst, u.src, eps):
        raise EndpointMismatch("intertwiners are not composable")
    return CorrIso._trusted(v.src, u.dst, [a @ b for a, b in zip(u.blocks, v.blocks)])


def iso_distance(u: CorrIso, v: CorrIso) -> float:
    if u.src.module != v.src.module or u.dst.module != v.dst.module:
        raise ShapeMismatch("intertwiners live on different modules")
    return worst_of(frob(a - b) for a, b in zip(u.blocks, v.blocks))


class TensorProduct:
    """E (x)_B F together with its coordinate bookkeeping.

    Fields:
      left, right    the two correspondences, each read through a weak
                     reference: E keeps the product while F lives
      corr           the resulting correspondence src(E) -> dst(F), which
                     is ``left`` where E (x) id_B is E
      r              ranks r_jk over (B block, C block), a tuple of int tuples
      onb[j][k]      q_k x r_jk orthonormalising coefficients R_jk
      proj[j][k]     the projection P_jk = lambda_F(e^(j)_11) at block k
      cells          None, or Gamma's multiplicativity cells from this
                     product by target, held weakly
                     (bicategory.gamma_multiplicativity)

    Block-k rows are grouped (j, a, t): j the B block, a < m_j(E),
    t < r_jk, all ascending.  r, onb and proj depend on F alone: they are
    F's read-only frame (Correspondence._frame), shared by all its products.
    """

    def __init__(self, left: Correspondence, right: Correspondence):
        if left.dst != right.src:
            raise EndpointMismatch("tensor product needs matching middle algebra")
        self._left, self._right = weakref.ref(left), weakref.ref(right)
        self.r, self.proj, self.onb = right._frame()
        self.cells = None
        self._row0, q = [], (0,) * right.dst.nblocks  # _row0[j][k]: row_start(k, j, 0)
        for m, r_j in zip(left.module.mult, self.r):
            self._row0.append(q)
            q = tuple(x + m * r for x, r in zip(q, r_j))
        if right is right.src._identity:  # E (x) id_B is E to the bit: see the module docstring
            self.module, self._corr = left.module, None
            return
        self.module = module = make_module(right.dst, q)
        self._corr = Correspondence(left.src, module, self._left_action(module))

    @property
    def left(self) -> Correspondence:
        return self._left()

    @property
    def right(self) -> Correspondence:
        return self._right()

    @property
    def corr(self) -> Correspondence:
        return self.left if self._corr is None else self._corr

    def _left_action(self, module: HilbertModule) -> StarHom:
        """lambda_G = (multiplicity embedding K(E) -> K(G)) . lambda_E.

        The embedding places T in K(E) block j as blockwise T (x) I_{r_jk};
        it is an exact 0/1 isometric unital *-hom, so the composite is a
        *-hom whenever lambda_E is and needs no re-validation.  Its
        multiplicities are mult(lambda_E) r, read off the construction.
        """
        e_mod = self.left.module
        ke, kg = e_mod.compacts, module.compacts
        lam_e = self.left.lam.matrix
        ncol = lam_e.shape[1]
        matrix = np.zeros((kg.dim, ncol), dtype=complex)
        for kp, k in enumerate(module.kept):
            g = kg.block_rows(matrix, kp)
            for jp, j in enumerate(e_mod.kept):
                m, r = e_mod.mult[j], self.r[j][k]
                if r == 0:
                    continue
                o = self._row0[j][k]
                # rows (a, t), columns (a2, t) of group j; copy=False: a view
                blk = np.reshape(g[o : o + m * r, o : o + m * r], (m, r, m, r, ncol), copy=False)
                src = ke.block_rows(lam_e, jp)
                for t in range(r):
                    blk[:, t, :, t] = src
        r = [[self.r[j][k] for k in module.kept] for j in e_mod.kept]
        return StarHom(self.left.src, kg, matrix, np.dot(self.left.lam.mult_matrix, r))

    def row_start(self, k: int, j: int, a: int) -> int:
        """First block-k row of group (j, a)."""
        return self._row0[j][k] + a * self.r[j][k]



def tensor_corrs(left: Correspondence, right: Correspondence) -> TensorProduct:
    """E (x)_B F, built on first use and kept on E, keyed weakly by F, so
    every caller shares one product per pair; one that raises is not kept."""
    tp = left._products.get(right)
    if tp is None:
        if left._products is _NO_PRODUCTS:
            left._products = weakref.WeakKeyDictionary()
        tp = left._products[right] = TensorProduct(left, right)
    return tp


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: the same products, so the same bits, without
    its handling of arbitrary axes."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def tensor_iso(
    u: CorrIso, v: CorrIso, tp_src: TensorProduct, tp_dst: TensorProduct, *, eps: float = EPS
) -> CorrIso:
    """u (x) v as an intertwiner tp_src.corr -> tp_dst.corr.  Certified once
    the factors match: u and v are valid intertwiners, and their tensor in
    the frames of valid correspondences is unitary and intertwining up to
    rounding."""
    if not corr_close(u.src, tp_src.left, eps) or not corr_close(v.src, tp_src.right, eps):
        raise EndpointMismatch("factors do not match the source tensor product")
    if not corr_close(u.dst, tp_dst.left, eps) or not corr_close(v.dst, tp_dst.right, eps):
        raise EndpointMismatch("factors do not match the target tensor product")
    c = tp_src.right.dst
    blocks = []
    for k in range(c.nblocks):
        qk = tp_src.module.mult[k]
        out = np.zeros((tp_dst.module.mult[k], qk), dtype=complex)
        for j in range(tp_src.left.dst.nblocks):
            rjk = tp_src.r[j][k]
            if rjk == 0 or tp_src.left.module.mult[j] == 0:
                continue
            t_jk = (
                tp_dst.onb[j][k].conj().T
                @ tp_dst.proj[j][k]
                @ v.blocks[k]
                @ tp_src.onb[j][k]
            )
            o_s = tp_src.row_start(k, j, 0)
            o_d = tp_dst.row_start(k, j, 0)
            blk = _kron(u.blocks[j], t_jk)
            out[o_d : o_d + blk.shape[0], o_s : o_s + blk.shape[1]] = blk
        blocks.append(out)
    return CorrIso._trusted(tp_src.corr, tp_dst.corr, blocks)


def _intertwiner_blocks(tp: TensorProduct, dst: Correspondence, action) -> list:
    """Blocks of the intertwiner tp.corr -> dst that sends e^(j)_{a1} (x) w
    to the element whose block k is action(j, a, k, W), W being block k of w.
    The map is right linear, W -> X W, so one call on all of R_jk =
    tp.onb[j][k] fills the columns of group (j, a) at block k."""
    blocks = []
    for k in range(tp.module.base.nblocks):
        out = np.zeros((dst.module.mult[k], tp.module.mult[k]), dtype=complex)
        for j in range(tp.left.dst.nblocks):
            rjk = tp.r[j][k]
            if rjk == 0:
                continue
            for a in range(tp.left.module.mult[j]):
                o = tp.row_start(k, j, a)
                out[:, o : o + rjk] = action(j, a, k, tp.onb[j][k])
        blocks.append(out)
    return blocks


def _renaming_blocks(tp: TensorProduct, dst: Correspondence) -> list:
    """Blocks of x (x) b -> x b when the right factor's left action is the
    identity, so r_jk = 0 unless k = j: row a of block j of the image is row
    0 of W.  A copy, so the blocks are exact."""

    def action(j, a, k, w):
        out = np.zeros((dst.module.mult[k], w.shape[1]), dtype=complex)
        out[a] = w[0]
        return out

    return _intertwiner_blocks(tp, dst, action)


def _check_identity_factor(c: Correspondence, eps: float, side: str) -> None:
    """Raise unless c is the identity correspondence of its source up to eps;
    inside a simplex c is that very object, so the check is an ``is``."""
    if not corr_close(c, identity_corr(c.src), eps):
        raise EndpointMismatch(f"{side} factor is not the identity correspondence")


def left_unitor(tp: TensorProduct, *, eps: float = EPS) -> CorrIso:
    """id_A (x) E -> E, a (x) x -> lambda_E(a) x.  Certified: unitary and
    intertwining up to rounding because lambda_E is a *-hom."""
    a = tp.left.src
    _check_identity_factor(tp.left, eps, "left")
    e = tp.right
    ke, pos = e.module.compacts, e.module.compact_pos

    def action(i, s, k, w):
        # lambda_E(e^(i)_s0) at block k (kept, as r_ik > 0): one column
        img = ke.block_rows(e.lam.matrix, pos(k))[:, :, a.offset(i) + s * a.blocks[i]]
        return (img + 0.0) @ w

    return CorrIso._trusted(tp.corr, e, _intertwiner_blocks(tp, e, action))


def right_unitor(tp: TensorProduct, *, eps: float = EPS) -> CorrIso:
    """E (x) id_B -> E, x (x) b -> x b.  Certified: an exact coordinate
    renaming."""
    _check_identity_factor(tp.right, eps, "right")
    return CorrIso._trusted(tp.corr, tp.left, _renaming_blocks(tp, tp.left))


def associator(
    tp_ef: TensorProduct,
    tp_efg: TensorProduct,
    tp_fg: TensorProduct,
    tp_e_fg: TensorProduct,
    *,
    eps: float = EPS,
) -> CorrIso:
    """(E (x) F) (x) G -> E (x) (F (x) G) on the given tensor data.

    In closed form: at D block l, the group (j2, alpha) of the source with
    alpha in group (j, a) of E (x) F maps into group (j, a) of the target by
    R^*_e_fg P_e_fg[:, group j2 of F (x) G] kron(R_ef[j][j2], R^*_fg P_fg R_efg),
    the same block for every a.  Certified when tp_efg tensors tp_ef.corr
    and tp_e_fg tensors tp_fg.corr, as checked: it is unitary and
    intertwining up to rounding because the left actions are *-homs.
    """
    if not corr_close(tp_efg.left, tp_ef.corr, eps):
        raise EndpointMismatch("tp_efg must tensor tp_ef.corr with G")
    if not corr_close(tp_e_fg.right, tp_fg.corr, eps):
        raise EndpointMismatch("tp_e_fg must tensor E with tp_fg.corr")
    e_mult, f_mult = tp_ef.left.module.mult, tp_fg.left.module.mult
    blocks = []
    for l in range(tp_efg.module.base.nblocks):
        out = np.zeros((tp_e_fg.module.mult[l], tp_efg.module.mult[l]), dtype=complex)
        for j in range(tp_ef.left.dst.nblocks):
            r_dst = tp_e_fg.r[j][l]
            if r_dst == 0 or e_mult[j] == 0:
                continue
            into = tp_e_fg.onb[j][l].conj().T @ tp_e_fg.proj[j][l]
            for j2 in range(tp_ef.module.base.nblocks):
                if tp_ef.r[j][j2] == 0 or tp_efg.r[j2][l] == 0:
                    continue
                fg = tp_fg.onb[j2][l].conj().T @ tp_fg.proj[j2][l] @ tp_efg.onb[j2][l]
                g0 = tp_fg.row_start(l, j2, 0)
                blk = into[:, g0 : g0 + f_mult[j2] * fg.shape[0]] @ _kron(tp_ef.onb[j][j2], fg)
                for a in range(e_mult[j]):
                    o = tp_e_fg.row_start(l, j, a)
                    c = tp_efg.row_start(l, j2, tp_ef.row_start(j2, j, a))
                    out[o : o + r_dst, c : c + blk.shape[1]] = blk
        blocks.append(out)
    return CorrIso._trusted(tp_efg.corr, tp_e_fg.corr, blocks)
