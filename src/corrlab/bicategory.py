"""The correspondence bicategory over *-homomorphisms.

gamma_of_hom sends phi: A -> B to the correspondence phi(1)B, with left
action the compression of phi by isometries onto the ranges of phi(1).
Every rank these need is read off phi's multiplicities: where phi(1) fills
a block the isometry is I, and a proper partial range gets exactly its
rank's pivots.  So Gamma, its isometries, the products they enter and the
factorization u_of_corr are functions of their inputs alone, built once
and kept; eps enters only the checks (hom_normal_form's, CorrIso's).
Composition of homs and tensor product of their correspondences agree up to
the canonical intertwiner produced by gamma_multiplicativity.

Every correspondence factors through its linking algebra K(E (+) B): the
left action lands in the E corner, B sits in the complementary corner, and
u_of_corr returns the factorization data together with the exact
intertwiner (Gamma j_E) (x) X -> E, where X inverts the B corner.

Equivalences (full correspondences whose left action is a *-isomorphism)
get explicit inverses via conjugate modules; the unitaries carrying each
source block onto its matched compact block are the normal form of the
left action (hom_normal_form), which also powers find_corr_iso.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    FdCstarAlgebra,
    StarHom,
    _bratteli_hom,
    _unit_image,
    compose_homs,
    hom_normal_form,
    identity_hom,
)
from .errors import EndpointMismatch, InvalidAlgebra, NotAnEquivalence, ValidationError
from .linalg import EPS, orthonormal_range
from .modules import (
    CorrIso,
    Correspondence,
    _intertwiner_blocks,
    _renaming_blocks,
    identity_corr,
    is_full_corr,
    make_module,
    tensor_corrs,
)

__all__ = [
    "gamma_of_hom",
    "gamma_isometries",
    "gamma_multiplicativity",
    "CornerFactorization",
    "u_of_corr",
    "EquivalenceWitness",
    "equivalence_inverse",
    "find_corr_iso",
]


def gamma_isometries(phi: StarHom):
    """Per-dst-block isometries onto the ranges of phi(1), read-only; computed
    once per phi and kept on it.

    phi is a *-hom (certified by its builder, or checked at the trust
    boundary, which traces its multiplicities), so phi(1)_j is a projection
    of rank sum_i r_ij n_i.  At rank m_j it is the unit and V_j is I, the
    basis orthonormal_range gives for the exact unit; at rank 0, V_j is
    (m_j, 0), as it gives for a zero block.  Homs that differ by rounding (a
    composite reached along two paths) have equal multiplicities, so both
    get exactly these; only a proper partial range goes to orthonormal_range,
    at that rank.
    """
    vs = phi._gamma.get("range")
    if vs is None:
        p, vs = None, []
        for j, (m, r) in enumerate(zip(phi.dst.blocks, np.dot(phi.src.blocks, phi.mult_matrix))):
            if 0 < r < m:
                p = _unit_image(phi)[:, None] if p is None else p
                vs.append(orthonormal_range(phi.dst.block_rows(p, j)[:, :, 0], r))
            else:
                vs.append(np.eye(m, r, dtype=complex))  # I if filled, (m, 0) if missed
            vs[-1].setflags(write=False)
        vs = phi._gamma["range"] = tuple(vs)
    return vs


def gamma_of_hom(phi: StarHom) -> Correspondence:
    """The correspondence phi(1)B of a *-homomorphism phi: A -> B.

    Module multiplicity at block j is rank(phi(1)_j); the left action is
    a -> V_j^* phi(a)_j V_j on the isometries V_j spanning those ranges
    (gamma_isometries).  Where phi(1) fills block j, V_j = I, and the rows
    are phi's own block rows (+ 0.0, so -0.0 reads as 0.0).
    Multiplicities: mult(phi) at the kept blocks, as V_j keeps phi(1)_j's range.
    Computed once per phi and kept on it: repeated calls return the same
    object, so sibling chains share edges and their tensor frames.
    """
    corr = phi._gamma.get("corr")
    if corr is not None:
        return corr
    vs = gamma_isometries(phi)
    mult = [v.shape[1] for v in vs]
    if all(m == 0 for m in mult):
        raise InvalidAlgebra("the zero homomorphism has no correspondence")
    module = make_module(phi.dst, mult)
    kc = module.compacts
    lam = np.zeros((kc.dim, phi.src.dim), dtype=complex)
    filled = np.dot(phi.src.blocks, phi.mult_matrix) == phi.dst.blocks
    for t, j in enumerate(module.kept):
        m, o, v = phi.dst.blocks[j], phi.dst.offset(j), vs[j]
        if filled[j]:
            kc.block_rows(lam, t)[:] = phi.dst.block_rows(phi.matrix, j) + 0.0
            continue
        # block j of every column at once, as a C-ordered stack of m x m
        # images, so each product runs the same kernel as on one image
        imgs = phi.matrix[o : o + m * m].T.copy().reshape(-1, m, m)
        kc.block_rows(lam, t)[:] = (v.conj().T @ imgs @ v).transpose(1, 2, 0)
    lam_hom = StarHom(phi.src, kc, lam, phi.mult_matrix[:, list(module.kept)])
    corr = phi._gamma["corr"] = Correspondence(phi.src, module, lam_hom)
    return corr


def gamma_multiplicativity(psi: StarHom, phi: StarHom, *, comp=None) -> CorrIso:
    """Canonical intertwiner (Gamma phi) (x) (Gamma psi) -> Gamma(psi . phi).

    On representatives it is b (x) c -> psi(b) c, written in the range
    coordinates of the three correspondences.  ``comp`` may supply the
    composite hom; the result lands on its Gamma, the object kept on that
    hom, and starts at the product kept on Gamma phi.  Certified: unitary
    and intertwining up to rounding because phi and psi are *-homs.
    """
    if phi.dst != psi.src:
        raise EndpointMismatch("homs are not composable")
    if comp is None:
        comp = compose_homs(psi, phi)
    elif comp.src != phi.src or comp.dst != psi.dst:
        raise EndpointMismatch("comp does not have the composite endpoints")
    target = gamma_of_hom(comp)
    tp = tensor_corrs(gamma_of_hom(phi), gamma_of_hom(psi))
    v_phi, v_psi, v_comp = gamma_isometries(phi), gamma_isometries(psi), gamma_isometries(comp)
    mid = psi.src

    def action(j, a, k, w):
        # b = v e_0^T in block j is sum_p v[p] e^(j)_p0, so psi(b) at block
        # k is psi's columns at those n_j matrix units times v
        n, o = mid.blocks[j], mid.offset(j)
        img = psi.dst.block_rows(psi.matrix, k)[:, :, o : o + n * n : n] @ v_phi[j][:, a]
        return v_comp[k].conj().T @ img @ v_psi[k] @ w

    return CorrIso._trusted(tp.corr, target, _intertwiner_blocks(tp, target, action))


@dataclass(frozen=True)
class CornerFactorization:
    """E presented as (Gamma j_E) (x)_L X over the linking algebra L.

    ``linking`` is K(E (+) B); ``j_hom`` maps the source into the E corner,
    ``i_hom`` embeds B into the complementary corner (a full corner
    embedding), ``x_corr`` is the tautological correspondence L -> B, and
    ``iso`` is the exact factorization intertwiner from
    tensor_corrs(gamma_j, x_corr).corr to E, a certified coordinate renaming.
    """

    linking: FdCstarAlgebra
    j_hom: StarHom
    i_hom: StarHom
    gamma_j: Correspondence
    x_corr: Correspondence
    iso: CorrIso


def u_of_corr(corr: Correspondence) -> CornerFactorization:
    """E = (Gamma j_E) (x) X; j_hom has lambda_E's multiplicities, on their blocks."""
    a, b = corr.src, corr.dst
    e_mod = corr.module
    sum_mod = make_module(b, [m + n for m, n in zip(e_mod.mult, b.blocks)])
    linking = sum_mod.compacts

    # block k of the linking algebra is M_{m_k + n_k} (all are kept):
    # lambda_E(x) in the upper left corner, B in the lower right one
    j_matrix = np.zeros((linking.dim, a.dim), dtype=complex)
    mult = np.zeros((a.nblocks, linking.nblocks), dtype=np.int64)
    for pos, k in enumerate(e_mod.kept):
        m = e_mod.mult[k]
        linking.block_rows(j_matrix, k)[:m, :m] = e_mod.compacts.block_rows(corr.lam.matrix, pos)
        mult[:, k] = corr.lam.mult_matrix[:, pos]
    j_hom = StarHom(a, linking, j_matrix, mult)
    ws = [
        {k: np.eye(m + n, n, -m)[:, :, None]} for k, (m, n) in enumerate(zip(e_mod.mult, b.blocks))
    ]
    i_hom = _bratteli_hom(b, linking, ws)

    gamma_j = gamma_of_hom(j_hom)
    x_corr = Correspondence(linking, sum_mod, identity_hom(linking))
    tp = tensor_corrs(gamma_j, x_corr)

    iso = CorrIso._trusted(tp.corr, corr, _renaming_blocks(tp, corr))
    return CornerFactorization(linking, j_hom, i_hom, gamma_j, x_corr, iso)


@dataclass(frozen=True)
class EquivalenceWitness:
    """Inverse data of an equivalence correspondence E: A -> B.

    ``block_map[i]`` is the B block matched to A block i by the left action,
    ``unitaries[i]`` conjugates A block i onto the corresponding compact
    block.  The counits contract E (x) inverse -> id_A and
    inverse (x) E -> id_B; they start at the products tensor_corrs keeps.
    """

    corr: Correspondence
    inverse: Correspondence
    block_map: tuple
    unitaries: tuple
    counit_left: CorrIso
    counit_right: CorrIso


def equivalence_inverse(corr: Correspondence, *, eps: float = EPS) -> EquivalenceWitness:
    """Explicit inverse of an equivalence, via the conjugate module.

    Raises NotAnEquivalence unless the correspondence is full and its left
    action is a *-isomorphism onto the compacts.  The action's multiplicities
    are then a permutation, so its normal form at compact block k is the
    unitary u with lambda(x)_k = u x_i u^*, i the source block matched to k;
    an unchecked action whose e_00 image has the wrong rank raises
    NotMultiplicative there.  The counits are certified: unitary and
    intertwining up to rounding because the action is a *-hom.
    """
    a, b = corr.src, corr.dst
    if not is_full_corr(corr):
        raise NotAnEquivalence("correspondence is not full")
    lam = corr.lam
    ke = corr.module.compacts
    mm = lam.mult_matrix
    perm_like = (
        a.nblocks == ke.nblocks
        and ((mm == 0) | (mm == 1)).all()
        and (mm.sum(axis=0) == 1).all()
        and (mm.sum(axis=1) == 1).all()
    )
    if not perm_like:
        raise NotAnEquivalence("left action multiplicities are not a permutation")
    # the action is unital (Correspondence), so block i fills the compact
    # block it is matched to: a.blocks[i] == corr.module.mult[k]
    block_map = [corr.module.kept[int(np.argmax(row))] for row in mm]
    nf = hom_normal_form(lam, eps=eps)
    us = [nf[corr.module.compact_pos(k)] for k in block_map]

    inv_mod = make_module(a, [b.blocks[k] for k in block_map])
    # compact block i of the inverse is a copy of B block block_map[i]
    ws = [{k: np.eye(b.blocks[k])[:, :, None]} for k in block_map]
    inverse = Correspondence(b, inv_mod, _bratteli_hom(b, inv_mod.compacts, ws))

    tp_left = tensor_corrs(corr, inverse)
    id_a = identity_corr(a)

    # tp_left.r[k][i] and tp_right.r[i][k] vanish unless k = block_map[i]
    def act_left(k, r, i, w):
        return np.outer(us[i].conj().T[:, r], w[0])

    counit_left = CorrIso._trusted(
        tp_left.corr, id_a, _intertwiner_blocks(tp_left, id_a, act_left)
    )

    tp_right = tensor_corrs(inverse, corr)
    id_b = identity_corr(b)

    def act_right(i, r, k, w):
        out = np.zeros((b.blocks[k], w.shape[1]), dtype=complex)
        out[r] = us[i][:, 0].conj() @ w
        return out

    counit_right = CorrIso._trusted(
        tp_right.corr, id_b, _intertwiner_blocks(tp_right, id_b, act_right)
    )
    return EquivalenceWitness(corr, inverse, tuple(block_map), tuple(us), counit_left, counit_right)


def find_corr_iso(c1: Correspondence, c2: Correspondence, *, eps: float = EPS):
    """A unitary intertwiner c1 -> c2, or None if none exists.

    Two correspondences with equal multiplicities are isomorphic exactly
    when their left actions have the same block multiplicities; the
    intertwiner is assembled from the normal forms of both actions.
    """
    if c1.src is not c2.src or c1.module is not c2.module:  # one module per (dst, mult)
        return None
    if not np.array_equal(c1.lam.mult_matrix, c2.lam.mult_matrix):
        return None
    w1 = hom_normal_form(c1.lam, eps=eps)
    w2 = hom_normal_form(c2.lam, eps=eps)
    pos = [c1.module.compact_pos(k) for k in range(c1.dst.nblocks)]
    blocks = [np.zeros((0, 0), dtype=complex) if p is None else w2[p] @ w1[p].conj().T for p in pos]
    try:
        return CorrIso(c1, c2, blocks, eps=eps)
    except ValidationError:
        return None
