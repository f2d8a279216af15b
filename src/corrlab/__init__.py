"""Finite-dimensional C*-correspondences and their nerve.

Algebras are direct sums of matrix blocks, correspondences are Hilbert
bimodules between them, and simplices of correspondences carry the
coherence unitaries of a bicategory nerve.  On top of that sit the
barycentric-subdivision diagram of a simplex and a horn-filling recursion
that extends corner-stable functors across it.
"""
from .algebra import (
    EPS,
    FdCstarAlgebra,
    StarHom,
    compose_homs,
    hom_normal_form,
    identity_hom,
    is_full_hom,
    make_algebra,
    make_star_hom,
)
from .bicategory import (
    CornerFactorization,
    EquivalenceWitness,
    equivalence_inverse,
    find_corr_iso,
    gamma_multiplicativity,
    gamma_of_hom,
    u_of_corr,
)
from .errors import *  # noqa: F401,F403  (the exception vocabulary)
from .extension import (
    BarExtension,
    CstFunctor,
    CstHomotopy,
    K0Oracle,
    K0Simplex,
    NCorrOracle,
    QCOracle,
    RelExtension,
    bar_F,
    extend_bar_G,
    extend_relative,
    gamma_functor,
    k0_functor,
    k0_matrix,
)
from .modules import (
    CorrIso,
    Correspondence,
    HilbertModule,
    TensorProduct,
    associator,
    compose_isos,
    corr_close,
    direct_sum_modules,
    identity_corr,
    is_full_corr,
    iso_distance,
    left_unitor,
    make_correspondence,
    make_iso,
    make_module,
    right_unitor,
    tensor_corrs,
    tensor_iso,
)
from .nerve import (
    HornSpec,
    NCorrSimplex,
    apply_map,
    assemble_boundary,
    degeneracy,
    face,
    fill_inner_horn,
    fill_special_outer_horn,
    gamma_simplex,
    identity_iso,
    make_simplex,
    pentagon_residual,
    simplex_close,
    structural_hash,
    validate_simplex,
)
from .subdivision import (
    AugChain,
    SdFunctor,
    enumerate_csd,
    module_E_S,
    subdivision_functor,
)

__version__ = "0.1.0"
