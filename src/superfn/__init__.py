"""Exact symbolic computation on the general linear supergroup.

The package implements, over the exact field Q(i):

- U(gl(m|n)) in a PBW basis, with its Hopf structure and tensor modules,
- the Hopf superalgebra of regular functions spanned by the matrix
  coefficients t_ab, tbar_ab of the natural module and its dual,
- left/right translation actions, supergroup points with Grassmann
  coordinates, and two independent zero-test oracles modulo the defining
  ideal,
- symmetric-group tensor invariants, Levi-block invariant subalgebras,
  and the radial theory of the invariant Laplacian on the unit sphere.
"""

from .grading import Dims, form, is_dominant
from .scalar import Scalar
from .superpoly import DerivationSpec, Poly
from .ugl import (
    DegreeCapError,
    TVec,
    UEl,
    casimir,
    degree_cap,
    invariant_letters,
    laplacian,
    reread_degree_cap,
    z_central,
)
from .cg import (
    CG,
    DimCapError,
    TensorCG,
    Verdict,
    antipode_convolution,
    delta,
    is_zero_mod_j,
    pair,
    pair_word,
    pairing_certificate,
    relations,
    verify_hopf,
)
from .grassmann import (
    GEl,
    GroupPoint,
    SMat,
    eta,
    random_even_invertible,
    random_gauss_point,
    real_sample_points,
    verify_group,
)
from .actions import act, is_invariant, letter_action
from .tensorinv import (
    invariant_subspace,
    rho,
    sergeev_invariant,
    supercommutant_basis,
    verify_fft,
)
from .spherical import (
    LeviProfile,
    c_block,
    c_pair,
    corner_invariant,
    laplacian_apply,
    q_func,
    r_func,
    theta,
    theta_eigenvalue,
    verify_invariance,
    verify_maxrank,
    verify_t51,
    z,
    zbar,
)

__all__ = [
    "Dims", "form", "is_dominant", "Scalar", "DerivationSpec", "Poly",
    "DegreeCapError", "TVec", "UEl", "casimir", "degree_cap",
    "laplacian", "reread_degree_cap", "z_central", "CG", "DimCapError",
    "TensorCG", "Verdict", "antipode_convolution", "delta", "is_zero_mod_j",
    "pair", "pair_word", "pairing_certificate", "relations",
    "verify_hopf", "GEl", "GroupPoint", "SMat", "eta",
    "real_sample_points", "verify_group", "random_even_invertible",
    "random_gauss_point", "act", "invariant_letters", "is_invariant",
    "letter_action", "invariant_subspace", "rho", "sergeev_invariant",
    "supercommutant_basis", "verify_fft",
    "LeviProfile", "c_block", "c_pair", "corner_invariant",
    "laplacian_apply", "q_func", "r_func", "theta", "theta_eigenvalue",
    "verify_invariance", "verify_maxrank", "verify_t51", "z", "zbar",
]

__version__ = "0.1.0"
