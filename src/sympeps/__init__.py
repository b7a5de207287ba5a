"""Quantitative symplectic linear algebra.

Measures how far linear maps are from being symplectic, certifies
quantitative non-squeezing and capacity preservation on ellipsoids, computes
symplectic spectra and the plane decomposition of the pullback of omega0 by
a map, applies an exact radial homotopy operator to polynomial differential
forms, and constructs Moser-flow corrections with verified error bounds.
"""

from .exterior import (
    BasisWitness,
    Covector,
    comass,
    comass_basis_witness,
    comass_exact,
    interior,
    norm2,
    pullback,
)
from .moser import (
    FlowConfig,
    SymplectifyReport,
    symplectify,
)
from .polyform import (
    PolyForm,
    alpha,
    d,
    dilate,
    evaluate,
    h,
    h_bound_check,
    homotopy_identity_check,
    iota_radial,
)
from .symplectic import (
    CertificateReport,
    LambdaMuReport,
    SqueezeParams,
    StandardForm,
    WidthCertificates,
    c_rho,
    capacity_preservation_check,
    check_eps_nonexpanding,
    check_eps_nonsqueezing,
    cubic_z0,
    defect,
    defect_decomposition_check,
    lambda_mu_invariants,
    random_eps_symplectic,
    random_symplectic,
    rho,
    rigidity_bound,
    squeezing_params,
    standard_form,
    symplectic_spectrum,
    width_certificates,
)

__version__ = "0.1.0"
