"""Factor-width-k cones, their duals, and k-nomial sums-of-squares certificates."""

from .symcore import (
    SymMatrix,
    Support,
    EigenResult,
    PsdReport,
    frobenius_inner,
    principal_submatrix,
    embed,
    eigen_sym,
    is_psd,
    project_psd,
    scale_congruence,
    load_matrix_json,
    matrix_to_json,
)
from .decompose import (
    SolverOptions,
    BlockDecomposition,
    MembershipVerdict,
    enumerate_supports,
    fw_membership,
    extract_factors,
)
from .dualcone import (
    DualCertificate,
    DualMembershipReport,
    ExtremeRayReport,
    CosExtremeRay,
    dual_membership,
    cos_ray,
    cos_certificate_search,
    dykstra_dual_certificate,
    check_extreme_candidate,
    bnr_certificate,
    lift_quaternary_certificate,
)
from .polyforms import (
    MonomialBasis,
    HomogeneousPoly,
    QuadraticForm,
    GramMismatchError,
    monomial_basis,
    gram_to_poly,
    quadratic_gram,
    default_gram,
    multiplier_gram,
    multiply_weighted_power,
    parity_aggregates,
    soks_test,
    load_poly_json,
    poly_to_json,
)
from .families import (
    PnaSpec,
    Fixtures,
    SobsReport,
    pna_form,
    pna_threshold,
    pna_witness_decomposition,
    rank_one_perturb_det,
    sobs_comparison,
    example_m_fixtures,
    qprime_canonical,
)

__version__ = "0.1.0"
