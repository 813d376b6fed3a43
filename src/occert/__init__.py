"""Pointwise certification of curvature-positivity conditions on S^6.

Samples points of the 6-sphere with a chosen metric, computes the
curvature operator from the metric's closed-form 2-jets (by finite
differences on request), and checks the spectral pinching and
star-Ricci positivity conditions, certifying, refuting with an explicit
witness, or reporting unknown.
"""

from .certify import (
    BhlResult,
    Certificate,
    CertifyOptions,
    PerturbationBudget,
    SearchConfig,
    Witness,
    certify_P_sufficient,
    certify_point,
    check_bhl,
    check_lemma_LL,
    perturbation_budget_check,
    refute_P,
)
from .curvature import (
    CurvatureOperator,
    curvature_operator,
    kulkarni_nomizu_square,
    ricci,
    ricci_star,
    validate_symmetries,
)
from .hermitian import (
    ComplexStructure,
    EuclideanSpace,
    canonical_projection_scalar,
    fundamental_two_form,
    hat,
    is_positive_form,
    make_complex_structure,
    random_orthogonal_complex_structure,
    sharp,
)
from .kernels import BACKEND
from .sphere import (
    ACSField,
    ChartPoint,
    FDConfig,
    MetricField,
    christoffel,
    g2_structure,
    nabla_J,
    riemann,
    sample_points,
)

__version__ = "0.1.0"

__all__ = [
    "ACSField",
    "BACKEND",
    "BhlResult",
    "Certificate",
    "CertifyOptions",
    "ChartPoint",
    "ComplexStructure",
    "CurvatureOperator",
    "EuclideanSpace",
    "FDConfig",
    "MetricField",
    "PerturbationBudget",
    "SearchConfig",
    "Witness",
    "__version__",
    "canonical_projection_scalar",
    "certify_P_sufficient",
    "certify_point",
    "check_bhl",
    "check_lemma_LL",
    "christoffel",
    "curvature_operator",
    "fundamental_two_form",
    "g2_structure",
    "hat",
    "is_positive_form",
    "kulkarni_nomizu_square",
    "make_complex_structure",
    "nabla_J",
    "perturbation_budget_check",
    "random_orthogonal_complex_structure",
    "refute_P",
    "ricci",
    "ricci_star",
    "riemann",
    "sample_points",
    "sharp",
    "validate_symmetries",
]
