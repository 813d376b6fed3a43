"""Pointwise certification of curvature-positivity conditions on S^6.

Samples points of the 6-sphere with a chosen metric, computes the
curvature operator from the metric's closed-form 2-jets (by Richardson
finite differences on request), and checks the spectral pinching and
star-Ricci positivity conditions, certifying, refuting with an explicit
witness, or reporting unknown.
Every name in ``__all__`` is exported lazily (PEP 562): it loads its
submodule on first access, so ``import occert.cli`` loads only what the
command line runs, never :mod:`occert.structures` or :mod:`occert.budget`.
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule that defines each lazy export
_HOMES = {
    "budget": "PerturbationBudget perturbation_budget_check",
    "certify": "BhlResult Certificate CertifyOptions SearchConfig Witness certify_P_sufficient"
               " certify_point check_bhl check_lemma_LL refute_P",
    "curvature": "CurvatureOperator curvature_operator kulkarni_nomizu_square ricci ricci_star"
                 " validate_symmetries",
    "hermitian": "ComplexStructure fundamental_two_form is_positive_form"
                 " random_orthogonal_complex_structure",
    "kernels": "BACKEND",
    "sphere": "ChartPoint FDConfig MetricField riemann sample_points",
    "structures": "ACSField canonical_projection_scalar christoffel g2_structure"
                  " hat make_complex_structure nabla_J sharp",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value                 # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
