"""Decision layer: spectral pinching, positivity-class certification and
refutation, and the nondegeneracy lemma for perturbed (1,1)-forms (a
library lemma, not a check: pinching already implies its hypotheses).
The perturbation budget is in :mod:`occert.budget`.

Certification is three-valued.  The sufficient bound proves membership,
the frame search can only disprove it, and everything else is reported
as unknown; a failed search is never upgraded to a certificate.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import kernels
from .curvature import (
    as_curvature_tensor,
    curvature_operator,
    frobenius_norm,
    kulkarni_nomizu_square,
    ricci_star,
)
from .errors import InputError
from .hermitian import (
    TOL_CLASSIFY,
    fundamental_two_form,
    is_positive_form,
    norm_lambda2,
    random_orthogonal_complex_structure,
)
from .rng import check_nonnegative_integer, make_rng
from .sphere import CheckedRecord

P_THRESHOLD = 1.0 / 6.0          # sufficient sup-norm bound for dim 6
TIE_TOL = 1e-12                  # strict inequalities: ties reported as fail
LL_RADIUS = 0.5 / math.sqrt(3.0)  # nondegeneracy radius 1/(2 sqrt(n)), n = 3

# descent of one refutation start (engineering defaults)
MAX_ITER = 80                    # gradient steps per start
GRAD_TOL = 1e-10                 # a start stops once the gradient norm is below this
STEP0 = 0.2                      # first line-search step of a start
HUGE = 1e100                     # max |R| above which the search runs on a scaled R

# the round tensor g (.) g that the sufficient bound measures from, built
# once; read-only, since every call shares it
_ROUND = kulkarni_nomizu_square()
_ROUND.flags.writeable = False


# Records are namedtuples: immutable, and cheap to create at import.
# margin = 7 lambda_min - 5 lambda_max; boundary: a tie within TIE_TOL
# decided the outcome
BhlResult = namedtuple("BhlResult", "passed lambda_min lambda_max margin boundary")
# refuting pair: orthogonal complex structure J, unit direction X, Ric*(X, X)
Witness = namedtuple("Witness", "J X value")
# status 'certified' | 'refuted' | 'unknown'; witness None unless refuted
PMembership = namedtuple("PMembership", "status sup_lower sup_upper threshold witness",
                         defaults=(None,))
# deviation = |zeta - zeta0| in the 2-form norm
LemmaLLResult = namedtuple("LemmaLLResult", "hypotheses_met nondegenerate det_value deviation")
RefutationResult = namedtuple("RefutationResult", "witness best_value")
# per-point verdict record; a field is None when its check did not run
Certificate = namedtuple("Certificate", "bhl p_membership spectrum verdict_notes")


class SearchConfig(CheckedRecord,
                   namedtuple("SearchConfig", "multistarts tol seed", defaults=(64, 1e-9, 0))):
    """The refutation search (engineering defaults): multistarts >= 0 starts
    drawn from seed >= 0, both integers; tol, 0 < tol < inf, is the
    witness threshold."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_nonnegative_integer("multistarts", self.multistarts)
        check_nonnegative_integer("seed", self.seed)
        try:
            finite = 0 < self.tol < math.inf     # false for nan
        except TypeError:                        # tol is not a number
            finite = False
        if not finite:
            raise InputError("tol must be positive and finite")
        return self


def check_bhl(spectrum) -> BhlResult:
    """Strict spectral pinching: lambda_min > 0 and 5 lambda_max < 7 lambda_min.

    Scale-invariant, ties included: the tie tolerance is relative to
    the largest eigenvalue modulus, so no normalization is needed.
    InputError unless the spectrum is 15 finite numbers.
    """
    spec = np.sort(np.asarray(spectrum, dtype=float))
    if spec.shape != (15,):
        raise InputError("spectrum must have length 15")
    lmin, lmax = float(spec[0]), float(spec[-1])     # np.sort puts nan last
    if not (math.isfinite(lmin) and math.isfinite(lmax)):
        raise InputError("spectrum must be finite")
    margin = 7.0 * lmin - 5.0 * lmax
    tie = TIE_TOL * max(abs(lmin), abs(lmax))
    boundary = abs(margin) <= tie or abs(lmin) <= tie
    passed = (lmin > tie) and (margin > tie)
    return BhlResult(passed=passed, lambda_min=lmin, lambda_max=lmax,
                     margin=margin, boundary=boundary)


def certify_P_sufficient(R: np.ndarray) -> PMembership:
    """Sufficient criterion: deviation from the constant-curvature tensor
    bounded by 1/6 in sup norm implies the positivity class.

    The upper bound is the Frobenius norm of the deviation (rigorous for
    the sup norm), taken of the deviation divided by the lower bound where
    the plain sum of squares overflows; the lower bound is its largest
    component.  InputError unless R is a finite (6, 6, 6, 6) array.
    """
    dev = as_curvature_tensor(R) - _ROUND
    lower = float(np.max(np.abs(dev)))
    if not lower < math.inf:                     # also rejects nan
        raise InputError("curvature tensor must be finite")
    if lower < 1e150:                            # 1296 squares below 1e300 stay finite
        upper = frobenius_norm(dev)
    else:
        with np.errstate(over="ignore"):
            upper = frobenius_norm(dev)
        if upper == math.inf:                    # finite entries above about 1e153
            upper = lower * frobenius_norm(dev / lower)
    status = "certified" if upper <= P_THRESHOLD else "unknown"
    return PMembership(status=status, sup_lower=lower, sup_upper=upper,
                       threshold=P_THRESHOLD)


_EYE6 = np.eye(6)
_THETA = math.sqrt(0.5)


def _geodesic(D: np.ndarray, D2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(t_s D_s) for unit tangents D (S, 6, 6) of the twistor fibre
    SO(6)/U(3) = CP^3 (skew, anticommuting with J, |D|_F^2 = 2), D2 = D @ D.
    CP^3 has rank one, so D^3 = -theta^2 D with theta^2 = |D|_F^2 / 4."""
    a = np.sin(_THETA * t) / _THETA
    b = 2.0 * (np.sin(0.5 * _THETA * t) / _THETA) ** 2
    return _EYE6 + a[:, None, None] * D + b[:, None, None] * D2


def _descend(R: np.ndarray, Js: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descend every start of the (S, 6, 6) stack; final values, their
    unit eigenvectors (S, 6, 1) and Js.

    Each start keeps its own step and stops on its own: at MAX_ITER, at a
    gradient norm below GRAD_TOL, or when its step falls to 1e-12 without
    an improving trial; |g| = |G|_F / sqrt 2 is the gradient norm.  A
    trial moves J to E J E^T along the geodesic E = exp(step D) of the
    unit direction D = -G / |g| (``_geodesic``).  Per start, it is
    accepted when it lowers the value (step x 1.5) and rejected otherwise
    (step x 0.5).  Every valuation (the starts, each round of trials) is
    one stacked ``kernels.refute_value``; each gradient and the result
    take the eigenpair their start's J was last valued with.
    """
    Rp = kernels._by_pair(R)
    Js = np.array(Js, dtype=float)
    step = np.full(len(Js), STEP0)
    low_val, low_vec = kernels.refute_value(Rp, Js)  # each start's lambda_min pair
    active = np.arange(len(Js))
    for _ in range(MAX_ITER):
        if not active.size:
            break
        val, G = kernels.refute_value_and_grad(
            Rp, Js[active], (low_val[active], low_vec[active]))
        gnorm = np.sqrt(0.5 * (G.reshape(-1, 1, 36) @ G.reshape(-1, 36, 1))[:, 0, 0])
        moving = gnorm >= GRAD_TOL
        active, val = active[moving], val[moving]
        D = -G[moving] / gnorm[moving, None, None]
        D2 = D @ D
        # line search in rounds: each round tries every pending start once
        pending = np.flatnonzero(step[active] > 1e-12)
        moved = np.zeros(len(active), dtype=bool)
        while pending.size:
            starts = active[pending]
            E = _geodesic(D[pending], D2[pending], step[starts])
            # E J E^T, not E^2 J, which would let J's rounding error grow
            J_try = E @ Js[starts] @ E.transpose(0, 2, 1)
            trial, vec = kernels.refute_value(Rp, J_try)
            accept = trial < val[pending]
            kept = starts[accept]
            Js[kept] = J_try[accept]
            low_val[kept] = trial[accept]
            low_vec[kept] = vec[accept]
            step[starts] *= np.where(accept, 1.5, 0.5)
            moved[pending[accept]] = True
            pending = pending[~accept & (step[starts] > 1e-12)]
        active = active[moved]
    return low_val, low_vec, Js


def _witness_direction(J: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unit projection onto the plane span(x, Jx) of the first e_k whose
    projection is longest: it depends on the plane, not on x within it."""
    y = J @ x
    k = int(np.argmax(x * x + y * y))
    return (x[k] * x + y[k] * y) / math.sqrt(x[k] ** 2 + y[k] ** 2)


def refute_P(R: np.ndarray, config: SearchConfig | None = None) -> RefutationResult:
    """Multistart minimization of the smallest eigenvalue of the
    symmetrized star-Ricci form over orthogonal complex structures.

    All starts descend together as one stack.  Returns a witness when a
    value below -tol is found: the winner's J and, as X, a unit vector of
    its lambda_min plane (``_witness_direction``).  ``none found`` is NOT
    a membership proof.  Starts are orientation-compatible; above max
    |R| = HUGE they descend on R scaled by a power of two.  InputError
    unless R is a finite (6, 6, 6, 6) array and config None or a SearchConfig.
    """
    cfg = SearchConfig() if config is None else config
    if not isinstance(cfg, SearchConfig):
        raise InputError("config must be a SearchConfig")
    R = as_curvature_tensor(R)
    peak = float(np.max(np.abs(R)))
    if not peak < math.inf:                      # also rejects nan
        raise InputError("curvature tensor must be finite")
    starts = [random_orthogonal_complex_structure(make_rng(cfg.seed, 211, start)).J
              for start in range(cfg.multistarts)]
    best_val, witness = np.inf, None
    if starts:
        # the objective is linear in R: a huge R descends scaled by a power
        # of two, exactly, so that its gradient norm cannot overflow
        scale = 2.0 ** -math.frexp(peak)[1] if peak > HUGE else 1.0
        vals, vecs, Js = _descend(R * scale, starts)
        vals = vals / scale
        # the lowest start within TIE_TOL max(1, |best|) of the minimum, so
        # that last-bit ties do not trade places; a witness candidate must
        # itself be below -tol, and a NaN is never picked
        vals = np.where(np.isnan(vals), np.inf, vals)
        best_val = vals.min()
        tied = vals <= best_val + TIE_TOL * max(1.0, abs(best_val))
        if best_val < -cfg.tol:
            s = int(np.argmax(tied & (vals < -cfg.tol)))
            X = _witness_direction(Js[s], vecs[s, :, 0])
            witness = Witness(J=Js[s], X=X, value=float(X @ ricci_star(R, Js[s]) @ X))
    return RefutationResult(witness=witness, best_value=float(best_val))


def check_lemma_LL(zeta0: np.ndarray, zeta: np.ndarray, J: np.ndarray) -> LemmaLLResult:
    """Nondegeneracy of a (1,1)-form within 1/(2 sqrt(n)) of a form >= omega.

    ``hypotheses_met`` requires: both forms of type (1,1), zeta0 - omega
    nonnegative, and |zeta - zeta0| <= 1/(2 sqrt(n)) in the 2-form norm
    (without the radius condition the conclusion would be unsound).
    """
    zeta0 = np.asarray(zeta0, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    J = np.asarray(J, dtype=float)
    omega = fundamental_two_form(J)
    dev = norm_lambda2(zeta - zeta0)
    typed = (is_positive_form(zeta0, J) != "not_11"
             and is_positive_form(zeta, J) != "not_11")
    above = is_positive_form(zeta0 - omega, J) in ("positive", "nonnegative")
    hypotheses = typed and above and dev <= LL_RADIUS + TIE_TOL
    det_value = float(np.linalg.det(zeta))
    nondegenerate = abs(det_value) > TOL_CLASSIFY ** zeta.shape[0]
    return LemmaLLResult(hypotheses_met=bool(hypotheses),
                         nondegenerate=bool(nondegenerate),
                         det_value=det_value, deviation=float(dev))


VALID_CHECKS = ("bhl", "p_sufficient", "p_refute")


class CertifyOptions(CheckedRecord,
                     namedtuple("CertifyOptions", "checks search",
                                defaults=(("bhl", "p_sufficient"), SearchConfig()))):
    """The checks to run, at least one and each in VALID_CHECKS, and the
    search p_refute runs, a SearchConfig."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if isinstance(self.checks, str):         # would be read one letter at a time
            raise InputError("checks must be a sequence of check names")
        if not self.checks:
            raise InputError("checks must name at least one check")
        unknown = set(self.checks) - set(VALID_CHECKS)
        if unknown:
            raise InputError("unknown checks: %s" % ", ".join(sorted(unknown)))
        if not isinstance(self.search, SearchConfig):
            raise InputError("search must be a SearchConfig")
        return self


def certify_point(R: np.ndarray, options: CertifyOptions | None = None) -> Certificate:
    """Run the requested checks on one algebraic curvature tensor, given
    in a g-orthonormal basis; options None or a CertifyOptions."""
    opts = CertifyOptions() if options is None else options
    if not isinstance(opts, CertifyOptions):
        raise InputError("options must be a CertifyOptions")
    op = curvature_operator(R)
    notes = []
    bhl = None
    if "bhl" in opts.checks:
        bhl = check_bhl(op.spectrum)
        notes.append("bhl %s (margin %.3e)" % ("pass" if bhl.passed else "fail", bhl.margin))

    membership = None
    if "p_sufficient" in opts.checks or "p_refute" in opts.checks:
        membership = certify_P_sufficient(R)
        if membership.status != "certified" and "p_refute" in opts.checks:
            result = refute_P(R, opts.search)
            if result.witness is not None:
                membership = membership._replace(status="refuted",
                                                 witness=result.witness)
                notes.append("P refuted: Ric*(X,X) = %.6e" % result.witness.value)
            else:
                notes.append("P search found no witness (best %.6e); status stays unknown"
                             % result.best_value)
        notes.append("P %s (upper %.6e vs %.6e)"
                     % (membership.status, membership.sup_upper, membership.threshold))

    return Certificate(bhl=bhl, p_membership=membership, spectrum=op.spectrum,
                       verdict_notes="; ".join(notes))
