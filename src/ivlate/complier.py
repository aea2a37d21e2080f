"""Instrument propensity scores, kappa weighting, and complier-centered estimation.

The kappa weights isolate the complier subpopulation using only the
instrument, the treatment, and the estimated instrument propensity
score. Complier covariate means feed the centered interacted 2SLS,
whose leading coefficient targets the local average treatment effect.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import IdentificationError, NoCompliersError, NonFiniteError, NoOverlapCellError
from .estimators import Dataset, _require_constant, interacted_2sls

# Propensities are clipped into [CLIP, 1 - CLIP] to guard the kappa
# denominators; clip events are counted and surfaced as a warning.
CLIP = 1e-6

# Estimated complier share at or below this floor means the LATE is
# treated as unidentified in the sample at hand.
PC_FLOOR = 0.01

_ETA_BOUND = 30.0

# IRLS stops at this many steps, or once the deviance changes by less than IRLS_TOL relative.
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-8


@dataclass(frozen=True)
class PropensityFit:
    """Estimated instrument propensity scores e(X) = P(Z = 1 | X).

    ``coefficients`` holds the logistic coefficients and is None for a
    saturated or supplied score. ``converged`` is False when the
    iterative fit hit its iteration cap; the last iterate is still
    returned so seeded pipelines proceed deterministically.
    """

    ehat: np.ndarray
    coefficients: np.ndarray | None
    converged: bool
    n_clipped: int = 0


def fit_propensity(data: Dataset, spec) -> PropensityFit:
    """Estimate the instrument propensity score.

    Parameters
    ----------
    data : Dataset
    spec : {"logistic", "saturated"} or array-like
        "logistic" fits P(Z = 1 | X) by maximum likelihood via IRLS: up to
        IRLS_MAX_ITER steps on k-by-k Grams whitened by T, the factor of X / 2
        read off the sample's factor, to a relative deviance change below
        IRLS_TOL.
        "saturated" uses within-cell means of Z over distinct covariate
        rows and requires both arms in every cell; it takes no weighted
        sample. An array supplies externally computed scores, one per row.
        A weighted sample's logistic fit weighs every step and the deviance
        by its weights; a resample whitens its steps by its point sample's
        T, and raises the point's error where that T fails its rank check.
        A step that cannot be whitened factors the sqrt(weights)-scaled rows.
        A resample (``Dataset.resample``) starts its IRLS from its point
        sample's coefficients, or raises the point fit's error; any other
        sample starts from zero. Each fit is cached on its sample.

    Returns
    -------
    PropensityFit with every score strictly inside [CLIP, 1 - CLIP].
    """
    if isinstance(spec, str):
        if spec == "logistic":
            raw, coef, converged = _logistic(data)
        elif spec == "saturated":
            if data.weights is not None:
                raise ValueError("the saturated propensity takes no weighted sample")
            raw = _saturated_scores(data.z, data.x)
            coef, converged = None, True
        else:
            raise ValueError(f"unknown propensity spec {spec!r}")
    else:
        raw = np.asarray(spec, dtype=float).reshape(-1)
        if raw.shape != (data.n,):
            raise ValueError("supplied propensity vector has the wrong length")
        if not np.all(np.isfinite(raw)) or raw.min() < 0.0 or raw.max() > 1.0:
            raise ValueError("supplied propensities must be finite and within [0, 1]")
        coef, converged = None, True

    clipped = np.clip(raw, CLIP, 1.0 - CLIP)
    n_clipped = int(np.sum(data.weighted(clipped != raw)))
    if n_clipped:
        warnings.warn(
            f"{n_clipped} propensity value(s) clipped into [{CLIP}, {1 - CLIP}]",
            RuntimeWarning,
            stacklevel=2,
        )
    if not converged:
        warnings.warn(
            f"logistic propensity fit did not converge within {IRLS_MAX_ITER} iterations",
            RuntimeWarning,
            stacklevel=2,
        )
    return PropensityFit(ehat=clipped, coefficients=coef, converged=converged, n_clipped=n_clipped)


def expit(x):
    """The logistic function 1 / (1 + exp(-x)); IRLS clips x to +-30, so exp never overflows."""
    return 1.0 / (1.0 + np.exp(-x))


def _whitening(data: Dataset):
    """(Q', T, T^-1) that whiten the sample's IRLS steps, cached: T is R of sqrt(w) X / 2, the
    factor of the first step from zero (every weight 1/4), half the leading block of the
    sample's factor, and Q = X T^-1. T gets the checks of ``least_squares``, as that step's fit
    would. A resample takes its point sample's at its drawn rows, or raises the point's error."""
    if data.origin is not None:
        point, drawn = data.origin
        qt, tmat, inverse = _whitening(point)
        return qt.take(drawn, axis=1), tmat, inverse
    if "_whitening" not in data.__dict__:
        tmat = 0.5 * data.factor[: data.k, : data.k]
        linalg.triangular_condition(tmat)
        inverse = np.linalg.inv(tmat)
        data.__dict__["_whitening"] = inverse.T @ data.x.T, tmat, inverse
    return data.__dict__["_whitening"]


def _logistic(data: Dataset):
    """(scores, coefficients, converged) of the sample's logistic IRLS, cached: a resample's from
    its point sample's coefficients (see ``_irls_logistic``), any other sample's from zero."""
    if "_logistic" not in data.__dict__:
        start = None if data.origin is None else _logistic(data.origin[0])[1]
        data.__dict__["_logistic"] = _irls_logistic(data.z, data.x, _whitening(data), start, data.weights)
    return data.__dict__["_logistic"]


def _irls_logistic(z, x, whiten, start=None, counts=None):
    """(scores, coefficients, converged) of the IRLS from ``start``, or from zero when
    ``start`` is None or its fit raises an IdentificationError, does not converge or
    reaches the eta clip. A clipped eta marks a (quasi-)separated sample, whose
    likelihood has no maximum, so where its fit stops depends on where it starts.
    ``whiten`` and ``counts`` go to ``_irls_steps``; rows with no count are not in the sample."""
    if start is not None:
        try:
            fit = _irls_steps(z, x, whiten, np.asarray(start, dtype=float), counts)
        except IdentificationError:
            fit = None
        if fit is not None and fit[2]:
            eta = np.abs(x @ fit[1])
            if (eta if counts is None else eta[counts > 0]).max() < _ETA_BOUND:
                return fit
    return _irls_steps(z, x, whiten, np.zeros(x.shape[1]), counts)


def _irls_steps(z, x, whiten, beta, counts=None):
    """IRLS from ``beta``, every step whitened by ``whiten``, the (Q', T, T^-1) of ``_whitening``.

    Each step forms one exponential, ex = exp(-eta) at the clipped eta:
    mu = 1 / (1 + ex), and the deviance is 2 sum log1p(exp((1 - 2z) eta))
    with exp((1 - 2z) eta) = z ex + (1 - z) / ex, one positive term per
    unit. Nothing cancels, so a deviance near zero (a separated sample)
    keeps its relative accuracy in the stop rule.

    With ``counts``, row i enters the weights and deviance counts[i] times.
    A step that ``whiten`` cannot whiten factors the rows scaled by
    sqrt(counts w).
    """
    eta = np.clip(x @ beta, -_ETA_BOUND, _ETA_BOUND)
    ex = np.exp(-eta)
    mu = 1.0 / (1.0 + ex)
    z_comp = 1.0 - z
    dev_prev = np.inf
    converged = False
    for _ in range(IRLS_MAX_ITER):
        w = mu * (1.0 - mu)
        working = eta + (z - mu) / w
        unit_w = w if counts is None else counts * w
        beta = _whitened_step(*whiten, unit_w, working)
        if beta is None:
            sw = np.sqrt(unit_w)
            rmat = linalg.triangular_factor(sw[:, None] * x, sw * working)
            beta = linalg.least_squares(rmat[:, -1], rmat[:, :-1]).coef[:, 0]
        eta = np.clip(x @ beta, -_ETA_BOUND, _ETA_BOUND)
        ex = np.exp(-eta)
        mu = 1.0 / (1.0 + ex)
        terms = np.log1p(z * ex + z_comp / ex)
        dev = 2.0 * float(terms.sum() if counts is None else counts @ terms)
        if np.isfinite(dev_prev) and abs(dev - dev_prev) < IRLS_TOL * (abs(dev_prev) + 1e-300):
            converged = True
            break
        dev_prev = dev
    return mu, beta, converged


def _whitened_step(qt, tmat, inverse, w, working):
    """Coefficients of the step on U T, a factor of sqrt(w) X: U'U = Q'WQ with Q = X T^-1 (rows
    of ``qt``) and Q'W0Q = I at the first step's weights W0, so U is conditioned like W / W0.
    U T is its own R: the step checks it as ``least_squares`` would and solves without a QR.
    None if U does not exist or is ill-conditioned."""
    qtw = qt * w
    gram = qtw @ qt.T
    chol = linalg.bounded_cholesky(gram)
    if chol is None:
        return None
    linalg.triangular_condition(chol @ tmat)
    return inverse @ np.linalg.solve(gram, qtw @ working)


def _saturated_scores(z, x):
    # A NaN row would otherwise form its own one-unit cell and fail as an
    # identification error.
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise NonFiniteError("covariates or instrument contain non-finite entries")
    _, inverse = np.unique(x, axis=0, return_inverse=True)
    ehat = np.empty_like(z)
    for cell in range(inverse.max() + 1):
        mask = inverse == cell
        zc = z[mask]
        if zc.min() == zc.max():
            raise NoOverlapCellError(
                f"covariate cell {cell} contains a single instrument arm ({int(mask.sum())} units)"
            )
        ehat[mask] = zc.mean()
    return ehat


def kappa_weights(data: Dataset, prop: PropensityFit) -> np.ndarray:
    """Entrywise kappa weights, 1 - D (1 - Z) / (1 - e) - (1 - D) Z / e, at the estimated e."""
    e = prop.ehat
    return 1.0 - data.d * (1.0 - data.z) / (1.0 - e) - (1.0 - data.d) * data.z / e


def dkappa_weights(data: Dataset, prop: PropensityFit) -> np.ndarray:
    """Entrywise instrument-residual weights, (Z - e) / (e (1 - e)), at the estimated e."""
    e = prop.ehat
    return (data.z - e) / (e * (1.0 - e))


def require_compliers(pc_hat: float) -> float:
    """Return the estimated complier share ``pc_hat``; NoCompliersError unless it exceeds PC_FLOOR."""
    if pc_hat <= PC_FLOOR:
        raise NoCompliersError(f"estimated complier share {pc_hat:.4f} <= {PC_FLOOR}")
    return pc_hat


def complier_mean(data: Dataset, prop: PropensityFit, g_cols) -> np.ndarray:
    """Kappa-weighted means of the selected covariate columns among compliers, one per column.

    Raises NoCompliersError when mean(kappa), the estimated complier
    share, does not exceed PC_FLOOR.
    """
    kappa = _complier_kappa(data, prop)
    return (kappa @ data.x[:, list(g_cols)]) / kappa.sum()


def _complier_kappa(data: Dataset, prop: PropensityFit) -> np.ndarray:
    """The sample's kappa weights times its counts; NoCompliersError unless their mean, the
    estimated complier share, exceeds PC_FLOOR."""
    kappa = data.weighted(kappa_weights(data, prop))
    require_compliers(float(kappa.sum()) / data.size)
    return kappa


def centered_interacted_2sls(
    data: Dataset, prop: PropensityFit, centering: str = "first-stage"
) -> float:
    """Interacted 2SLS on covariates centered at their complier means.

    Shifting the non-constant columns by complier means mu maps x to xG
    with G unit upper-triangular, and the interacted fit is equivariant
    under invertible column transformations, so the leading coefficient
    of the centered fit equals ``beta[0] + mu @ beta[1:]`` of the
    uncentered fit. That value is the LATE estimate and is computed from
    a single uncentered fit. ``centering`` selects the weights of the
    complier means mu_k = sum_i w_i x_ik / sum_i w_i:

    * "first-stage": method-of-moments weights from the interacted first
      stage, w = share = X c1[0], the fitted instrument-arm gap of D (the
      first stage's response D X_0 is D). The default; its weights are smooth
      functions of the covariates, which keeps the estimate stable when
      some propensities are extreme. Consistent for the LATE under the
      paper's condition (i), E[Z X | X] linear in X (categorical
      covariates or a randomly assigned instrument), where the share's
      limit weights X as the complier share does; not under (ii) alone.
    * "kappa": the kappa weights, as in ``complier_mean``.
      Consistent, given consistent propensities, under (i) or under
      (ii): the interacted outcome model holds for every compliance type.

    Either way the complier share implied by the kappa weights must clear
    the identification floor, checked before the centering's name; then
    mean(w), the complier share the weights divide by, must clear it too.
    """
    _require_constant(data, "centered_interacted_2sls")
    kappa = _complier_kappa(data, prop)
    if centering not in ("first-stage", "kappa"):
        raise ValueError(f"unknown centering {centering!r}")
    fit = interacted_2sls(data)
    weights = kappa if centering == "kappa" else data.weighted(data.x @ fit.c1[0])
    total = weights.sum()
    require_compliers(total / data.size)
    mu = (weights @ data.x[:, 1:]) / total
    return float(fit.beta[0] + mu @ fit.beta[1:])


def abadie_beta(data: Dataset, prop: PropensityFit) -> np.ndarray:
    """Weighting estimate of the complier projection coefficients.

    Sample analog of {E(X X' | complier)}^-1 P(complier)^-1 E(dkappa X Y),
    with the first factor a kappa-weighted Gram matrix and the complier
    probability estimated by mean(kappa).
    """
    kappa = _complier_kappa(data, prop)
    pc_hat = float(kappa.sum()) / data.size
    gram = (data.x * kappa[:, None]).T @ data.x / kappa.sum()
    moments = data.weighted(data.x * (dkappa_weights(data, prop) * data.y)[:, None])
    rhs = moments.sum(axis=0) / data.size / pc_hat
    # Solving the square system through least_squares keeps the rank
    # check consistent with every other fit.
    return linalg.least_squares(rhs, gram).coef[:, 0].copy()
