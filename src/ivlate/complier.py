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
from scipy.linalg import lapack

from . import linalg
from .errors import NoCompliersError, NonFiniteError, NoOverlapCellError
from .estimators import Dataset, interacted_2sls

# Propensities are clipped into [CLIP, 1 - CLIP] to guard the kappa
# denominators; clip events are counted and surfaced as a warning.
CLIP = 1e-6

# Estimated complier share at or below this floor means the LATE is
# treated as unidentified in the sample at hand.
PC_FLOOR = 0.01

_ETA_BOUND = 30.0

# Whitened IRLS steps lose about 1.1e-16 (max/min diag U)^2 relative accuracy: 1e-8 here.
GRAM_RATIO_MAX = 1e4


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


def fit_propensity(data: Dataset, spec, max_iter: int = 100, tol: float = 1e-8) -> PropensityFit:
    """Estimate the instrument propensity score.

    Parameters
    ----------
    data : Dataset
    spec : {"logistic", "saturated"} or array-like
        "logistic" fits P(Z = 1 | X) by maximum likelihood via IRLS: one
        n-row factor T of X per fit, then steps on k-by-k whitened Grams.
        "saturated" uses within-cell means of Z over distinct covariate
        rows and requires both arms in every cell. An array supplies
        externally computed scores.
    max_iter, tol : IRLS iteration cap and relative deviance tolerance.

    Returns
    -------
    PropensityFit with every score strictly inside [CLIP, 1 - CLIP].
    """
    if isinstance(spec, str):
        if spec == "logistic":
            raw, coef, converged = _irls_logistic(data.z, data.x, max_iter, tol)
        elif spec == "saturated":
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
    n_clipped = int(np.sum(clipped != raw))
    if n_clipped:
        warnings.warn(
            f"{n_clipped} propensity value(s) clipped into [{CLIP}, {1 - CLIP}]",
            RuntimeWarning,
            stacklevel=2,
        )
    if not converged:
        warnings.warn(
            f"logistic propensity fit did not converge within {max_iter} iterations",
            RuntimeWarning,
            stacklevel=2,
        )
    return PropensityFit(ehat=clipped, coefficients=coef, converged=converged, n_clipped=n_clipped)


def expit(x):
    """The logistic function 1 / (1 + exp(-x)); IRLS clips x to +-30, so exp never overflows."""
    return 1.0 / (1.0 + np.exp(-x))


def _irls_logistic(z, x, max_iter, tol):
    beta = np.zeros(x.shape[1])
    eta = np.clip(x @ beta, -_ETA_BOUND, _ETA_BOUND)
    mu = expit(eta)
    dev_prev = np.inf
    converged = False
    whiten = None
    for _ in range(max_iter):
        w = mu * (1.0 - mu)
        working = eta + (z - mu) / w
        if whiten is None or (system := _whitened_system(*whiten, w, working)) is None:
            sw = np.sqrt(w)
            rmat = linalg.triangular_factor(sw[:, None] * x, sw * working)
            system = rmat[:, -1], rmat[:, :-1]
        beta = linalg.least_squares(*system).coef[:, 0]
        if whiten is None:  # all first-step weights are 1/4, so R, rank checked, is X / 2's
            tmat = 2.0 * rmat[: x.shape[1], :-1]
            whiten = lapack.dtrtri(tmat)[0].T @ x.T, tmat
        eta = np.clip(x @ beta, -_ETA_BOUND, _ETA_BOUND)
        mu = expit(eta)
        dev = -2.0 * float(np.sum(z * np.log(mu) + (1.0 - z) * np.log1p(-mu)))
        if np.isfinite(dev_prev) and abs(dev - dev_prev) < tol * (abs(dev_prev) + 1e-300):
            converged = True
            break
        dev_prev = dev
    return mu, beta, converged


def _whitened_system(qt, tmat, w, working):
    """Step on U T, a factor of sqrt(w) X: U'U = Q'WQ, Q = X T^-1 orthonormal (rows of ``qt``),
    so U is conditioned like the weights. None if U does not exist or is ill-conditioned."""
    qtw = qt * w
    chol, info = lapack.dpotrf(qtw @ qt.T)
    if info != 0 or (diag := chol.diagonal()).max() > GRAM_RATIO_MAX * diag.min():
        return None
    return lapack.dtrtrs(chol, qtw @ working, trans=1)[0], chol @ tmat


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
    kappa = kappa_weights(data, prop)
    require_compliers(float(kappa.mean()))
    return (kappa @ data.x[:, list(g_cols)]) / kappa.sum()


def centered_interacted_2sls(
    data: Dataset, prop: PropensityFit, centering: str = "first-stage"
) -> float:
    """Interacted 2SLS on covariates centered at their complier means.

    Shifting the non-constant columns by complier means mu maps x to xG
    with G unit upper-triangular, and the interacted fit is equivariant
    under invertible column transformations, so the leading coefficient
    of the centered fit equals ``beta[0] + mu @ beta[1:]`` of the
    uncentered fit. That value is the LATE estimate and is computed from
    a single uncentered fit. ``centering`` selects the complier-mean
    estimator:

    * "first-stage": method-of-moments weights from the interacted first
      stage, mu_k = sum_i share_i x_ik / sum_i share_i, where
      share = X c1[0] is the fitted instrument-arm gap of D (the first
      stage's response D X_0 is D). The default; its weights are smooth
      functions of the covariates, which keeps the estimate stable when
      some propensities are extreme. Consistent for the LATE under the
      paper's condition (i), E[Z X | X] linear in X (categorical
      covariates or a randomly assigned instrument), where the share's
      limit weights X as the complier share does; not under (ii) alone.
    * "kappa": the kappa-weighted means from ``complier_mean``.
      Consistent, given consistent propensities, under (i) or under
      (ii): the interacted outcome model holds for every compliance type.

    Either way the complier share implied by the kappa weights must clear
    the identification floor. "first-stage" also requires mean(share),
    the complier share its weights divide by, to clear that floor.
    """
    if not data.has_constant:
        raise ValueError("centered_interacted_2sls requires a dataset with a constant column")
    if centering == "kappa":
        mu = complier_mean(data, prop, range(1, data.k))
    else:
        require_compliers(float(kappa_weights(data, prop).mean()))
        if centering != "first-stage":
            raise ValueError(f"unknown centering {centering!r}")
    fit = interacted_2sls(data)
    if centering == "first-stage":
        share = data.x @ fit.c1[0]
        total = share.sum()
        require_compliers(total / data.n)
        mu = (share @ data.x[:, 1:]) / total
    return float(fit.beta[0] + mu @ fit.beta[1:])


def abadie_beta(data: Dataset, prop: PropensityFit) -> np.ndarray:
    """Weighting estimate of the complier projection coefficients.

    Sample analog of {E(X X' | complier)}^-1 P(complier)^-1 E(dkappa X Y),
    with the first factor a kappa-weighted Gram matrix and the complier
    probability estimated by mean(kappa).
    """
    kappa = kappa_weights(data, prop)
    pc_hat = require_compliers(float(kappa.mean()))
    gram = (data.x * kappa[:, None]).T @ data.x / kappa.sum()
    rhs = (data.x * (dkappa_weights(data, prop) * data.y)[:, None]).mean(axis=0) / pc_hat
    # Solving the square system through the pivoted-QR path keeps the
    # rank check consistent with every other fit.
    return linalg.least_squares(rhs, gram).coef[:, 0].copy()
