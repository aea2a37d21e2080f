"""Instrument propensity scores, kappa weighting, and complier-centered estimation.

The kappa weights isolate the complier subpopulation using only the
instrument, the treatment, and the estimated instrument propensity
score. Complier covariate means feed the centered interacted 2SLS,
whose leading coefficient targets the local average treatment effect.

The logistic fit and the centered estimate are kernels on an
``estimators.Batch``: one IRLS runs every sample of a batch together,
whitened by stacked factors. Each sample starts from zero, or a
resample from its point sample's coefficients, and stops at its own
convergence; a resample's fit that fails, does not converge or reaches
the eta clip reruns from zero. The kappa weights and complier means are
array operations. A kernel returns one value per sample or raises;
``estimators.each`` gives each sample of a batch that raised its own
outcome. ``fit_propensity(..., "logistic")`` and
``centered_interacted_2sls`` are the kernels on a batch of one, with no
route of their own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import IdentificationError, NoCompliersError, NonFiniteError, NoOverlapCellError
from .estimators import Batch, Dataset, _require_constant, alone, each, stack, values

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
            fit = values(logistic_fits(Batch([data])))[0]
            warn_fit(fit)
            return fit
        if spec != "saturated":
            raise ValueError(f"unknown propensity spec {spec!r}")
        if data.weights is not None:
            raise ValueError("the saturated propensity takes no weighted sample")
        raw = _saturated_scores(data.z, data.x)
    else:
        raw = np.asarray(spec, dtype=float).reshape(-1)
        if raw.shape != (data.n,):
            raise ValueError("supplied propensity vector has the wrong length")
        if not np.all(np.isfinite(raw)) or raw.min() < 0.0 or raw.max() > 1.0:
            raise ValueError("supplied propensities must be finite and within [0, 1]")
    fit = _clipped(Batch([data]), raw[None], [None], [True])[0]
    warn_fit(fit)
    return fit


def warn_fit(fit: PropensityFit) -> None:
    """The RuntimeWarnings of a fit: its clipped scores, and an iteration cap it reached."""
    if fit.n_clipped:
        warnings.warn(
            f"{fit.n_clipped} propensity value(s) clipped into [{CLIP}, {1 - CLIP}]",
            RuntimeWarning,
            stacklevel=3,
        )
    if not fit.converged:
        warnings.warn(
            f"logistic propensity fit did not converge within {IRLS_MAX_ITER} iterations",
            RuntimeWarning,
            stacklevel=3,
        )


def _clipped(batch: Batch, raw: np.ndarray, coefficients, converged) -> list[PropensityFit]:
    """Fits with the stacked scores ``raw`` clipped into [CLIP, 1 - CLIP], counting clipped units."""
    clipped = np.clip(raw, CLIP, 1.0 - CLIP)
    n_clipped = batch.weighted(clipped != raw).sum(axis=-1)
    return [PropensityFit(e, coef, bool(conv), int(count))
            for e, coef, conv, count in zip(clipped, coefficients, converged, n_clipped)]


def logistic_fits(batch: Batch) -> list:
    """Each sample's logistic ``fit_propensity``, without its warnings (see ``warn_fit``), or
    the error it raised; a fit or IdentificationError is cached on its sample."""
    pending = [i for i, sample in enumerate(batch.samples) if "_logistic" not in sample.__dict__]
    fits = dict(zip(pending, each(_fit_logistic, batch.take(pending)))) if pending else {}
    for i, fit in fits.items():
        if not isinstance(fit, Exception) or isinstance(fit, IdentificationError):
            batch.samples[i].__dict__["_logistic"] = fit
    return [fits[i] if i in fits else sample.__dict__["_logistic"] for i, sample in enumerate(batch.samples)]


def _fit_logistic(batch: Batch) -> list:
    """The logistic fits of a batch, by one stacked IRLS (``_irls_batch``). A resample starts
    from its point sample's coefficients, or raises the point fit's error; any other sample
    starts from zero. Raises where a sample's T fails its rank check (``_whitenings``)."""
    points = values([None if sample.origin is None else logistic_fits(Batch([sample.origin[0]]))[0]
                     for sample in batch.samples])
    starts = [None if point is None else point.coefficients for point in points]
    return _clipped(batch, *_irls_batch(batch.z, batch.x, _whitenings(batch), starts, batch.weights))


def expit(x):
    """The logistic function 1 / (1 + exp(-x)); IRLS clips x to +-30, so exp never overflows."""
    return 1.0 / (1.0 + np.exp(-x))


def _whitenings(batch: Batch):
    """Stacked (Q', T, T^-1) that whiten each sample's IRLS steps. T is R of sqrt(w) X / 2, the
    factor of the first step from zero (every weight 1/4), half the leading block of the
    sample's factor, and Q = X T^-1. T gets the checks of ``least_squares``, as that step's fit
    would, and raises its RankDeficientError. A sample alone caches its own; a resample (alone
    in its batch) takes its point sample's, at its drawn rows."""
    data = batch.samples[0]
    if len(batch) == 1 and "_whitening" in data.__dict__:
        return data.__dict__["_whitening"]
    if len(batch) == 1 and data.origin is not None:
        point, drawn = data.origin
        qt, tmat, inverse = _whitenings(Batch([point]))
        return qt.take(drawn, axis=-1), tmat, inverse
    tmat = 0.5 * batch.factor[:, : batch.k, : batch.k]
    linalg.check_rank(tmat)
    inverse = np.linalg.inv(tmat)
    whiten = np.swapaxes(inverse, -1, -2) @ np.swapaxes(batch.x, -1, -2), tmat, inverse
    if len(batch) == 1:
        data.__dict__["_whitening"] = whiten
    return whiten


def _irls_batch(z, x, whiten, starts, counts=None):
    """IRLS of samples stacked on a leading axis, each from its entry of ``starts`` (None: from
    zero), its steps whitened by its (Q', T, T^-1) in ``whiten``. Returns the stacked scores
    and coefficients and whether each converged; raises a step's IdentificationError.

    A sample with a start reruns from zero where ``_reruns`` says so. A sample alone whose run
    from a start raises reruns from zero too, unless X has an all-zero column (a dummy for a
    cell a resample did not draw), which fails from every start; a stack that raises is run
    sample by sample by ``estimators.each``. Only resamples, whose rows all have counts, start
    elsewhere than zero.
    """
    beta = np.array([np.zeros(x.shape[-1]) if start is None else start for start in starts], dtype=float)
    try:
        mu, beta, converged = _irls_loop(z, x, whiten, beta, counts)
    except IdentificationError:
        if len(starts) > 1 or starts[0] is None or not x[0].any(axis=0).all():
            raise
        return _irls_batch(z, x, whiten, [None], counts)
    rerun = [i for i, start in enumerate(starts) if start is not None and _reruns(x[i], beta[i], converged[i])]
    if rerun:
        again = _irls_batch(z[rerun], x[rerun], tuple(a[rerun] for a in whiten), [None] * len(rerun),
                            None if counts is None else counts[rerun])
        for j, i in enumerate(rerun):
            mu[i], beta[i], converged[i] = (part[j] for part in again)
    return mu, beta, converged


def _irls_loop(z, x, whiten, beta, counts):
    """The steps of ``_irls_batch`` from the stacked coefficients ``beta``; a sample's outputs
    are taken at its own convergence, and from then on it steps from zero until the batch ends.

    Each step forms one exponential, ex = exp(-eta) at the clipped eta:
    mu = 1 / (1 + ex), and the deviance is 2 sum log1p(exp((1 - 2z) eta))
    with exp((1 - 2z) eta) = z ex + (1 - z) / ex, one positive term per
    unit. Nothing cancels, so a deviance near zero (a separated sample)
    keeps its relative accuracy in the stop rule.

    With ``counts``, row i enters the weights and deviance counts[i] times.
    A step that its whitening cannot whiten factors the sample's rows scaled
    by sqrt(counts w).
    """
    mu_out, beta_out, converged = np.empty(z.shape), np.empty(beta.shape), [False] * len(z)
    active = [True] * len(z)
    qt, tmat, inverse = whiten
    eta, ex, mu = _link(x, beta)
    dev_prev = [math.inf] * len(z)
    for _ in range(IRLS_MAX_ITER):
        w = mu * (1.0 - mu)
        working = z - mu  # eta + (z - mu) / w, in place
        working /= w
        working += eta
        del eta, mu  # the step gives new ones
        unit_w = w if counts is None else counts * w
        beta, unwhitened = _whitened_step(qt, tmat, inverse, unit_w, working)
        for i in unwhitened:
            if active[i]:
                sw = np.sqrt(unit_w[i])
                rmat = linalg.triangular_factor(sw[:, None] * x[i], sw * working[i])
                beta[i] = linalg.least_squares(rmat[:, -1], rmat[:, :-1]).coef[:, 0]
        del w, working, unit_w
        for i, on in enumerate(active):
            if not on:
                beta[i] = 0.0  # a finished row's step is unused, and may be NaN
        eta, ex, mu = _link(x, beta)
        terms = z * ex  # log1p(z ex + (1 - z) / ex), in place
        terms += np.divide(1.0 - z, ex, out=ex)
        np.log1p(terms, out=terms)
        dev = terms.sum(axis=-1) if counts is None else (counts[:, None, :] @ terms[..., None])[:, 0, 0]
        dev = (2.0 * dev).tolist()
        del ex, terms
        for i, (now, prev) in enumerate(zip(dev, dev_prev)):
            if active[i] and math.isfinite(prev) and abs(now - prev) < IRLS_TOL * (abs(prev) + 1e-300):
                mu_out[i], beta_out[i], converged[i], active[i] = mu[i], beta[i], True, False
        if not any(active):
            break
        dev_prev = dev
    else:
        rest = [i for i, on in enumerate(active) if on]
        mu_out[rest], beta_out[rest] = mu[rest], beta[rest]
    return mu_out, beta_out, converged


def _reruns(x, beta, converged: bool) -> bool:
    """Whether a fit that did not start from zero reruns from zero: where it did not converge
    or reached the eta clip. A clipped eta marks a (quasi-)separated sample, whose likelihood
    has no maximum, so where its fit stops depends on where it starts."""
    return not converged or np.abs(x @ beta).max() >= _ETA_BOUND


def _link(x: np.ndarray, beta: np.ndarray):
    """(eta, exp(-eta), mu) of each stacked sample at ``beta``, eta clipped to +-_ETA_BOUND."""
    eta = _matvec(x, beta)
    np.maximum(eta, -_ETA_BOUND, out=eta)  # np.clip, in place
    np.minimum(eta, _ETA_BOUND, out=eta)
    ex = np.exp(-eta)
    mu = ex + 1.0  # 1 / (1 + ex), in place
    np.divide(1.0, mu, out=mu)
    return eta, ex, mu


def _matvec(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """x @ beta for each stacked (n, k) x and k-vector beta."""
    return (x @ beta[..., None])[..., 0]


def _whitened_step(qt, tmat, inverse, w, working):
    """Coefficients of each stacked sample's step on U T, a factor of sqrt(w) X: U'U = Q'WQ
    with Q = X T^-1 (rows of ``qt``) and Q'W0Q = I at the first step's weights W0, so U is
    conditioned like W / W0. U T is its own R: the step checks it as ``least_squares`` would,
    raising where one has a dependent column, and solves without a QR. Returns the stacked
    coefficients and the samples whose U does not exist or is ill-conditioned (their
    coefficients are then NaN)."""
    qtw = qt * w[:, None, :]
    gram = qtw @ qt.swapaxes(-1, -2)
    chol, bounded = linalg.bounded_choleskys(gram)
    linalg.check_rank((chol @ tmat)[bounded])
    beta = inverse @ linalg.solve_where(bounded, gram, qtw @ working[..., None])
    return beta[..., 0], [i for i, ok in enumerate(bounded) if not ok]


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
    return _kappa(data.d, data.z, prop.ehat)


def _kappa(d, z, e):
    return 1.0 - d * (1.0 - z) / (1.0 - e) - (1.0 - d) * z / e


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
    batch = Batch([data])
    kappa = _complier_kappa(batch, [prop])
    return _weighted_means(kappa, batch, list(g_cols), kappa.sum(axis=-1))[0]


def _complier_kappa(batch: Batch, props) -> np.ndarray:
    """Each sample's kappa weights at its propensity fit in ``props``, times its counts. Raises
    the first error in ``props``, then the NoCompliersError of the first sample whose mean
    kappa, its estimated complier share, does not exceed PC_FLOOR."""
    kappa = batch.weighted(_kappa(batch.d, batch.z, stack([prop.ehat for prop in values(props)])))
    for share in (kappa.sum(axis=-1) / batch.size).tolist():
        require_compliers(share)
    return kappa


def _weighted_means(weights: np.ndarray, batch: Batch, cols, total: np.ndarray) -> np.ndarray:
    """Each sample's w'x_j / total for its (n,) weights w and the columns ``cols`` of its x, each
    column taken of x_j / s_j and multiplied by s_j for its frame s_j (``Batch.scales``)."""
    scale = batch.scales[:, 1:]
    # x diag(1 / s) divides exactly, faster than a broadcast division; sliced after, w'x keeps x's layout.
    frame = (batch.x @ (np.eye(batch.k) / scale[:, None, :]))[..., cols]
    return (weights[:, None, :] @ frame)[:, 0] / total[:, None] * scale[:, cols]


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
    return alone(_centered, data, [prop], centering)


def _centered(batch: Batch, props, centering: str = "first-stage") -> list:
    """Each sample's ``centered_interacted_2sls`` at its propensity fit in ``props``. Raises, in
    this order, the first error in ``props``, then the checks of ``centered_interacted_2sls``."""
    _require_constant(batch, "centered_interacted_2sls")
    kappa = _complier_kappa(batch, props)
    if centering not in ("first-stage", "kappa"):
        raise ValueError(f"unknown centering {centering!r}")
    fits = values(batch.interacted)
    if centering == "kappa":
        weights = kappa
    else:
        weights = batch.weighted(_matvec(batch.x, stack([fit.c1[0] for fit in fits])))
    total = weights.sum(axis=-1)
    for share in (total / batch.size).tolist():
        require_compliers(share)
    beta, mu = stack([fit.beta for fit in fits]), _weighted_means(weights, batch, slice(1, None), total)
    return (beta[:, 0] + (mu[:, None, :] @ beta[:, 1:, None])[:, 0, 0]).tolist()


def abadie_beta(data: Dataset, prop: PropensityFit) -> np.ndarray:
    """Weighting estimate of the complier projection coefficients.

    Sample analog of {E(X X' | complier)}^-1 P(complier)^-1 E(dkappa X Y),
    with the first factor a kappa-weighted Gram matrix and the complier
    probability estimated by mean(kappa).
    """
    kappa = _complier_kappa(Batch([data]), [prop])[0]
    pc_hat = float(kappa.sum()) / data.size
    gram = (data.x * kappa[:, None]).T @ data.x / kappa.sum()
    moments = data.weighted(data.x * (dkappa_weights(data, prop) * data.y)[:, None])
    rhs = moments.sum(axis=0) / data.size / pc_hat
    # Solving the square system through least_squares keeps the rank
    # check consistent with every other fit.
    return linalg.least_squares(rhs, gram).coef[:, 0].copy()
