"""Shared builders for test datasets and finite-support designs, the oracle's moment-block
reference, a logistic propensity fit from a given start, quantile bins of one sample, and a
study's row budget."""

import contextlib
import json

import numpy as np
import pytest
from scipy.special import expit

from ivlate import complier, linalg, stratify
from ivlate.complier import CLIP, PC_FLOOR, PropensityFit
from ivlate.estimators import Batch, Dataset
from ivlate.linalg import least_squares
from ivlate.montecarlo import DgpCell, from_cells


def simulate_iv(seed, n=400, k=3, het=True):
    """Conditionally valid IV sample with known structure.

    Covariates are (1, standard normals); the instrument propensity is
    logistic in the covariates; compliance varies with the first
    covariate; outcomes carry covariate-dependent effects when ``het``.
    """
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    e = expit(0.4 * x[:, 1] + (0.2 * x[:, 2] if k > 2 else 0.0))
    z = (rng.random(n) < e).astype(float)
    p_always = 0.1
    p_complier = np.clip(0.6 - 0.15 * x[:, 1], 0.05, 0.95)
    r = rng.random(n)
    u = np.where(r < p_always, 2, np.where(r < p_always + p_complier, 1, 0))
    d = ((u == 2) | ((u == 1) & (z == 1.0))).astype(float)
    tau = 1.0 + (x[:, 1] if het else 0.0)
    y0 = 0.5 * x[:, 1] + rng.standard_normal(n)
    y = y0 + d * tau
    return Dataset(y=y, d=d, z=z, x=x, has_constant=True)


def dummy_coded(seed, n=600, levels=3):
    """Sample whose covariates dummy-code a categorical variable (no constant)."""
    rng = np.random.default_rng(seed)
    cat = rng.integers(0, levels, size=n)
    x = (cat[:, None] == np.arange(levels)).astype(float)
    e = np.array([0.3 + 0.4 * j / (levels - 1) for j in range(levels)])[cat]
    z = (rng.random(n) < e).astype(float)
    p_complier = np.array([0.5 + 0.3 * j / (levels - 1) for j in range(levels)])[cat]
    r = rng.random(n)
    u = np.where(r < 0.1, 2, np.where(r < 0.1 + p_complier, 1, 0))
    d = ((u == 2) | ((u == 1) & (z == 1.0))).astype(float)
    tau = np.array([2.0 * j - 1.0 for j in range(levels)])[cat]
    y = 0.3 * cat + d * tau + rng.standard_normal(n)
    return Dataset(y=y, d=d, z=z, x=x, has_constant=False), cat


def categorical_spec():
    """Dummy-coded three-level categorical design (saturating basis)."""
    return from_cells(
        "cat3",
        (
            DgpCell(x=(1.0, 0.0, 0.0), prob=0.4, e=0.3, p_always=0.10, p_complier=0.6,
                    y0_mean=(0.5, 0.2, 0.8), y1_mean=(1.0, 1.5, 2.0)),
            DgpCell(x=(0.0, 1.0, 0.0), prob=0.35, e=0.6, p_always=0.15, p_complier=0.5,
                    y0_mean=(0.1, 0.4, 0.0), y1_mean=(2.0, 3.0, 1.0)),
            DgpCell(x=(0.0, 0.0, 1.0), prob=0.25, e=0.8, p_always=0.20, p_complier=0.4,
                    y0_mean=(0.0, 0.3, 0.2), y1_mean=(0.5, -1.0, 0.7)),
        ),
    )


def curved_spec():
    """Three support points on a two-dimensional basis: both the propensity
    and the outcome means are nonlinear in (1, x1), so neither linearity
    condition holds and the interacted fit is inconsistent."""
    cells = []
    for j, (prob, e, pa, pc) in enumerate(
        [(0.4, 0.3, 0.10, 0.6), (0.35, 0.6, 0.15, 0.5), (0.25, 0.8, 0.20, 0.4)]
    ):
        cells.append(
            DgpCell(
                x=(1.0, float(j)),
                prob=prob,
                e=e,
                p_always=pa,
                p_complier=pc,
                y0_mean=(0.2 * j, 0.1 * j * j, 0.3 + 0.5 * j),
                y1_mean=(float(j), 1.0 + j * j, 2.0 * j),
            )
        )
    return from_cells("curved", tuple(cells))


def ref_oracle_estimands(spec):
    """A finite-support design's limits, solved from hand-built population moment blocks.

    Returns the complier projection ``beta_c``; the interacted,
    additive and interacted-additive limits; the first-stage-centered
    limit (None without a constant, or with P(complier) or the share at
    most PC_FLOOR); the coefficients of the interacted-additive share
    projection ``pi_tilde_coeffs``; and the interacted fit's two bias
    terms ``b1``, ``b2`` with its design Gram, so that the interacted
    limit is ``beta_c + solve(design_gram, b1 + b2)``.
    """
    xs = np.array([c.x for c in spec.cells], dtype=float)
    p, e, pa, pc = (np.array([getattr(c, f) for c in spec.cells]) for f in ("prob", "e", "p_always", "p_complier"))
    y0m, y1m = (np.array([getattr(c, f) for c in spec.cells]) for f in ("y0_mean", "y1_mean"))
    pn, k = 1.0 - pa - pc, xs.shape[1]

    def solve(a, b):
        return least_squares(b, a).coef[:, 0] if b.ndim == 1 else least_squares(b, a).coef

    def moments(weights):
        return np.einsum("i,ij,il->jl", weights, xs, xs)

    # Complier projection and the interacted-additive share projection.
    tau_cell, cell_given_c = y1m[:, 1] - y0m[:, 1], p * pc / (p @ pc)
    beta_c = solve(moments(cell_given_c), cell_given_c @ (xs * tau_cell[:, None]))
    v = e * (1.0 - e)
    pi_tilde_coeffs = solve(moments(p * v), (p * v * pc) @ xs)

    p_d1_z1 = pa + pc  # P(D = 1 | Z = 1, cell)
    ey_z1 = pa * y1m[:, 2] + pc * y1m[:, 1] + pn * y0m[:, 0]
    ey_z0 = pa * y1m[:, 2] + pc * y0m[:, 1] + pn * y0m[:, 0]
    ey, ed = e * ey_z1 + (1.0 - e) * ey_z0, pa + e * pc
    xxt, m_zx_zx, m_zx_dx, m_x_dx = moments(p), moments(p * e), moments(p * e * p_d1_z1), moments(p * ed)
    m_zx_y, m_x_y = (p * e * ey_z1) @ xs, (p * ey) @ xs

    # Interacted: instruments (Z X, X), regressors (D X, X).
    a_full = np.block([[m_zx_dx, m_zx_zx], [m_x_dx, xxt]])
    beta = solve(a_full, np.concatenate([m_zx_y, m_x_y]))[:k]

    # Additive: instruments (Z, X), regressors (D, X).
    e_xd = (p * ed) @ xs
    a_add = np.block([[np.array([[p @ (e * p_d1_z1)]]), ((p * e) @ xs)[None, :]], [e_xd[:, None], xxt]])
    taa = float(solve(a_add, np.concatenate([[p @ (e * ey_z1)], m_x_y]))[0])

    # Interacted-additive: instruments (Z X, X), regressors (D, X), through the projected moments.
    m_ww = np.block([[m_zx_zx, m_zx_zx], [m_zx_zx, xxt]])
    m_wq = np.block([[((p * e * p_d1_z1) @ xs)[:, None], m_zx_zx], [e_xd[:, None], xxt]])
    proj = solve(m_ww, np.column_stack([m_wq, np.concatenate([m_zx_y, m_x_y])]))
    tia = float(solve(m_wq.T @ proj[:, :-1], m_wq.T @ proj[:, -1])[0])

    # First-stage blocks of the interacted fit, and the centered limit at share = X c1[0].
    c1 = solve(m_ww.T, np.vstack([m_zx_dx, m_x_dx])).T[:, :k]
    share = p * (xs @ c1[0])
    first_stage = None
    if np.all(xs[:, 0] == 1.0) and p @ pc > PC_FLOOR and share.sum() > PC_FLOOR:
        first_stage = float(beta[0] + (share @ xs[:, 1:]) / share.sum() @ beta[1:])

    # The interacted fit's bias terms. With c2 the projection of Z X on X,
    # b1 pairs the projection residuals of E[Z X | X] and of
    # delta = E[Y - D X beta_c | X, Z = 0], and b2 the residual of Z X
    # with the complier projection error tau - X beta_c.
    c2 = solve(xxt.T, m_zx_zx.T).T
    delta = pc * y0m[:, 1] + pn * y0m[:, 0] + pa * (y1m[:, 2] - xs @ beta_c)
    gap_z = e[:, None] * xs - xs @ c2.T
    gap_delta = delta - xs @ solve(xxt, p @ (xs * delta[:, None]))
    b1 = c1 @ ((p * gap_delta) @ gap_z)
    b2 = c1 @ (np.eye(k) - c2) @ ((p * pc * e * (tau_cell - xs @ beta_c)) @ xs)
    resid_gram = m_zx_zx - m_zx_zx @ c2.T - c2 @ m_zx_zx + c2 @ xxt @ c2.T
    return {"beta_c": beta_c, "plim_beta_2sls": beta, "plim_taa_projection": taa, "plim_tia_projection": tia,
            "plim_xx_first_stage": first_stage, "pi_tilde_coeffs": pi_tilde_coeffs,
            "b1": b1, "b2": b2, "design_gram": c1 @ resid_gram @ c1.T}


def irls_alone(z, x, whiten, start=None, counts=None):
    """(scores, coefficients, converged) of ``complier._irls_batch`` on one sample from ``start``
    (None: from zero), rerun rule included, whitened by the (Q', T, T^-1) ``whiten``; raises
    the sample's IdentificationError."""
    mu, beta, converged = complier._irls_batch(z[None], x[None], tuple(a[None] for a in whiten), [start],
                                               None if counts is None else counts[None])
    return mu[0], beta[0], converged[0]


def warm_fit(sample, start):
    """The logistic propensity fit of ``sample`` whose IRLS starts from ``start`` (None: from
    zero), by ``irls_alone`` with the sample's whitening and weights, its scores
    clipped into [CLIP, 1 - CLIP] as ``fit_propensity`` clips them, without its warnings."""
    whiten = complier._whitenings(Batch([sample]))
    raw, coef, converged = irls_alone(sample.z, sample.x, tuple(a[0] for a in whiten), start, sample.weights)
    clipped = np.clip(raw, CLIP, 1.0 - CLIP)
    return PropensityFit(clipped, coef, converged, int(np.sum(sample.weighted(clipped != raw))))


def quantile_bins(e, k, counts=None):
    """The reference cuts np.quantile(e, j / k), 0 < j < k, and bins of one sample, by
    ``stratify._bins`` on one sort; with ``counts``, of the scores repeated by their counts."""
    cuts, bins = stratify._bins(np.sort(e if counts is None else np.repeat(e, counts))[None], e[None], k)
    return cuts[0], bins[0]


def fits_by(fit):
    """A stand-in for ``montecarlo.logistic_fits`` that fits each sample of a batch by
    ``fit(sample)``, an error it raises taking the fit's place."""

    def fits(batch):
        out = []
        for sample in batch.samples:
            try:
                out.append(fit(sample))
            except Exception as exc:
                out.append(exc)
        return out

    return fits


@contextlib.contextmanager
def row_budget(rows):
    """Evaluate Monte Carlo studies in batches of at most ``rows`` rows (one sample at least)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "BATCH_ROWS", rows)
        yield


def residualize(targets, controls):
    """``targets``, as columns, minus their least-squares fit on ``controls``."""
    y, x = (np.asarray(a, dtype=float).reshape(len(a), -1) for a in (targets, controls))
    return y - x @ least_squares(y, x).coef


def fwl_design(data, fit):
    """The first-stage fitted block of an interacted fit, residualized on the covariates.

    Regressing the outcome on it alone reproduces ``fit.beta`` (partialling out).
    """
    return residualize((data.z[:, None] * data.x) @ fit.c1.T + data.x @ fit.c0.T, data.x)


def load_report(path):
    """Parse a report file as strict JSON: NaN and Infinity tokens are errors."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.read(), parse_constant=reject)
