"""Shared builders for test datasets and finite-support designs."""

import json

import numpy as np
from scipy.special import expit

from ivlate.estimators import Dataset
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
