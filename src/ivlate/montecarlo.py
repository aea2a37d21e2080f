"""Simulation designs, exact population oracles, and Monte Carlo studies.

A design's sampler draws the covariates and the units (covariate rows or
drawn cell indices) that its instrument propensity, compliance-type
probabilities and potential-outcome means take. Designs with finite
covariate support additionally carry their support cells, which lets the
oracle compute its population quantities by exact enumeration: the
complier effect and its projection coefficients, and the implicit weights
of the additive-second-stage estimators with the weighted averages of
conditional complier effects they give. The estimators' probability
limits come from their own two-stage fits on the population factor: such
a design is a weighted sample of cell-by-instrument-arm-by-compliance-type
atoms.
Continuous designs register closed-form truths instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import streams
from .complier import PC_FLOOR, PropensityFit, centered_interacted_2sls, expit, fit_propensity
from .errors import (
    IdentificationError,
    InfiniteSupportError,
    InvalidSpecError,
)
from .estimators import (
    Dataset,
    _two_stage,
    additive_2sls,
    interacted_2sls,
    interacted_additive_2sls,
)
from .inference import require_distinct, run_replicates
from .linalg import least_squares, triangular_factor
from .stratify import stratified_late

# Compliance-type codes.
U_NEVER = 0
U_COMPLIER = 1
U_ALWAYS = 2


@dataclass(frozen=True)
class DgpCell:
    """One support cell of a finite-support design.

    ``y0_mean`` and ``y1_mean`` give the potential-outcome means indexed
    by compliance type (never, complier, always).
    """

    x: tuple[float, ...]
    prob: float
    e: float
    p_always: float
    p_complier: float
    y0_mean: tuple[float, float, float] = (0.0, 0.0, 0.0)
    y1_mean: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class DgpSpec:
    """Generative description of a simulation design.

    ``draw_covariates(rng, n)`` returns ``(x, units)``: the (n, k) covariates
    and what the other callables take in place of x (x, or drawn cell indices).
    ``cells`` enables the exact oracle of a finite-support design; continuous
    designs may register closed-form ``tau_c_value`` and ``beta_c_value``.
    """

    name: str
    k: int
    draw_covariates: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    propensity: Callable[[np.ndarray], np.ndarray]
    p_always: Callable[[np.ndarray], np.ndarray]
    p_complier: Callable[[np.ndarray], np.ndarray]
    y0_mean: Callable[[np.ndarray, np.ndarray], np.ndarray]
    y1_mean: Callable[[np.ndarray, np.ndarray], np.ndarray]
    noise_sd: float = 0.0
    cells: tuple[DgpCell, ...] | None = None
    tau_c_value: float | None = None
    beta_c_value: tuple[float, ...] | None = None


@dataclass(frozen=True)
class LatentTruth:
    """Per-unit latent quantities behind one generated sample."""

    u: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    tau: np.ndarray
    e: np.ndarray


@dataclass(frozen=True)
class OracleEstimands:
    """Exact population quantities of a finite-support design.

    Cell-indexed maps are keyed by the covariate tuple. ``tau_c`` is the
    complier effect (``tau_c_by_cell`` by cell), ``beta_c`` its projection
    coefficients on the covariates among compliers, and ``p_complier``
    P(complier). ``w_plus``, ``w_times`` and ``w`` are the implicit cell
    weights of the additive, interacted-additive and correct-first-stage
    limits, and ``plim_taa`` and ``plim_tia`` the conditional complier
    effects averaged under the first two. The ``*_projection`` values are
    the probability limits of the additive and interacted-additive fits,
    from the estimators' own two stages on the population factor, and
    must agree with them whenever the instrument-interaction linearity
    condition holds. ``plim_beta_2sls`` is the interacted fit's limit.
    ``plim_xx_first_stage`` and ``plim_xx_kappa`` are the limits of the
    centered interacted fit under its two centerings. They follow the
    estimator's complier-share floors, taken at the population: both are
    None when column 0 of the covariates is not the constant or
    P(complier) is at most PC_FLOOR, and the first-stage one also when
    its share E[X c1[0]] is at most PC_FLOOR.
    """

    tau_c: float
    tau_c_by_cell: dict[tuple[float, ...], float]
    beta_c: np.ndarray
    p_complier: float
    w_plus: dict[tuple[float, ...], float]
    w_times: dict[tuple[float, ...], float]
    w: dict[tuple[float, ...], float]
    plim_taa: float
    plim_tia: float
    plim_beta_2sls: np.ndarray
    plim_taa_projection: float
    plim_tia_projection: float
    plim_xx_first_stage: float | None
    plim_xx_kappa: float | None


@dataclass(frozen=True)
class McSummary:
    """Bias and spread of estimators over replications of one design.

    ``estimates`` holds each tag's identified replicate estimates, one per
    row, and ``replicates`` the index of the replicate each row came from."""

    truth: dict[str, np.ndarray]
    bias: dict[str, np.ndarray]
    sd: dict[str, np.ndarray]
    failures: dict[str, int]
    estimates: dict[str, np.ndarray]
    replicates: dict[str, np.ndarray]


# ---------------------------------------------------------------------------
# Named designs
# ---------------------------------------------------------------------------


def dgp_a() -> DgpSpec:
    """Binary-covariate design with opposite-signed conditional effects.

    X = (1, X1) with X1 ~ Bernoulli(0.5); Z | X ~ Bernoulli(0.5 + 0.4 X1);
    P(always) = 0.1, P(complier | X) = 0.7 - 0.5 X1; Y(0) = 0 and
    Y(1) = -1 + 5 X1. The complier effect is 4 at X1 = 1 and -1 at
    X1 = 0, averaging to 1/9.
    """
    cells = (
        DgpCell(x=(1.0, 0.0), prob=0.5, e=0.5, p_always=0.1, p_complier=0.7,
                y1_mean=(-1.0, -1.0, -1.0)),
        DgpCell(x=(1.0, 1.0), prob=0.5, e=0.9, p_always=0.1, p_complier=0.2,
                y1_mean=(4.0, 4.0, 4.0)),
    )
    return from_cells("A", cells)


def dgp_b() -> DgpSpec:
    """Two standard-normal covariates with a logistic instrument propensity.

    X = (1, X1, X2) with X1, X2 iid N(0, 1); P(Z = 1 | X) =
    1 / (1 + exp(X1 + X2)); P(complier) = 0.7, P(always) = 0.2;
    Y(0) = 0 and Y(1) = X1^2 + X2^2, so the complier effect is 2 with
    projection coefficients (2, 0, 0).
    """

    def draw(rng, n):
        x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        return x, x

    return DgpSpec(
        name="B",
        k=3,
        draw_covariates=draw,
        propensity=lambda x: expit(-(x[:, 1] + x[:, 2])),
        p_always=lambda x: np.full(x.shape[0], 0.2),
        p_complier=lambda x: np.full(x.shape[0], 0.7),
        y0_mean=lambda x, u: np.zeros(x.shape[0]),
        y1_mean=lambda x, u: x[:, 1] ** 2 + x[:, 2] ** 2,
        tau_c_value=2.0,
        beta_c_value=(2.0, 0.0, 0.0),
    )


def dgp_c() -> DgpSpec:
    """Uniform covariate equal to the instrument propensity, quadratic effect.

    X = (1, X1) with X1 ~ Uniform(0, 1); Z | X ~ Bernoulli(X1);
    P(complier) = 0.7, P(always) = 0.2; Y(0) = 0 and Y(1) = X1^2. The
    complier effect is 1/3 with projection coefficients (-1/6, 1).
    """

    def draw(rng, n):
        x = np.column_stack([np.ones(n), rng.random(n)])
        return x, x

    return DgpSpec(
        name="C",
        k=2,
        draw_covariates=draw,
        propensity=lambda x: x[:, 1],
        p_always=lambda x: np.full(x.shape[0], 0.2),
        p_complier=lambda x: np.full(x.shape[0], 0.7),
        y0_mean=lambda x, u: np.zeros(x.shape[0]),
        y1_mean=lambda x, u: x[:, 1] ** 2,
        tau_c_value=1.0 / 3.0,
        beta_c_value=(-1.0 / 6.0, 1.0),
    )


def named_dgp(name: str) -> DgpSpec:
    """Look up a bundled design by name; "D" is the design of study C."""
    designs = {"A": dgp_a, "B": dgp_b, "C": dgp_c, "D": dgp_c}
    key = name.strip().upper()
    if key not in designs:
        raise InvalidSpecError(f"unknown design name {name!r}")
    return designs[key]()


def _cell_arrays(cells) -> tuple[np.ndarray, ...]:
    """Check a cell table; return x, prob, e, p_always, p_complier, y0, y1 by cell."""
    if not cells:
        raise InvalidSpecError("a finite-support design needs at least one cell")
    if len({len(c.x) for c in cells}) != 1:
        raise InvalidSpecError("all cells must share the covariate dimension")
    xs = np.array([c.x for c in cells], dtype=float)
    if len(set(map(tuple, xs.tolist()))) < len(cells):
        raise InvalidSpecError("cells must have distinct covariate rows")
    if any(np.shape(m) != (3,) for c in cells for m in (c.y0_mean, c.y1_mean)):
        raise InvalidSpecError("y0_mean and y1_mean need three entries per cell (never, complier, always)")
    probs, e, pa, pc, y0, y1 = (np.array([getattr(c, f) for c in cells], dtype=float)
                                for f in ("prob", "e", "p_always", "p_complier", "y0_mean", "y1_mean"))
    if not (np.all(probs >= 0.0) and abs(probs.sum() - 1.0) <= 1e-12):
        raise InvalidSpecError("cell probabilities must be nonnegative and sum to one")
    if not np.all((e > 0.0) & (e < 1.0)):
        raise InvalidSpecError("cell propensities must lie strictly inside (0, 1)")
    if not (np.all(pa >= 0.0) and np.all(pc >= 0.0) and np.all(pa + pc <= 1.0 + 1e-12)):
        raise InvalidSpecError("compliance-type probabilities must be a sub-distribution")
    return xs, probs, e, pa, pc, y0, y1


def from_cells(name: str, cells, noise_sd: float = 0.0) -> DgpSpec:
    """Build a finite-support design; its units are the drawn cell indices."""
    cells = tuple(cells)
    xs, probs, e, pa, pc, y0, y1 = _cell_arrays(cells)
    if not (np.isfinite(noise_sd) and noise_sd >= 0.0):
        raise InvalidSpecError("noise_sd must be finite and nonnegative")

    def draw(rng, n):
        index = rng.choice(len(cells), size=n, p=probs)
        return xs[index], index

    return DgpSpec(
        name=name,
        k=xs.shape[1],
        draw_covariates=draw,
        propensity=lambda c: e[c],
        p_always=lambda c: pa[c],
        p_complier=lambda c: pc[c],
        y0_mean=lambda c, u: y0[c, u],
        y1_mean=lambda c, u: y1[c, u],
        noise_sd=noise_sd,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generate(spec: DgpSpec, n: int, seed: int, replicate: int = 0) -> tuple[Dataset, LatentTruth]:
    """Draw one sample of size ``n`` from the design.

    Covariates, instrument, compliance types, and outcome noise use
    separate substreams keyed by (seed, replicate, purpose), so the
    output is a pure function of (spec, n, seed, replicate).
    """
    if n < 1:
        raise InvalidSpecError("n must be at least 1")
    drawn = spec.draw_covariates(streams.substream(seed, replicate, streams.COVARIATES), n)
    if not (isinstance(drawn, tuple) and len(drawn) == 2):
        raise InvalidSpecError("draw_covariates must return an (x, units) tuple")
    x, units = drawn
    x = np.asarray(x, dtype=float)
    if x.shape != (n, spec.k) or not np.all(np.isfinite(x)):
        raise InvalidSpecError("covariate sampler returned a malformed matrix")

    e = np.asarray(spec.propensity(units), dtype=float)
    pa = np.asarray(spec.p_always(units), dtype=float)
    pc = np.asarray(spec.p_complier(units), dtype=float)
    if not np.all((e > 0.0) & (e < 1.0)):
        raise InvalidSpecError("propensity must lie strictly inside (0, 1) on the support")
    if not (np.all(pa >= 0.0) and np.all(pc >= 0.0) and np.all(pa + pc <= 1.0 + 1e-12)):
        raise InvalidSpecError("compliance-type probabilities must be a sub-distribution")

    z = (streams.substream(seed, replicate, streams.INSTRUMENT).random(n) < e).astype(float)
    r = streams.substream(seed, replicate, streams.COMPLIANCE).random(n)
    u = np.where(r < pa, U_ALWAYS, np.where(r < pa + pc, U_COMPLIER, U_NEVER)).astype(np.int8)
    d = ((u == U_ALWAYS) | ((u == U_COMPLIER) & (z == 1.0))).astype(float)

    y0 = np.asarray(spec.y0_mean(units, u), dtype=float)
    y1 = np.asarray(spec.y1_mean(units, u), dtype=float)
    if spec.noise_sd > 0.0:
        eps = streams.substream(seed, replicate, streams.NOISE).standard_normal((n, 2))
        y0 = y0 + spec.noise_sd * eps[:, 0]
        y1 = y1 + spec.noise_sd * eps[:, 1]
    y = d * y1 + (1.0 - d) * y0

    data = Dataset(y=y, d=d, z=z, x=x, has_constant=bool(np.all(x[:, 0] == 1.0)))
    latent = LatentTruth(u=u, y0=y0, y1=y1, tau=y1 - y0, e=e)
    return data, latent


# ---------------------------------------------------------------------------
# Exact population oracle
# ---------------------------------------------------------------------------


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a square population system for one right-hand side through the rank-checked LS path."""
    return least_squares(b, a).coef[:, 0]


def _complier_law(cells) -> tuple[float, np.ndarray, float]:
    """P(complier), the cell law given complier, and tau_c of a cell table."""
    _, p, _, _, pc, y0m, y1m = _cell_arrays(cells)
    p_c = float(p @ pc)
    if p_c <= 0.0:
        raise InvalidSpecError("the design admits no compliers")
    cell_given_c = p * pc / p_c
    return p_c, cell_given_c, float(cell_given_c @ (y1m[:, U_COMPLIER] - y0m[:, U_COMPLIER]))


def oracle_estimands(spec: DgpSpec) -> OracleEstimands:
    """Compute all population quantities of a finite-support design exactly.

    Everything is an exact finite sum over support cells (and, for the
    regression limits, over the cell-by-instrument-by-type atoms), so
    results carry no Monte Carlo error. The regression limits are the
    estimators' ``_two_stage`` fits on one triangular factor of the atoms.
    """
    if spec.cells is None:
        raise InfiniteSupportError(
            f"design {spec.name!r} has continuous covariate support; "
            "register closed-form truths instead"
        )
    k = spec.k
    xs, p, e, pa, pc, y0m, y1m = _cell_arrays(spec.cells)  # y*m: (cell, type)
    pn = 1.0 - pa - pc
    tau_cell = y1m[:, U_COMPLIER] - y0m[:, U_COMPLIER]
    p_c, cell_given_c, tau_c = _complier_law(spec.cells)

    exx_c = np.einsum("i,ij,il->jl", cell_given_c, xs, xs)
    beta_c = _solve(exx_c, cell_given_c @ (xs * tau_cell[:, None]))

    # Implicit weights of the additive-second-stage limits.
    v = e * (1.0 - e)
    pi_tilde = xs @ _solve(np.einsum("i,ij,il->jl", p * v, xs, xs), (p * v * pc) @ xs)
    w_plus_arr = v * pc / float(p @ (v * pc))
    w_times_arr = v * pi_tilde * pc / float(p @ (v * pi_tilde**2))
    w_arr = v * pc**2 / float(p @ (v * pc**2))
    plim_taa = float(p @ (w_plus_arr * tau_cell))
    plim_tia = float(p @ (w_times_arr * tau_cell))

    # The design is a weighted sample of (cell, z, type) atoms. D follows
    # from (z, type); outcomes enter every limit linearly, so Y is the
    # type's outcome mean. The factor of sqrt(w) [Z X | Z | X | D X | D | Y]
    # is then the population factor, and the estimators' own two stages on
    # it give their probability limits.
    atoms = np.meshgrid(np.arange(len(p)), [0.0, 1.0], [U_NEVER, U_COMPLIER, U_ALWAYS], indexing="ij")
    cell, z, u = (a.ravel() for a in atoms)
    d = ((u == U_ALWAYS) | ((u == U_COMPLIER) & (z == 1.0))).astype(float)
    p_type = np.column_stack([pn, pc, pa])  # columns in type-code order, as y0m and y1m
    sw = np.sqrt(p[cell] * np.where(z == 1.0, e[cell], 1.0 - e[cell]) * p_type[cell, u])
    sx = sw[:, None] * xs[cell]
    factor = triangular_factor(z[:, None] * sx, sw * z, sx, d[:, None] * sx, sw * d,
                               sw * np.where(d == 1.0, y1m[cell, u], y0m[cell, u]))
    first, second = _two_stage(factor, k + 1, k, range(k), range(k))
    plim_beta_2sls, c1 = second[:k, 0], first[:k].T
    plim_taa_proj = float(_two_stage(factor, k + 1, k, [k], [k])[1][0, 0])
    plim_tia_proj = float(_two_stage(factor, k + 1, k, range(k), [k])[1][0, 0])

    # The centered fit's limit beta[0] + mu @ beta[1:], at the complier means
    # mu of each centering: share-weighted with share = X c1[0], or E[X | complier].
    # Each limit exists where the estimator's complier-share floors pass.
    plim_xx_first_stage = plim_xx_kappa = None
    if np.all(xs[:, 0] == 1.0) and p_c > PC_FLOOR:
        beta0, beta1 = plim_beta_2sls[0], plim_beta_2sls[1:]
        share = p * (xs @ c1[0])
        if share.sum() > PC_FLOOR:
            plim_xx_first_stage = float(beta0 + (share @ xs[:, 1:]) / share.sum() @ beta1)
        plim_xx_kappa = float(beta0 + cell_given_c @ xs[:, 1:] @ beta1)

    keys = list(map(tuple, xs.tolist()))
    return OracleEstimands(
        tau_c=tau_c,
        tau_c_by_cell=dict(zip(keys, tau_cell.tolist())),
        beta_c=beta_c,
        p_complier=p_c,
        w_plus=dict(zip(keys, w_plus_arr.tolist())),
        w_times=dict(zip(keys, w_times_arr.tolist())),
        w=dict(zip(keys, w_arr.tolist())),
        plim_taa=plim_taa,
        plim_tia=plim_tia,
        plim_beta_2sls=plim_beta_2sls,
        plim_taa_projection=plim_taa_proj,
        plim_tia_projection=plim_tia_proj,
        plim_xx_first_stage=plim_xx_first_stage,
        plim_xx_kappa=plim_xx_kappa,
    )


# ---------------------------------------------------------------------------
# Estimator pipelines and studies
# ---------------------------------------------------------------------------

_STRAT_TAG = re.compile(r"^strat-([1-9][0-9]*)$")

# A tag's estimator maps (sample, propensity) to its estimate, where
# ``propensity()`` returns the sample's logistic propensity fit.
_Estimator = Callable[[Dataset, Callable[[], PropensityFit]], np.ndarray]


def _resolve(tag: str) -> tuple[_Estimator, str]:
    """Resolve an estimator tag to (estimator, truth kind); see ``pipeline_for``."""
    if tag == "++":
        return (lambda data, prop: np.array([additive_2sls(data)]), "tau_c")
    if tag == "x+":
        return (lambda data, prop: np.array([interacted_additive_2sls(data)]), "tau_c")
    if tag == "xx":
        return (lambda data, prop: np.array([centered_interacted_2sls(data, prop())]), "tau_c")
    if tag == "beta":
        return (lambda data, prop: interacted_2sls(data).beta, "beta_c")
    match = _STRAT_TAG.fullmatch(tag)
    if match:
        strata = int(match.group(1))
        return (lambda data, prop: np.array([stratified_late(data, prop(), strata).tau_star]), "tau_c")
    raise ValueError(f"unknown estimator tag {tag!r}")


def _cold_fit(data: Dataset) -> PropensityFit:
    return fit_propensity(data, "logistic")


def evaluate_tags(
    data: Dataset, tags, fit: Callable[[Dataset], PropensityFit] = _cold_fit
) -> dict[str, np.ndarray | IdentificationError]:
    """Evaluate estimator tags on one sample, sharing one propensity fit.

    ``fit(data)`` is called on the first request of a tag that needs the
    propensity ("xx", "strat-K") and reused by every later one; "++",
    "x+" and "beta" never call it. The default fits the logistic
    propensity from zero; a bootstrap can pass a warm-starting fit. If
    the fit fails identification, every tag that needs it gets the same
    error. Returns, per distinct tag, its estimate as a float array or
    the IdentificationError it raised; other exceptions propagate.
    """
    estimators = {tag: _resolve(tag)[0] for tag in tags}
    shared: list[PropensityFit | IdentificationError] = []

    def propensity() -> PropensityFit:
        if not shared:
            try:
                shared.append(fit(data))
            except IdentificationError as exc:
                shared.append(exc)
        if isinstance(shared[0], IdentificationError):
            raise shared[0]
        return shared[0]

    out: dict[str, np.ndarray | IdentificationError] = {}
    for tag, estimate in estimators.items():
        try:
            out[tag] = np.atleast_1d(np.asarray(estimate(data, propensity), dtype=float))
        except IdentificationError as exc:
            out[tag] = exc
    return out


def pipeline_for(tag: str) -> tuple[Callable[[Dataset], np.ndarray], str]:
    """Resolve an estimator tag to (pipeline, truth kind).

    Tags: "++" (additive), "x+" (interacted-additive), "xx" (centered
    interacted with a logistic propensity fit), "beta" (interacted
    coefficient vector), "strat-K" (propensity stratification with K
    requested strata, K a positive integer without leading zeros). The pipeline is ``evaluate_tags`` on one tag: it
    re-estimates its propensity scores from the data it receives and
    raises the IdentificationError of a failed sample. To evaluate
    several tags on one sample with one propensity fit, call
    ``evaluate_tags`` instead.
    """
    _, kind = _resolve(tag)

    def pipeline(data: Dataset) -> np.ndarray:
        out = evaluate_tags(data, [tag])[tag]
        if isinstance(out, IdentificationError):
            raise out
        return out

    return (pipeline, kind)


def study_truth(spec: DgpSpec, kind: str) -> np.ndarray:
    """True value of an estimand: oracle when enumerable, registered otherwise."""
    if kind == "tau_c":
        if spec.cells is not None:
            return np.array([_complier_law(spec.cells)[2]])
        if spec.tau_c_value is not None:
            return np.array([spec.tau_c_value])
    elif kind == "beta_c":
        if spec.cells is not None:
            return oracle_estimands(spec).beta_c
        if spec.beta_c_value is not None:
            return np.array(spec.beta_c_value, dtype=float)
    else:
        raise ValueError(f"unknown truth kind {kind!r}")
    raise InvalidSpecError(f"design {spec.name!r} registers no truth for {kind}")


def run_study(spec: DgpSpec, estimators: list[str], reps: int, n: int, seed: int) -> McSummary:
    """Replicate the design and summarize estimator bias and spread.

    Replicate r draws from the stream (seed, r) and evaluates every tag
    through one ``evaluate_tags`` call, so the propensity is fitted at
    most once per replicate and shared by the tags that need it. The
    replicates run through ``inference.run_replicates``: failures of
    in-sample identification are counted per estimator and excluded from
    the summaries and estimates, and any other error aborts the study,
    its message prefixed with the seed and replicate. A repeated tag
    raises ValueError.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    require_distinct(estimators)
    truth = {tag: study_truth(spec, _resolve(tag)[1]) for tag in estimators}

    def step(r: int) -> dict[str, np.ndarray | IdentificationError]:
        return evaluate_tags(generate(spec, n, seed, replicate=r)[0], estimators)

    draws, failures = run_replicates(seed, reps, step, estimators)
    bias: dict[str, np.ndarray] = {}
    sd: dict[str, np.ndarray] = {}
    estimates: dict[str, np.ndarray] = {}
    replicates: dict[str, np.ndarray] = {}
    for tag in estimators:
        replicates[tag] = np.array([r for r, _ in draws[tag]], dtype=int)
        stacked = np.vstack([v for _, v in draws[tag]]) if draws[tag] else np.empty((0, truth[tag].size))
        estimates[tag] = stacked
        if stacked.shape[0] == 0:
            bias[tag] = np.full(truth[tag].size, np.nan)
            sd[tag] = np.full(truth[tag].size, np.nan)
        else:
            bias[tag] = stacked.mean(axis=0) - truth[tag]
            sd[tag] = stacked.std(axis=0, ddof=1) if stacked.shape[0] > 1 else np.zeros(truth[tag].size)
    return McSummary(
        truth=truth, bias=bias, sd=sd, failures=failures, estimates=estimates, replicates=replicates
    )


def regressogram_deviation(
    spec: DgpSpec, n: int, reps: int, k: int, seed: int
) -> float:
    """Mean absolute deviation of stratum estimates from stratum-averaged effects.

    For each replicate, compares the per-stratum estimates against the
    average individual effect of the units in each stratum (for the
    bundled quadratic design, the stratum-averaged squared propensity).
    The replicates run through ``inference.run_replicates``:
    identification failures are skipped, and any other error aborts,
    its message prefixed with the seed and replicate. Raises ValueError
    when ``reps`` is below 1.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")

    def step(r: int) -> dict[str, float | IdentificationError]:
        data, latent = generate(spec, n, seed, replicate=r)
        try:
            result = stratified_late(data, fit_propensity(data, "logistic"), k)
        except IdentificationError as exc:
            return {"": exc}
        labels = result.partition.labels
        per_stratum = [abs(b - latent.tau[labels == j].mean()) for j, b in enumerate(result.beta_star, 1)]
        return {"": np.mean(per_stratum)}

    deviations = [deviation for _, deviation in run_replicates(seed, reps, step, [""])[0][""]]
    if not deviations:
        raise IdentificationError("every replicate failed stratification")
    return float(np.mean(deviations))
