"""Simulation designs, exact population oracles, and Monte Carlo studies.

A design's sampler draws the covariates and the units (covariate rows or
drawn cell indices) that its instrument propensity, compliance-type
probabilities and potential-outcome means take. Designs with finite
covariate support additionally carry their support cells, which lets the
oracle compute its population quantities by exact enumeration: the
complier effect and its projection coefficients, and the implicit weights
of the additive-second-stage estimators with the weighted averages of
conditional complier effects they give. Such a design is a weighted sample
of cell-by-instrument-arm-by-compliance-type atoms, weighted by their
probabilities, and the public estimators run on that sample give their
probability limits. Continuous designs register closed-form truths instead.

A study evaluates consecutive replicates together, as one
``estimators.Batch`` of at most ``linalg.BATCH_ROWS`` rows, through the
kernels behind the public estimators; ``evaluate_tags`` is the batch of one
sample. Each sample's estimates, errors and warnings are those of its own
evaluation, so a study's results do not depend on the batching.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from . import linalg, streams
from .complier import (PropensityFit, _centered, centered_interacted_2sls, expit, fit_propensity, logistic_fits,
                       warn_fit)
from .errors import IdentificationError, InfiniteSupportError, InvalidSpecError, NoCompliersError
from .estimators import (Batch, Dataset, _additive, _interacted_additive, additive_2sls, each, interacted_2sls,
                         interacted_additive_2sls)
from .inference import BootstrapResult, _resample_loop, require_distinct, run_replicates, spread
from .linalg import least_squares
from .stratify import stratified, stratified_late

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
    effects averaged under the first two. The other limits are those of
    the estimators run on the design as a weighted sample of its atoms.
    The ``*_projection`` values are the limits of the additive and
    interacted-additive fits, which must agree with the weighted averages
    whenever the instrument-interaction linearity condition holds. Both
    fits see X only through its span, so a design without a constant whose
    cell rows sum to one (a full dummy coding) is recoded with column 0 as
    the constant; any other design without one gets None. ``plim_beta_2sls``
    is the interacted fit's limit. ``plim_xx_first_stage`` and
    ``plim_xx_kappa`` are the limits of the centered interacted fit under
    its two centerings, at the true propensity: None when column 0 is not
    the constant or where the estimator's own complier-share floors
    raise NoCompliersError on the population (P(complier), and for the
    first-stage one also its share E[X c1[0]], at most PC_FLOOR).
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
    plim_taa_projection: float | None
    plim_tia_projection: float | None
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
    x = np.ascontiguousarray(x, dtype=float)  # as a batch stacks it: the fits' rounding depends on its layout
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


def _atoms(spec: DgpSpec) -> tuple[Dataset, np.ndarray]:
    """A finite-support design as a weighted sample of its (cell, z, type) atoms, each weighted by
    its probability, and each atom's instrument propensity. D follows from (z, type); outcomes
    enter every limit linearly, so Y is the type's outcome mean."""
    xs, p, e, pa, pc, y0m, y1m = _cell_arrays(spec.cells)  # y*m: (cell, type)
    # p_always + p_complier may pass one by rounding; generate then draws no never-taker.
    p_type = np.column_stack([np.maximum(1.0 - pa - pc, 0.0), pc, pa])  # in type-code order
    atoms = np.meshgrid(np.arange(len(p)), [0.0, 1.0], [U_NEVER, U_COMPLIER, U_ALWAYS], indexing="ij")
    cell, z, u = (a.ravel() for a in atoms)
    d = ((u == U_ALWAYS) | ((u == U_COMPLIER) & (z == 1.0))).astype(float)
    population = Dataset(np.where(d == 1.0, y1m[cell, u], y0m[cell, u]), d, z, xs[cell],
                         bool(np.all(xs[:, 0] == 1.0)),
                         p[cell] * np.where(z == 1.0, e[cell], 1.0 - e[cell]) * p_type[cell, u])
    return population, e[cell]


def oracle_estimands(spec: DgpSpec) -> OracleEstimands:
    """Compute all population quantities of a finite-support design exactly.

    Everything is an exact finite sum over support cells (and, for the
    regression limits, over the cell-by-instrument-by-type atoms), so
    results carry no Monte Carlo error. The regression limits are the
    public estimators on one weighted ``Dataset`` of the atoms.
    """
    if spec.cells is None:
        raise InfiniteSupportError(
            f"design {spec.name!r} has continuous covariate support; "
            "register closed-form truths instead"
        )
    xs, p, e, _, pc, y0m, y1m = _cell_arrays(spec.cells)  # y*m: (cell, type)
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

    population, e_atoms = _atoms(spec)  # the estimators on it give their limits, floors included
    # ++ and x+ see X only through its span, so a full dummy coding, whose cell
    # rows sum to one, is recoded with its column 0 as the constant.
    spanned = population
    if not population.has_constant and np.all(xs.sum(axis=1) == 1.0):
        spanned = replace(population, x=np.column_stack([np.ones(population.n), population.x[:, 1:]]),
                          has_constant=True)
    plim_xx = {"first-stage": None, "kappa": None}
    for centering in plim_xx if population.has_constant else ():
        try:  # at the true e, unclipped
            plim_xx[centering] = centered_interacted_2sls(population, PropensityFit(e_atoms, None, True),
                                                          centering)
        except NoCompliersError:
            pass

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
        plim_beta_2sls=interacted_2sls(population).beta,
        plim_taa_projection=additive_2sls(spanned) if spanned.has_constant else None,
        plim_tia_projection=interacted_additive_2sls(spanned) if spanned.has_constant else None,
        plim_xx_first_stage=plim_xx["first-stage"],
        plim_xx_kappa=plim_xx["kappa"],
    )


# ---------------------------------------------------------------------------
# Estimator pipelines and studies
# ---------------------------------------------------------------------------

_STRAT_TAG = re.compile(r"^(strat|strata)-([1-9][0-9]*)$")

# A tag's kernel maps a batch and its samples' logistic propensity fits (None where no tag
# needs one) to each sample's estimate, or the error it raised.
_Kernel = Callable[[Batch, list], list]


def _resolve(tag: str) -> tuple[_Kernel, str | None]:
    """Resolve an estimator tag to (kernel, truth kind); see ``pipeline_for``."""
    if tag == "++":
        return (lambda batch, props: each(_additive, batch), "tau_c")
    if tag == "x+":
        return (lambda batch, props: each(_interacted_additive, batch), "tau_c")
    if tag == "xx":
        return (lambda batch, props: each(_centered, batch, props), "tau_c")
    if tag == "beta":
        return (lambda batch, props: [_field(fit, "beta") for fit in batch.interacted], "beta_c")
    match = _STRAT_TAG.fullmatch(tag)
    if match:  # "strata-K" registers no truth
        name, kind = ("tau_star", "tau_c") if match.group(1) == "strat" else ("beta_star", None)
        return (partial(_strata, k=int(match.group(2)), name=name), kind)
    raise ValueError(f"unknown estimator tag {tag!r}")


def _strata(batch: Batch, props, k: int, name: str) -> list:
    """Field ``name`` of each sample's ``stratified`` result at ``k`` requested strata, or the error it
    raised, from one pass per batch and count, kept on the batch: "strat-K" and "strata-K" share it."""
    if k not in batch.strata:
        batch.strata[k] = each(partial(stratified, k=k), batch, props)
    return [_field(result, name) for result in batch.strata[k]]


def _field(result, name: str):
    return result if isinstance(result, Exception) else getattr(result, name)


def _needs_propensity(tag: str) -> bool:
    return tag == "xx" or _STRAT_TAG.fullmatch(tag) is not None


def _evaluate(batch: Batch, tags) -> list[tuple[dict, PropensityFit | Exception | None]]:
    """Per sample of ``batch``: each distinct tag's estimate as a float array, or the error it
    raised, and the sample's logistic propensity fit (None if no tag needs one)."""
    kernels = {tag: _resolve(tag)[0] for tag in tags}
    needed = any(_needs_propensity(tag) for tag in kernels)
    props = logistic_fits(batch) if needed else [None] * len(batch)
    outs: list[dict] = [{} for _ in batch.samples]
    for tag, kernel in kernels.items():
        for out, value in zip(outs, kernel(batch, props)):
            out[tag] = value if isinstance(value, Exception) else np.atleast_1d(np.asarray(value, dtype=float))
    return list(zip(outs, props))


def _settle(outs: dict, prop) -> dict[str, np.ndarray | IdentificationError]:
    """A sample's outcomes as evaluating its tags one by one in order gives them: the
    propensity fit's warnings where the first tag that needs it asks for it, and the first
    error other than an IdentificationError raised where its tag raised it."""
    warned = False
    for tag, out in outs.items():
        if not warned and _needs_propensity(tag):
            warned = True
            if isinstance(prop, PropensityFit):
                warn_fit(prop)
        if isinstance(out, Exception) and not isinstance(out, IdentificationError):
            raise out
    return outs


def evaluate_tags(data: Dataset, tags) -> dict[str, np.ndarray | IdentificationError]:
    """Evaluate estimator tags on one sample, sharing one propensity fit.

    The sample's logistic ``fit_propensity`` is computed once if a tag needs it
    ("xx", "strat-K", "strata-K"), with its warnings where the first such tag asks
    for it; "++", "x+" and "beta" never need it. A bootstrap resample's fit starts
    from its point sample's (see ``fit_propensity``). If the fit fails
    identification, every tag that needs it gets the same error. Returns, per
    distinct tag, its estimate as a float array or the IdentificationError it
    raised; the first other error, in tag order, propagates.
    """
    return _settle(*_evaluate(Batch([data]), tags)[0])


def bootstrap_tags(data: Dataset, tags: list[str], b: int = 1000, alpha: float = 0.05,
                   seed: int = 0) -> dict[str, BootstrapResult]:
    """Bootstrap estimator tags (see ``pipeline_for``) over one shared set of resamples.

    Each sample is evaluated by one ``evaluate_tags`` call. The full sample's logistic fit
    starts from zero and each resample's from its coefficients (see ``fit_propensity``).
    Replicate r draws from the stream (seed, r); each tag's result equals a one-tag run.
    A replicate of another shape than the point's, or not finite, is left out of its tag's
    interval: fewer than half kept give NaN spread and bounds (see ``_resample_loop``).
    Raises ValueError for b < 10, alpha outside (0, 1), or an unknown or repeated tag;
    then, per tag in order, its point estimate's IdentificationError, or
    TooManyFailuresError if fewer than half its replicates are identified.
    """
    return _resample_loop(data, evaluate_tags, tags, b=b, alpha=alpha, seed=seed)


def pipeline_for(tag: str) -> tuple[Callable[[Dataset], np.ndarray], str | None]:
    """Resolve an estimator tag to (pipeline, truth kind).

    Tags: "++" (additive), "x+" (interacted-additive), "xx" (centered
    interacted with a logistic propensity fit), "beta" (interacted
    coefficient vector), "strat-K" (propensity stratification with K
    requested strata, K a positive integer without leading zeros), "strata-K"
    (its per-stratum effects; truth kind None). The pipeline is ``evaluate_tags`` on one tag: it
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

    Replicate r draws from the stream (seed, r). Consecutive replicates
    are evaluated together, in batches of at most ``linalg.BATCH_ROWS``
    rows (one replicate where n is larger), through the kernels of
    ``evaluate_tags``: each replicate factored once, as alone, stacked
    solves, one logistic IRLS per batch and one strata pass per batch and
    requested count, the propensity fitted at most once per replicate and
    shared by the tags that need it. Each replicate's estimates, errors
    and warnings are those of ``evaluate_tags`` on its sample, so the
    batching changes no result. The replicates run through
    ``inference.run_replicates``: failures of in-sample identification
    are counted per estimator and excluded from the summaries and
    estimates, and any other error aborts the study at the first
    replicate and tag that raises it, its message prefixed with the seed
    and replicate. A repeated tag raises ValueError.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    require_distinct(estimators)
    truth = {tag: study_truth(spec, _resolve(tag)[1]) for tag in estimators}
    per_batch = max(1, linalg.BATCH_ROWS // n)
    evaluated: dict[int, tuple | Exception] = {}

    def step(r: int) -> dict[str, np.ndarray | IdentificationError]:
        if r not in evaluated:
            evaluated.update(_evaluate_replicates(spec, n, seed, range(r, min(reps, r + per_batch)), estimators))
        found = evaluated.pop(r)
        if isinstance(found, Exception):
            raise found
        return _settle(*found)

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
            sd[tag] = spread(stacked) if stacked.shape[0] > 1 else np.zeros(truth[tag].size)
    return McSummary(
        truth=truth, bias=bias, sd=sd, failures=failures, estimates=estimates, replicates=replicates
    )


def _evaluate_replicates(spec: DgpSpec, n: int, seed: int, replicates: range, tags) -> dict:
    """The leading ``replicates`` of a study evaluated as one batch, up to the first whose sample
    differs in its constant flag; a replicate whose ``generate`` raises ends the batch with
    its error in place of its outcomes."""
    samples: list[Dataset] = []
    found: dict[int, tuple | Exception] = {}
    for r in replicates:
        try:
            data = generate(spec, n, seed, replicate=r)[0]
        except Exception as exc:
            found[r] = exc
            break
        if samples and data.has_constant != samples[0].has_constant:
            break
        samples.append(data)
    if samples:
        batch = Batch.stacked(samples)
        samples.clear()
        found.update(zip(replicates, _evaluate(batch, tags)))
    return found


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
