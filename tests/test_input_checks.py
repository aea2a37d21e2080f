"""Every library input check raises its class with its message.

Each case is a call that reaches one check that no other test reaches,
with the exception class and the exact message it must raise.
"""

from dataclasses import replace

import numpy as np
import pytest
from _helpers import simulate_iv

from ivlate.complier import centered_interacted_2sls, fit_propensity
from ivlate.errors import IdentificationError, InvalidSpecError
from ivlate.estimators import (
    Dataset,
    additive_2sls,
    generalized_additive_2sls,
    interacted_additive_2sls,
    stratum_wald,
)
from ivlate.linalg import least_squares
from ivlate.montecarlo import DgpCell, dgp_b, dgp_c, from_cells, generate, regressogram_deviation, study_truth
from ivlate.streams import substream
from ivlate.stratify import partition_by_propensity


def no_constant():
    data = simulate_iv(31, n=60)
    return replace(data, has_constant=False)


def no_complier_cells():
    return from_cells("none", (DgpCell(x=(1.0,), prob=1.0, e=0.5, p_always=0.3, p_complier=0.0),))


def malformed_sampler():
    return replace(dgp_b(), draw_covariates=lambda rng, n: (np.ones((n, 2)), None))


def nobody_treated():
    """Design C with no always-takers and no compliers: no unit is treated, so no
    stratification has a first stage."""
    return replace(dgp_c(), p_always=lambda x: np.zeros(len(x)), p_complier=lambda x: np.zeros(len(x)))


CASES = {
    "additive without constant": (
        lambda: additive_2sls(no_constant()),
        ValueError, "additive_2sls requires a dataset with a constant column"),
    "interacted-additive without constant": (
        lambda: interacted_additive_2sls(no_constant()),
        ValueError, "interacted_additive_2sls requires a dataset with a constant column"),
    "generalized without constant": (
        lambda: generalized_additive_2sls(no_constant(), lambda z, x: [z, *x]),
        ValueError, "generalized_additive_2sls requires a dataset with a constant column"),
    "centered without constant": (
        lambda: centered_interacted_2sls(no_constant(), fit_propensity(no_constant(), np.full(60, 0.5))),
        ValueError, "centered_interacted_2sls requires a dataset with a constant column"),
    "from_arrays row mismatch": (
        lambda: Dataset.from_arrays(np.zeros(8), np.zeros(8), np.zeros(7), np.ones((8, 1))),
        ValueError, "y, d, z, x must share the same number of rows"),
    "stratum labels of the wrong length": (
        lambda: stratum_wald(simulate_iv(32, n=40), np.zeros(39)),
        ValueError, "stratum_labels must have one entry per unit"),
    "unknown propensity spec": (
        lambda: fit_propensity(simulate_iv(33, n=40), "probit"),
        ValueError, "unknown propensity spec 'probit'"),
    "supplied propensities of the wrong length": (
        lambda: fit_propensity(simulate_iv(33, n=40), np.full(39, 0.5)),
        ValueError, "supplied propensity vector has the wrong length"),
    "least squares on empty input": (
        lambda: least_squares(np.zeros(0), np.zeros((0, 2))),
        ValueError, "responses must be a nonempty vector or 2-d array"),
    "least squares row mismatch": (
        lambda: least_squares(np.zeros(3), np.ones((4, 1))),
        ValueError, "responses have 3 rows, regressors 4"),
    "partition with non-binary z": (
        lambda: partition_by_propensity(np.linspace(0, 1, 6), 2, [0, 1, 2, 0, 1, 0], np.zeros(6)),
        ValueError, "z must be a binary vector with one entry per unit"),
    "partition with non-binary d": (
        lambda: partition_by_propensity(np.linspace(0, 1, 6), 2, np.tile([0, 1], 3), [0, 0.5, 1, 0, 1, 0]),
        ValueError, "d must be a binary vector with one entry per unit"),
    "substream with a negative path entry": (
        lambda: substream(1, -2),
        ValueError, "stream path entries must be non-negative integers"),
    "design without cells": (
        lambda: from_cells("empty", ()),
        InvalidSpecError, "a finite-support design needs at least one cell"),
    "sampler returning a malformed matrix": (
        lambda: generate(malformed_sampler(), 10, seed=0),
        InvalidSpecError, "covariate sampler returned a malformed matrix"),
    "design without compliers": (
        lambda: study_truth(no_complier_cells(), "tau_c"),
        InvalidSpecError, "the design admits no compliers"),
    "unregistered truth": (
        lambda: study_truth(replace(dgp_b(), tau_c_value=None), "tau_c"),
        InvalidSpecError, "design 'B' registers no truth for tau_c"),
    "every regressogram replicate unidentified": (
        lambda: regressogram_deviation(nobody_treated(), n=200, reps=3, k=2, seed=0),
        IdentificationError, "every replicate failed stratification"),
}


@pytest.mark.parametrize("case", CASES)
def test_input_check_raises_its_class_and_message(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
