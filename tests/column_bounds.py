"""How far a result of the column path may sit from ``Baseline.evaluate``.

Sweeps run the model layer on numpy columns; ``Baseline.evaluate`` runs
it on Python floats through :mod:`math`.  numpy's ``expm1``, ``arctan2``,
``hypot``, complex multiply and ``abs`` round differently from
:mod:`math` and CPython's in the last bit for some inputs, and the drift
carries those ulps into the covariance, amplified by its conditioning.

On every default grid (and a 50-point log ``kappa_b`` line) the sweep
rows sit within 6.2e-12 max(E_N, 1e-3) of the point path in E_N,
5.7e-15 omega_b in ``max_re_eig`` and 2e-15 relative in couplings,
detunings and angles.  On random parameters the absolute E_N error
grows with the covariance norm (3.7e-15 ||V||_F at most over 3000
stable draws, where the relative error reached 3.9e-10 at
E_N = 5.7e-4 with ||V||_F near 100), and covariances agree to 3.3e-11.
"""

import math

import numpy as np
import pytest

from entangle.cli import RECORD_COLUMNS
from entangle.model import TWO_PI

#: sweep rows against the point path: E_N, in units of max(E_N, 1e-3)
E_N_RTOL = 1e-11
#: max_re_eig, in units of omega_b
MAX_RE_RTOL = 1e-13
#: couplings, detunings, angles and drive strengths, relative
MODEL_RTOL = 1e-13
#: random parameters: covariances, relative in the Frobenius norm
COV_RTOL = 1e-9
#: random parameters: E_N, in units of max(1, ||V||_F)
E_N_COV_ATOL = 1e-12

NEGATIVITIES = ("e_n_pp", "e_n_mb", "e_n_pb")


def axis_points(result):
    """The grid point of each row of a ``SweepResult``: a tuple of its
    axis values, as the kind's point map takes them."""
    return list(zip(*(result.columns[name].tolist() for name in result.axis_names)))


def point_record(names, axis, result):
    """One row of ``SweepResult.columns`` from a ``PipelineResult``: the
    axis values ``axis`` under ``names``, then the outputs, with NaN
    negativities where the point is unstable."""
    e_n = [math.nan if value is None else value
           for value in (result.e_n_pp, result.e_n_mb, result.e_n_pb)]
    return {
        **dict(zip(names, map(float, axis))),
        **dict(zip(NEGATIVITIES, e_n)),
        "stable": result.stable,
        "max_re_eig": result.max_re_eig,
        "abs_g_plus": abs(result.couplings.g_plus) / TWO_PI,
        "abs_g_minus": abs(result.couplings.g_minus) / TWO_PI,
        "theta": result.basis.theta,
        "delta_plus": result.basis.delta_plus / TWO_PI,
        "delta_minus": result.basis.delta_minus / TWO_PI,
    }


def assert_record_close(columns, row, reference, omega_b):
    """Row ``row`` of ``SweepResult.columns`` against the
    :func:`point_record` of ``Baseline.evaluate``."""
    record = {name: column[row].item() for name, column in columns.items()}
    assert record.keys() == reference.keys()
    exact = [name for name in record if name not in RECORD_COLUMNS] + ["stable"]
    assert [record[name] for name in exact] == [reference[name] for name in exact]
    for name in NEGATIVITIES:
        value, expected = record[name], reference[name]
        assert math.isnan(value) == math.isnan(expected), name
        if not math.isnan(expected):
            assert abs(value - expected) <= E_N_RTOL * max(expected, 1e-3), name
    assert abs(record["max_re_eig"] - reference["max_re_eig"]) <= MAX_RE_RTOL * omega_b
    for name in ("abs_g_plus", "abs_g_minus", "theta", "delta_plus", "delta_minus"):
        assert record[name] == pytest.approx(reference[name], rel=MODEL_RTOL, abs=0.0), name


def assert_row_close(columns, row, point, omega_b, e_n_rtol=E_N_RTOL):
    """Row ``row`` of a ``PipelineColumns`` against a ``PipelineResult``.

    With ``e_n_rtol`` None the negativities are held to the random-
    parameter bound ``E_N_COV_ATOL * max(1, ||V||_F)`` instead.
    """
    assert bool(columns.stable[row]) == point.stable
    assert abs(columns.max_re_eig[row] - point.max_re_eig) <= MAX_RE_RTOL * omega_b
    assert columns.drive_strength[row] == pytest.approx(
        point.drive_strength, rel=MODEL_RTOL, abs=0.0)
    for part in ("basis", "couplings"):
        for name, expected in getattr(point, part)._asdict().items():
            value = getattr(getattr(columns, part), name)[row]
            assert value == pytest.approx(expected, rel=MODEL_RTOL, abs=0.0), name
    if not point.stable:
        assert np.isnan(columns.covs[row]).all()
        assert all(np.isnan(getattr(columns, name)[row]) for name in NEGATIVITIES)
        return
    cov = point.state.cov
    assert np.linalg.norm(columns.covs[row] - cov) <= COV_RTOL * np.linalg.norm(cov)
    for name in NEGATIVITIES:
        value, expected = getattr(columns, name)[row], getattr(point, name)
        if e_n_rtol is None:
            bound = E_N_COV_ATOL * max(1.0, np.linalg.norm(cov))
        else:
            bound = e_n_rtol * max(expected, 1e-3)
        assert abs(value - expected) <= bound, name
