"""How far a result of the column path may sit from ``Baseline.evaluate``.

Sweeps run the model layer on numpy columns; ``Baseline.evaluate`` runs
it on Python floats through :mod:`math`.  numpy's ``expm1``, ``arctan2``,
``hypot``, complex multiply and ``abs`` round differently from
:mod:`math` and CPython's in the last bit for some inputs, and the drift
carries those ulps into the covariance, amplified by its conditioning.

On every default grid (and a 50-point log ``kappa_b`` line) the column
records sit within 6.2e-12 max(E_N, 1e-3) of the point path in E_N,
5.7e-15 omega_b in ``max_re_eig`` and 2e-15 relative in couplings,
detunings and angles.  On random parameters the absolute E_N error
grows with the covariance norm (3.7e-15 ||V||_F at most over 3000
stable draws, where the relative error reached 3.9e-10 at
E_N = 5.7e-4 with ||V||_F near 100), and covariances agree to 3.3e-11.
"""

import numpy as np
import pytest

from entangle.experiments import SweepRecord
from entangle.model import TWO_PI

#: sweep records against the point path: E_N, in units of max(E_N, 1e-3)
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


def point_record(axis, result):
    """The :class:`SweepRecord` of ``axis`` from a ``PipelineResult``."""
    return SweepRecord(
        axis=tuple(float(a) for a in axis),
        e_n_pp=result.e_n_pp,
        e_n_mb=result.e_n_mb,
        e_n_pb=result.e_n_pb,
        stable=result.stable,
        max_re_eig=result.max_re_eig,
        abs_g_plus=abs(result.couplings.g_plus) / TWO_PI,
        abs_g_minus=abs(result.couplings.g_minus) / TWO_PI,
        theta=result.basis.theta,
        delta_plus=result.basis.delta_plus / TWO_PI,
        delta_minus=result.basis.delta_minus / TWO_PI,
    )


def assert_record_close(record, reference, omega_b):
    """A sweep record against the record of ``Baseline.evaluate``."""
    assert (record.axis, record.stable) == (reference.axis, reference.stable)
    for name in NEGATIVITIES:
        value, expected = getattr(record, name), getattr(reference, name)
        assert (value is None) == (expected is None), name
        if expected is not None:
            assert abs(value - expected) <= E_N_RTOL * max(expected, 1e-3), name
    assert abs(record.max_re_eig - reference.max_re_eig) <= MAX_RE_RTOL * omega_b
    for name in ("abs_g_plus", "abs_g_minus", "theta", "delta_plus", "delta_minus"):
        assert getattr(record, name) == pytest.approx(
            getattr(reference, name), rel=MODEL_RTOL, abs=0.0), name


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
