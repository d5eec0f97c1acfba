"""Stationary entanglement of two bosonic polaritons via a dispersively
coupled third mode: Gaussian steady states from linearized dynamics,
logarithmic negativity, and reproducible parameter sweeps."""

__version__ = "0.1.0"

from . import errors
from .dynamics import PipelineResult, build_diffusion, build_drift, run_pipeline
from .experiments import (
    Baseline,
    SweepAxis,
    SweepRecord,
    SweepResult,
    SweepSpec,
    default_baseline,
    run_sweep,
)
from .gaussian import (
    GaussianState,
    log_negativity,
    min_physicality_eig,
    reduce_two_mode,
    solve_lyapunov,
    stability,
    symplectic_eigenvalues,
)
from .model import (
    EffectiveCouplings,
    PolaritonBasis,
    SystemParams,
    drive_for_target_g_minus,
    hybridize,
    solve_g_omega_c_from_theta,
    steady_state_amplitudes,
    thermal_occupation,
)

__all__ = [
    "Baseline",
    "EffectiveCouplings",
    "GaussianState",
    "PipelineResult",
    "PolaritonBasis",
    "SweepAxis",
    "SweepRecord",
    "SweepResult",
    "SweepSpec",
    "SystemParams",
    "build_diffusion",
    "build_drift",
    "drive_for_target_g_minus",
    "errors",
    "hybridize",
    "log_negativity",
    "min_physicality_eig",
    "default_baseline",
    "reduce_two_mode",
    "run_pipeline",
    "run_sweep",
    "solve_g_omega_c_from_theta",
    "solve_lyapunov",
    "stability",
    "steady_state_amplitudes",
    "symplectic_eigenvalues",
    "thermal_occupation",
]
