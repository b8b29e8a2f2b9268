"""Numerical laboratory for threshold dynamics of the focusing
intercritical nonlinear Schroedinger equation: ground states, the
linearized spectrum, recursive approximate special solutions, threshold
experiments and their classification diagnostics."""

__version__ = "0.1.0"

from .grid import Field, RadialGrid, h1_norm, make_grid
from .ground import (
    GroundProfile,
    IdentityReport,
    Observables,
    check_identities,
    observables,
    solve_ground,
)
from .linearized import (
    LinearizedOps,
    SpectrumData,
    assemble,
    bilinear_B,
    compute_spectrum,
    coercivity_min,
    linearized_energy_phi,
    resolvent_solve,
)
from .approx import ApproxSolution, build_Vk, expand_R, lp_mul, lp_pow_frac, residual_rate
from .evolve import EvolverConfig, TimeSeries, Verdict, classify_run, diagnostics, evolve
from .modulation import ModulationFrame, fit_parameters, track
from .experiments import ThresholdReport, run_special, synthesize_UA, threshold_sweep
from .config import RunConfig, load_config

__all__ = [name for name in dir() if not name.startswith("_")]
