"""The pipeline at N = 2 and N >= 4, where Q, L_+/L_- and the time stepper
must share one discrete Laplacian for the kernel relations to hold."""

import numpy as np
import pytest

from nlslab.approx import build_Vk
from nlslab.cli import Pipeline
from nlslab.evolve import EvolverConfig, evolve
from nlslab.grid import Field, make_grid
from nlslab.ground import solve_ground
from nlslab.linearized import assemble, coercivity_min, compute_spectrum


@pytest.mark.parametrize("N, p", [(2, 4.0), (4, 2.5), (5, 2.0)])
def test_pipeline_across_dimensions(N, p):
    gp = solve_ground(make_grid(N, 30.0, 1500), p)
    ops = assemble(gp)
    q = ops.restrict(gp.Q).real
    scale = float(np.max(gp.Q.values.real)) ** p
    assert np.max(np.abs(ops.apply_lminus(q))) <= 1e-9 * scale
    assert np.max(np.abs(ops.apply_lplus(q) - (1 - p) * q**p)) <= 1e-9 * scale

    spec = compute_spectrum(ops)
    tol = Pipeline.BOUNDS["eigen_residuals"]
    assert spec.e0 > 0
    assert spec.residual_plus <= tol and spec.residual_minus <= tol
    assert spec.negative_directions == 1
    assert coercivity_min(ops, spec, "Gperp") > 0
    assert coercivity_min(ops, spec, "Gtildeperp") > 0
    # the resolvent recursion's drift check passes at order 2
    build_Vk(1.0, 2, spec, ops)

    # Q is a standing wave of the discrete flow: e^{it} Q up to time error
    cfg = EvolverConfig(dt=1e-3, t_end=0.5, order=4, sample_every=50)
    series, _ = evolve(Field(gp.grid, gp.Q.values.copy()), 0.0, cfg, p,
                       reference=gp)
    assert np.max(series.dist_q) <= 1e-2
