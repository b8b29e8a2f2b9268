"""Test oracles: closed forms and reference quantities that no command
computes, kept beside the tests that hold the package against them,
``evolve_snapshots``, the snapshot list no command keeps,
``sturm_count``, the pivot loop that ``Tridiag.count_negative`` hands to
LAPACK, and ``write_snapshot_archive``, the archive writer that formats
every member's header."""

import sys
import zipfile

import numpy as np

from nlslab.evolve import Evolver, EvolverConfig, evolve
from nlslab.grid import Field, RadialGrid, gradient_values, make_grid
from nlslab.ground import GroundProfile, solve_ground, validate_intercritical


def closed_form_1d(p: float, grid: RadialGrid) -> GroundProfile:
    """Explicit 1d profile Q(x) = ((p+1)/2)^{1/(p-1)} sech^{2/(p-1)}((p-1)x/2).

    Oracle for solve_ground; the ode_residual is evaluated by substituting
    the analytic second derivative, not the grid stencil.
    """
    validate_intercritical(1, p)
    c = ((p + 1) / 2.0) ** (1.0 / (p - 1.0))
    alpha = 2.0 / (p - 1.0)
    beta = (p - 1.0) / 2.0
    x = grid.r
    sech = 1.0 / np.cosh(beta * x)
    tanh = np.tanh(beta * x)
    q = c * sech ** alpha
    qpp = c * alpha * beta**2 * sech**alpha * (alpha * tanh**2 - sech**2)
    resid = float(np.max(np.abs(qpp - q + q**p)))
    qgrid = q.copy()
    qgrid[-1] = 0.0
    return GroundProfile(
        Q=Field(grid, qgrid),
        p=float(p),
        c_q=float(c * 2.0**alpha),  # sech^a ~ 2^a e^{-a beta x} = 2^a e^{-x}
        ode_residual=resid, petviashvili_iters=0, newton_iters=0,
    )


def extrapolated_ground(N: int, p: float, rmax: float, n: int):
    """Richardson's (4 Q_{2n} - Q_n)/3 on the nodes of the n-grid: the
    O(h^2) error of the discrete ground states removed, an oracle for the
    continuum Q that no command computes."""
    coarse = solve_ground(make_grid(N, rmax, n), p).Q.values.real
    fine = solve_ground(make_grid(N, rmax, 2 * n), p).Q.values.real
    return (4.0 * fine[::2] - coarse) / 3.0


def sturm_count(diag, sub) -> int:
    """Negative eigenvalues of the symmetric tridiagonal (sub, diag, sub):
    the negative pivots of L D L^T, d_i = diag_i - sub_{i-1}^2 / d_{i-1},
    a pivot smaller in magnitude than pivmin replaced by -pivmin, as in
    LAPACK's bisection (dstebz)."""
    b2 = (np.asarray(sub) ** 2).tolist()
    pivmin = sys.float_info.min * max(1.0, max(b2, default=0.0))
    count, d = 0, 1.0
    for a, bb in zip(np.asarray(diag).tolist(), [0.0] + b2):
        d = a - bb / d
        if abs(d) < pivmin:
            d = -pivmin
        count += d < 0.0
    return count


def closed_form_W(grid: RadialGrid) -> Field:
    """Static H1-critical profile W(r) = (1 + r^2/(N(N-2)))^{-(N-2)/2}, N >= 3."""
    N = grid.N
    w = (1.0 + grid.r**2 / (N * (N - 2))) ** (-(N - 2) / 2.0)
    return Field(grid, w)


def evolve_snapshots(u0: Field, t0: float, cfg: EvolverConfig, p: float,
                     reference: GroundProfile | None = None):
    """``evolve`` with a sink that keeps every snapshot: (series, [(t, Field)])."""
    snaps = []
    series, _ = evolve(u0, t0, cfg, p, reference,
                       sink=lambda t, values: snaps.append((t, Field(u0.grid, values))))
    return series, snaps


def step(u: Field, dt: float, cfg: EvolverConfig, p: float,
         evolver: Evolver | None = None) -> Field:
    """One whole step of size dt (its sign sets the time direction)."""
    ev = evolver if evolver is not None else Evolver(u.grid, p, cfg)
    return Field(u.grid, ev.step_values(u.values, dt))


def variance(u: Field) -> float:
    """Full variance V = int r^2 |u|^2."""
    return float(np.dot(u.grid.w, u.grid.r**2 * np.abs(u.values) ** 2))


def variance_rate(u: Field) -> float:
    """V' = 4 Im int r u' ubar, the radial form of 4 Im int x . grad(u) ubar."""
    du = gradient_values(u.grid, u.values)
    integrand = (u.grid.r * du * np.conj(u.values)).imag
    return 4.0 * float(np.dot(u.grid.w, integrand))


def track_ratios(frames, gp: GroundProfile) -> dict:
    """The two equivalence channels of ``modulation.track``'s frames, NaN
    at gaps:

      alpha_over_drel  |alpha| ||grad Q|| / d     (gradient-relative d;
                       alpha is dimensionless while d scales with
                       ||grad Q||, so the equivalence constants are O(1))
      h_over_d         ||h||_{H1} / d
    """
    gq = gp.obs.grad

    def chan(fn):
        return np.array([fn(f) if f is not None else np.nan for f in frames])

    tiny = 1e-300
    return {
        "alpha_over_drel": chan(lambda f: abs(f.alpha) * gq / max(f.d, tiny)),
        "h_over_d": chan(lambda f: f.h_norm / max(f.d, tiny)),
    }


def write_snapshot_archive(path, grid: RadialGrid, snapshots) -> None:
    """The snapshot archive as ``evolve``'s sink once wrote it: each
    (t, values) of ``snapshots`` a member ``snap_<i>.npy`` streamed through
    ``ZipFile.open(name, "w")`` and numpy's ``write_array``, which formats
    the ``.npy`` header anew for every member."""
    table = np.empty((grid.n + 1, 3))
    table[:, 0] = grid.r
    with zipfile.ZipFile(path, "w") as archive:
        for i, (_, values) in enumerate(snapshots):
            table[:, 1], table[:, 2] = values.real, values.imag
            with archive.open(f"snap_{i:05d}.npy", "w") as fh:
                np.lib.format.write_array(fh, table, allow_pickle=False)
