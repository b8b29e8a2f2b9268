import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import eigh

from nlslab.approx import build_Vk
from nlslab.banded import Tridiag
from nlslab.errors import SingularSystemError, SpectralFailureError
from nlslab.evolve import Evolver, EvolverConfig
from nlslab.grid import Field, gradient_values, h1_norm, make_grid
from nlslab.ground import solve_ground
from nlslab.linearized import (assemble, bilinear_B, coercivity_min,
                               compute_spectrum, linearized_energy_phi,
                               resolvent_solve, scaling_generator)
from oracles import closed_form_W


def smooth(grid, rng, width=2.0):
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    vals = sum(ci * np.exp(-((grid.r - 1.5 * i) ** 2) / width)
               for i, ci in enumerate(c))
    vals[-1] = 0.0
    return Field(grid, vals)


# ---------------------------------------------------------------- assembly

def test_symmetrized_matrices_are_symmetric(ops33):
    for sym_op, V in ((ops33.lp, ops33.gp.p * ops33.potential),
                      (ops33.lm, ops33.potential)):
        op = ops33.op.schrodinger(V)
        off = sym_op.sup
        off_from_below = op.sub * ops33.sym[1:] / ops33.sym[:-1]
        assert np.max(np.abs(off - off_from_below)) < 1e-9 * np.max(np.abs(op.diag))


def _bits(t):
    return [(b.dtype, b.tobytes()) for b in (t.sub, t.diag, t.sup)]


@pytest.mark.parametrize("case", ["33", "17"])
def test_schrodinger_is_each_hand_built_matrix_bit_for_bit(case, request):
    """``RadialOperator.schrodinger`` against the expressions it replaced,
    kept here as oracles: Petviashvili's L, the rows of L_+ and L_-, the
    symmetrized H1 form, the Crank-Nicolson lhs at +-dt with the sponge on,
    and one Newton step of the ground solver."""
    gp, ops = request.getfixturevalue(f"gp{case}"), request.getfixturevalue(f"ops{case}")
    op, lap, s, p = ops.op, ops.op.lap, ops.sym, gp.p
    W = ops.potential
    assert _bits(op.schrodinger(0.0)) == _bits(Tridiag(-lap.sub, 1.0 - lap.diag, -lap.sup))
    lplus = Tridiag(-lap.sub, 1.0 - lap.diag - p * W, -lap.sup)
    lminus = Tridiag(-lap.sub, 1.0 - lap.diag - W, -lap.sup)
    assert _bits(op.schrodinger(p * W)) == _bits(lplus)
    assert _bits(op.schrodinger(W)) == _bits(lminus)
    assert _bits(ops.lp) == _bits(lplus.symmetrize(s))
    assert _bits(ops.lm) == _bits(lminus.symmetrize(s))
    assert _bits(ops.h) == _bits(Tridiag(-lap.sub, 1.0 - lap.diag, -lap.sup).symmetrize(s))

    ev = Evolver(gp.grid, p, EvolverConfig(sponge=True))
    assert np.any(ev.sigma > 0)
    for dt in (1e-3, -1e-3):
        cn = Tridiag(-1j * dt / 2 * lap.sub,
                     1.0 - 1j * dt / 2 * lap.diag + abs(dt) / 2 * ev.sigma,
                     -1j * dt / 2 * lap.sup)
        assert _bits(ev._cn(dt)) == _bits(cn)

    q = op.rows(gp.Q.values.real) * (1.0 + 0.01 * np.cos(op.rows(gp.grid.r)))
    V = p * np.abs(q) ** (p - 1)
    F = lap.apply(q) - q + np.abs(q) ** (p - 1) * q
    step = Tridiag(lap.sub, lap.diag - 1.0 + V, lap.sup).solve(-F)
    assert op.schrodinger(V).solve(F).tobytes() == step.tobytes()


def test_operators_are_made_once_per_ground_state(gp33, monkeypatch):
    """``assemble`` symmetrizes L_+, L_- and 1 - Delta_h once each; the
    spectrum, both coercivity minima and the resolvent solves of
    ``build_Vk`` read them and symmetrize nothing."""
    calls = []
    real = Tridiag.symmetrize

    def spy(self, sym):
        calls.append(1)
        return real(self, sym)

    monkeypatch.setattr(Tridiag, "symmetrize", spy)
    ops = assemble(gp33)
    assert len(calls) == 3
    calls.clear()
    spec = compute_spectrum(ops)
    for subspace in ("Gperp", "Gtildeperp"):
        coercivity_min(ops, spec, subspace)
    build_Vk(1.0, 3, spec, ops)
    assert len(calls) == 0


def test_kernel_relation_lminus_q(gp33, ops33):
    q = ops33.restrict(gp33.Q).real
    res = ops33.apply_lminus(q)
    assert np.max(np.abs(res)) <= 1e-6 * np.max(np.abs(gp33.Q.values))


def test_lplus_q_equals_one_minus_p_qp(gp33, ops33):
    q = ops33.restrict(gp33.Q).real
    res = ops33.apply_lplus(q) - (1 - gp33.p) * q**gp33.p
    assert np.max(np.abs(res)) <= 1e-8 * np.max(q**gp33.p)


def test_scaling_generator_relation(gp33, ops33):
    """L_+ (Lam Q) = -2 Q in the rescaled convention, to O(h^2)."""
    lam = ops33.restrict(scaling_generator(gp33)).real
    q = ops33.restrict(gp33.Q).real
    res = ops33.apply_lplus(lam) + 2.0 * q
    scale = np.max(np.abs(q)) ** gp33.p
    assert np.max(np.abs(res)) <= 30 * gp33.grid.h**2 * scale


# ---------------------------------------------------------------- B and Phi

def test_B_symmetric(ops33, rng):
    f = smooth(ops33.grid, rng)
    g = smooth(ops33.grid, rng)
    assert bilinear_B(f, g, ops33) == pytest.approx(bilinear_B(g, f, ops33),
                                                    abs=1e-12 * 100)


def test_B_iQ_vanishes(gp33, ops33, rng):
    iq = Field(gp33.grid, 1j * gp33.Q.values)
    f = smooth(ops33.grid, rng)
    assert abs(bilinear_B(iq, f, ops33)) <= 1e-8 * h1_norm(f)


def test_B_scaling_generator_pairing(gp33, ops33, rng):
    """B(Lam Q, f) = -(Q, f_1)_{L2}: direct consequence of the scaling
    relation L_+ (Lam Q) = -2 Q in the rescaled convention."""
    lam = scaling_generator(gp33)
    f = smooth(ops33.grid, rng)
    lhs = bilinear_B(lam, f, ops33)
    rhs = -float(np.dot(gp33.grid.w, gp33.Q.values.real * f.values.real))
    assert lhs == pytest.approx(rhs, abs=60 * gp33.grid.h**2 * h1_norm(f))


def test_B_antisymmetry_under_script_l(ops33, rng):
    f = smooth(ops33.grid, rng)
    g = smooth(ops33.grid, rng)
    lf = ops33.extend(ops33.apply_script_l(ops33.restrict(f)))
    lg = ops33.extend(ops33.apply_script_l(ops33.restrict(g)))
    resid = bilinear_B(lf, g, ops33) + bilinear_B(f, lg, ops33)
    assert abs(resid) <= 1e-7 * h1_norm(f) * h1_norm(g)


def test_phi_q_negative_with_derived_coefficient(gp33, ops33):
    """Phi(Q) = (1-p)/2 int Q^{p+1} < 0, the coefficient that follows from
    L_+ Q = (1-p) Q^p by substitution."""
    phi = linearized_energy_phi(gp33.Q, ops33)
    target = (1 - gp33.p) / 2.0 * float(
        np.dot(gp33.grid.w, gp33.Q.values.real ** (gp33.p + 1)))
    assert phi == pytest.approx(target, rel=1e-8)
    assert phi < 0


def test_phi_iq_vanishes(gp33, ops33):
    iq = Field(gp33.grid, 1j * gp33.Q.values)
    assert abs(linearized_energy_phi(iq, ops33)) <= 1e-8


def test_phi_W_critical_value():
    """Phi(W) = -2/((N-2) C_N^N) with C_N the measured Sobolev quotient.

    At the H1-critical power p_c = (N+2)/(N-2) the linearized energy
    around the static profile W is
    Phi(W) = 1/2 int |grad W|^2 - p_c/2 int W^{p_c+1}; W decays only
    polynomially, so it is evaluated in this integral form, not through
    the banded operator, whose Dirichlet row would corrupt the boundary
    cell."""
    N = 5
    p_c = (N + 2.0) / (N - 2.0)
    g = make_grid(N, 120.0, 12000)
    w = closed_form_W(g).values.real
    grad2 = float(np.dot(g.w, gradient_values(g, w) ** 2))
    phi = 0.5 * grad2 - 0.5 * p_c * float(np.dot(g.w, w ** (p_c + 1)))
    lp = float(np.dot(g.w, w ** (p_c + 1))) ** (1.0 / (p_c + 1))
    c_n = lp / math.sqrt(grad2)
    target = -2.0 / ((N - 2) * c_n**N)
    assert phi < 0
    assert phi == pytest.approx(target, rel=1e-2)


# ---------------------------------------------------------------- spectrum

def test_spectrum_eigen_residuals(spec33):
    assert spec33.residual_plus <= 1e-6
    assert spec33.residual_minus <= 1e-6


def test_spectrum_q_orthogonality(spec33):
    assert spec33.q_overlap <= 1e-8


def test_spectrum_normalization_and_sign(gp33, ops33, spec33):
    w = gp33.grid.w
    ip12 = float(np.dot(w, spec33.Y1.values.real * spec33.Y2.values.real))
    # (Y1, Y2) = -1/e0 is forced by the eigenpair; B(Y+, Y-) = e0 (Y1, Y2) = -1
    assert ip12 == pytest.approx(-1.0 / spec33.e0, rel=1e-8)
    yp = Field(gp33.grid, spec33.y_plus_values())
    ym = Field(gp33.grid, np.conj(spec33.y_plus_values()))
    assert bilinear_B(yp, ym, ops33) == pytest.approx(-1.0, abs=1e-10)
    # sign convention (Q, Y1)_{H1} > 0
    q = gp33.Q.values.real
    y1 = spec33.Y1.values.real
    h = gp33.grid.h
    ip_h1 = float(np.dot(w, q * y1)
                  + np.dot(w, np.gradient(q, h) * np.gradient(y1, h)))
    assert ip_h1 > 0


def test_phi_yplus_vanishes(gp33, ops33, spec33):
    yp = Field(gp33.grid, spec33.y_plus_values())
    assert abs(linearized_energy_phi(yp, ops33)) <= 1e-8


def test_spectrum_simplicity_proxy(spec33):
    assert spec33.negative_directions == 1


def test_spectrum_rejects_a_profile_without_negative_direction(gp33):
    """At 0.1 Q the potential p (0.1 Q)^{p-1} is too shallow for L_+ to have
    a negative eigenvalue, so there is no e0 to find."""
    weak = dataclasses.replace(
        gp33, Q=Field(gp33.grid, 0.1 * gp33.Q.values))
    with pytest.raises(SpectralFailureError, match="no negative eigenvalue"):
        compute_spectrum(assemble(weak))


def _dense(t):
    return np.diag(t.diag) + np.diag(t.sup, 1) + np.diag(t.sub, -1)


def _null_space(rows):
    return np.linalg.svd(np.array(rows), full_matrices=True)[2][len(rows):].T


@pytest.mark.parametrize("case", ["33", "17"])
def test_banded_spectral_layer_matches_dense_oracle(case, request):
    """e0, both coercivity minima and the count of negative directions of
    L_+ on {Q}^perp against dense eigensolves on the n = 1500 grid."""
    ops = request.getfixturevalue(f"ops{case}")
    spec = request.getfixturevalue(f"spec{case}")
    Lp, Lm = _dense(ops.lp), _dense(ops.lm)
    s = ops.sym
    q = ops.restrict(ops.gp.Q).real
    Z = _null_space([s * q])
    # -1/e0^2 = bottom of B (L+)^{-1} B on {Q}^perp, B = (L- on {Q}^perp)^{-1/2}:
    # the inverse of A L+ A (A = B^{-1}), whose bottom is -e0^2.  Its norm
    # is O(1), so its roundoff stays far below the 1e-9 bound, where that
    # of A L+ A (eps times its norm, ~1e-9 at (1, 7)) does not.
    lam, V = eigh(Z.T @ Lm @ Z)
    B = (V / np.sqrt(lam)) @ V.T
    C = B @ np.linalg.solve(Z.T @ Lp @ Z, B)
    mu = eigh(0.5 * (C + C.T), eigvals_only=True, subset_by_index=[0, 0])
    assert spec.e0 == pytest.approx(1.0 / math.sqrt(-mu[0]), rel=1e-9)
    dense_count = np.count_nonzero(eigh(Z.T @ Lp @ Z, eigvals_only=True) < 0)
    assert spec.negative_directions == dense_count == 1

    lap = ops.op.lap
    H = _dense(Tridiag(-lap.sub, 1.0 - lap.diag, -lap.sup).symmetrize(s))
    y1 = ops.restrict(spec.Y1).real
    y2 = ops.restrict(spec.Y2).real
    sectors = {"Gperp": ((Lp, [q**ops.gp.p]), (Lm, [q])),
               "Gtildeperp": ((Lp, [y2]), (Lm, [q, y1]))}
    for subspace, pair in sectors.items():
        minima = []
        for L, rows in pair:
            Zc = _null_space([s * c for c in rows])
            minima.append(eigh(0.5 * Zc.T @ L @ Zc, Zc.T @ H @ Zc,
                               eigvals_only=True, subset_by_index=[0, 0])[0])
        assert coercivity_min(ops, spec, subspace) == pytest.approx(
            min(minima), abs=1e-10)


def test_spectral_layer_on_a_fine_grid():
    """(3, 3) at n = 100 000 (h = 3e-4): eigen-residuals, the resolvent at
    c = -2 e0 and both coercivity minima, the last within criterion 7's 10%
    of their n = 3000 values."""
    coarse, fine = [assemble(solve_ground(make_grid(3, 30.0, n), 3.0))
                    for n in (3000, 100_000)]
    spec_c, spec = compute_spectrum(coarse), compute_spectrum(fine)
    assert spec.residual_plus <= 1e-6 and spec.residual_minus <= 1e-6
    assert spec.negative_directions == 1
    G = smooth(fine.grid, np.random.default_rng(7))
    resolvent_solve(-2.0 * spec.e0, G, fine)   # raises above its 1e-9 residual
    for subspace in ("Gperp", "Gtildeperp"):
        val = coercivity_min(fine, spec, subspace)
        assert val > 0
        assert abs(val / coercivity_min(coarse, spec_c, subspace) - 1) <= 0.10


def test_eigenfunction_decay_margin(spec33, spec17):
    assert spec33.decay_eta > 0
    assert spec17.decay_eta > 0
    # far-field rate of the fourth-order factorization: Re sqrt(1 + i e0) - 1
    for spec in (spec33, spec17):
        kappa = math.sqrt((math.sqrt(1 + spec.e0**2) + 1) / 2.0)
        assert spec.decay_eta == pytest.approx(kappa - 1.0, rel=0.1)


@pytest.mark.parametrize("p", [3.667, 4.0])
def test_decay_margin_of_a_fast_decaying_eigenfunction(p):
    """At large e0 the eigenfunction falls below its noise floor before
    rmax/3; the fit moves inward and still finds Re sqrt(1 + i e0) - 1."""
    spec = compute_spectrum(assemble(solve_ground(make_grid(3, 30.0, 1500), p)))
    assert spec.e0 > 25
    expected = (1 + 1j * spec.e0) ** 0.5
    assert spec.decay_eta > 0
    assert spec.decay_eta == pytest.approx(expected.real - 1.0, rel=0.01)


def test_decay_margin_keeps_its_window_at_3_3(spec33):
    # the inner window [rmax/3, 2 rmax/3] still resolves Y at (3, 3)
    assert spec33.decay_eta == 0.8176209486181477


def test_e0_against_independent_linearized_flow(gp33, spec33):
    """Power iteration on the time-domain linearized flow dv/dt = -script_L v
    reproduces e0 (the growing mode is Y-)."""
    g = make_grid(3, 12.0, 600)  # truncating the box at 12 shifts e0 by ~e^{-24}
    gp = solve_ground(g, 3.0)
    from nlslab.grid import radial_operator
    lap = radial_operator(g)
    q = gp.Q.values.real
    p = gp.p

    def rhs(v):
        return 1j * (lap.apply(v) - v
                     + p * q ** (p - 1) * v.real + 1j * q ** (p - 1) * v.imag)

    rng = np.random.default_rng(0)
    v = (rng.standard_normal(g.n + 1) + 1j * rng.standard_normal(g.n + 1))
    v *= np.exp(-g.r**2)
    dt = 1e-4
    w = g.w
    nv_prev = None
    rate = 0.0
    for k in range(1, 60001):
        k1 = rhs(v)
        k2 = rhs(v + dt / 2 * k1)
        k3 = rhs(v + dt / 2 * k2)
        k4 = rhs(v + dt * k3)
        v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if k % 20000 == 0:
            nv = math.sqrt(float(np.dot(w, np.abs(v) ** 2)))
            if nv_prev is not None:
                rate = math.log(nv) / (20000 * dt)
            nv_prev = nv
            v /= nv
    assert rate == pytest.approx(spec33.e0, rel=0.01)


def test_e0_stability_under_doubling(spec33, gp33):
    g2 = make_grid(3, 30.0, 3000)
    gp2 = solve_ground(g2, 3.0)
    ops2 = assemble(gp2)
    spec2 = compute_spectrum(ops2)
    # the session grid pair (h = .02 -> .01) converges at O(h^2); the tight
    # 1e-4 criterion is certified on finer pairs in the acceptance suite
    assert abs(spec2.e0 / spec33.e0 - 1) < 5e-3


# ---------------------------------------------------------------- resolvent

def test_resolvent_roundtrip(ops33, spec33, rng):
    G = smooth(ops33.grid, rng)
    gv = ops33.restrict(G)
    c = 2.0 * spec33.e0
    F = ops33.extend(ops33.apply_script_l(gv) + c * gv)
    back = resolvent_solve(c, F, ops33)
    err = np.linalg.norm(ops33.restrict(back) - gv) / np.linalg.norm(gv)
    assert err <= 1e-8


def test_resolvent_eigenvector_relation(ops33, spec33):
    yp = Field(ops33.grid, spec33.y_plus_values())
    g = resolvent_solve(2.0 * spec33.e0, yp, ops33)
    expected = spec33.y_plus_values() / (3.0 * spec33.e0)
    err = (np.linalg.norm(ops33.restrict(g) - ops33.restrict(Field(ops33.grid, expected)))
           / np.linalg.norm(expected))
    assert err <= 1e-8


def test_resolvent_rejects_spectrum_point(ops33, spec33, rng):
    F = smooth(ops33.grid, rng)
    with pytest.raises(SingularSystemError):
        resolvent_solve(spec33.e0, F, ops33)
    with pytest.raises(SingularSystemError):
        resolvent_solve(0.0, F, ops33)


def test_resolvent_roundtrip_multiple_shifts(ops33, spec33, rng):
    for mult in (2.0, 3.0, 4.0):
        G = smooth(ops33.grid, rng)
        gv = ops33.restrict(G)
        c = mult * spec33.e0
        F = ops33.extend(ops33.apply_script_l(gv) + c * gv)
        back = resolvent_solve(c, F, ops33)
        err = np.linalg.norm(ops33.restrict(back) - gv) / np.linalg.norm(gv)
        assert err <= 1e-8


# ---------------------------------------------------------------- coercivity

def test_coercivity_positive_and_stable(ops33, spec33, gp33):
    val = coercivity_min(ops33, spec33, "Gperp")
    assert val > 0
    g2 = make_grid(3, 30.0, 3000)
    gp2 = solve_ground(g2, 3.0)
    ops2 = assemble(gp2)
    spec2 = compute_spectrum(ops2)
    val2 = coercivity_min(ops2, spec2, "Gperp")
    assert abs(val2 / val - 1) < 0.10


def test_coercivity_gtilde_positive(ops33, spec33):
    assert coercivity_min(ops33, spec33, "Gtildeperp") > 0


def test_unconstrained_minimum_is_negative(gp33, ops33):
    # Q itself violates the constraint and gives Phi(Q) < 0
    phi_q = linearized_energy_phi(gp33.Q, ops33)
    h1_q = h1_norm(gp33.Q)
    assert phi_q / h1_q**2 < 0


def test_negative_direction_identity(gp33, ops33):
    """(L_+ Z, Z) for Z = Lam Q - ((Lam Q, Q)/(Q,Q)) Q matches
    -(N^2(p-1)/(4(p+1))) (p - 1 - 4/N) int Q^{p+1}; at (3,3) this is
    -(3/4) int Q^4."""
    q = ops33.restrict(gp33.Q).real
    lam = ops33.restrict(scaling_generator(gp33)).real
    c = float(np.dot(ops33.rho, lam * q) / np.dot(ops33.rho, q * q))
    z = lam - c * q
    val = float(np.dot(ops33.rho, ops33.apply_lplus(z) * z))
    N, p = gp33.N, gp33.p
    qp1 = float(np.dot(gp33.grid.w, gp33.Q.values.real ** (p + 1)))
    pred = -(N**2 * (p - 1) / (4 * (p + 1))) * (p - 1 - 4.0 / N) * qp1
    assert pred == pytest.approx(-(3.0 / 4.0) * qp1)
    assert val == pytest.approx(pred, rel=5e-3)  # 1e-4 on acceptance grids
    assert val < 0
