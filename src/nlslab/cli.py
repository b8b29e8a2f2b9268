"""Command-line interface: ground | spectrum | construct | evolve |
special | classify | modulate | check.

Every subcommand takes ``--config FILE`` (flat key=value), ``--out DIR``
and the usual model/grid flags; command-line flags override the file,
which overrides built-in defaults.  Exit codes: 0 success, 1 check
failure, 2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import approx as ap
from . import experiments as xp
from . import linearized as lin
from . import modulation as mo
from .evolve import EvolverConfig, TimeSeries, classify_run
from .evolve import evolve as run_evolution
from .config import RunConfig, load_config
from .errors import ConfigError, NlslabError, UsageError
from .grid import (FLOAT_FMT, Field, make_grid, norms, read_field_csv,
                   write_field_csv)
from .ground import check_identities, solve_ground
from .manifest import RunManifest

__all__ = ["cli_dispatch", "main"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return FLOAT_FMT % x
    return str(x)


def _write_kv(path: Path, entries: dict) -> None:
    lines = [f"{k} = {_fmt(v)}" for k, v in entries.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_series(path: Path, series: TimeSeries) -> None:
    np.savetxt(path, series.rows(), fmt=FLOAT_FMT, delimiter=",",
               header=TimeSeries.HEADER, comments="")


def _write_snapshots(out: Path, snaps) -> None:
    out.mkdir(parents=True, exist_ok=True)
    index = ["idx,t,file"]
    for i, (t, fld) in enumerate(snaps):
        name = f"snap_{i:05d}.csv"
        write_field_csv(fld, out / name)
        index.append(f"{i},{FLOAT_FMT % t},{name}")
    (out / "index.csv").write_text("\n".join(index) + "\n", encoding="utf-8")


def _read_snapshots(path: Path, grid):
    idx_file = path / "index.csv"
    if not idx_file.exists():
        raise UsageError(f"snapshot directory {path} has no index.csv")
    out = []
    for line in idx_file.read_text().splitlines()[1:]:
        if not line.strip():
            continue
        _, t, name = line.split(",")
        out.append((float(t), read_field_csv(path / name, grid)))
    return out


def _grid_from(cfg: RunConfig):
    return make_grid(cfg["model.N"], cfg["grid.rmax"], cfg["grid.n"])


def _ground_from(cfg: RunConfig, grid=None):
    grid = grid if grid is not None else _grid_from(cfg)
    return solve_ground(
        grid, cfg["model.p"], polish=cfg["ground.polish"],
        bracket=(cfg["ground.bracket_lo"], cfg["ground.bracket_hi"]),
        a_tol=cfg["ground.a_tol"])


def _spectrum_from(cfg: RunConfig, ops):
    return lin.compute_spectrum(ops, dense_nodes=cfg["spectrum.dense_nodes"],
                                refine_tol=cfg["spectrum.refine_tol"])


def _evolver_config(cfg: RunConfig, **overrides) -> EvolverConfig:
    base = dict(
        dt=cfg["evolve.dt"], t_end=cfg["evolve.t_end"],
        sponge=cfg["evolve.sponge"],
        sponge_strength=cfg["evolve.sponge_strength"],
        sponge_width=cfg["evolve.sponge_width"],
        adapt_trigger=cfg["evolve.adapt_trigger"],
        dt_min=cfg["evolve.dt_min"] or None,
        sample_every=cfg["evolve.sample_every"],
        snapshot_every=cfg["evolve.snapshot_every"],
        order=cfg["evolve.order"], mass_guard=cfg["evolve.mass_guard"])
    base.update(overrides)
    return EvolverConfig(**base)


def identity_grid_n(cfg: RunConfig, target_tol: float = 2e-7) -> int:
    """Pick the identity-check resolution by one coarse probe.

    The ratio errors scale as C h^2 with a (N, p)-dependent constant, so
    one solve at a moderate h measures C and a second solve at
    h* = h sqrt(target/δ) certifies the ratios.  ``check.identity_n``
    overrides the automatic choice.
    """
    if cfg["check.identity_n"]:
        return cfg["check.identity_n"]
    rmax = cfg["grid.rmax"]
    n0 = int(math.ceil(rmax / 0.004))
    grid = make_grid(cfg["model.N"], rmax, n0)
    gp = solve_ground(grid, cfg["model.p"])
    rep = check_identities(gp)
    delta = abs(rep.ratio_mass / rep.target_mass - 1.0)
    if delta <= 0.2 * target_tol:
        return n0
    n_star = int(math.ceil(n0 * math.sqrt(delta / (0.2 * target_tol))))
    return min(n_star, 700_000)


# ---------------------------------------------------------------- commands

def _cmd_ground(cfg: RunConfig, out: Path, man: RunManifest) -> int:
    gp = _ground_from(cfg)
    write_field_csv(gp.Q, out / "Q.csv")
    rep = check_identities(
        gp, pohozaev_tol=cfg["check.pohozaev_tol"], mass_tol=cfg["check.mass_tol"],
        gn_tol=cfg["check.gn_tol"], tail_tol=cfg["check.tail_tol"])
    _write_kv(out / "identity_report.txt", {
        "q0": gp.q0, "c_q": gp.c_q, "s_c": gp.s_c,
        "ode_residual": gp.ode_residual,
        "ratio_pohozaev": rep.ratio_pohozaev,
        "target_pohozaev": rep.target_pohozaev,
        "ratio_mass": rep.ratio_mass, "target_mass": rep.target_mass,
        "gn_constant": rep.gn_constant,
        "gn_constant_derived": rep.gn_constant_derived,
        "energy": rep.energy, "energy_target": rep.energy_target,
        "tail_deviation": rep.tail_deviation,
    })
    man.record("q0", _fmt(gp.q0))
    man.record("ode_residual", _fmt(gp.ode_residual))
    for name, ok in rep.passes.items():
        man.record_check(f"identity_{name}", ok)
    return 0


def _cmd_spectrum(cfg: RunConfig, out: Path, man: RunManifest) -> int:
    gp = _ground_from(cfg)
    ops = lin.assemble(gp)
    spec = _spectrum_from(cfg, ops)
    write_field_csv(spec.Y1, out / "Y1.csv")
    write_field_csv(spec.Y2, out / "Y2.csv")
    co_g = lin.coercivity_min(ops, spec, "Gperp")
    co_t = lin.coercivity_min(ops, spec, "Gtildeperp")
    yp = Field(gp.grid, spec.y_plus_values())
    ym = Field(gp.grid, np.conj(spec.y_plus_values()))
    entries = {
        "e0": spec.e0,
        "residual_plus": spec.residual_plus,
        "residual_minus": spec.residual_minus,
        "B_yplus_yminus": lin.bilinear_B(yp, ym, ops),
        "phi_yplus": lin.linearized_energy_phi(yp, ops),
        "y1_y2_l2": float(np.dot(gp.grid.w, spec.Y1.values.real * spec.Y2.values.real)),
        "q_y1_overlap": spec.q_overlap,
        "decay_eta": spec.decay_eta,
        "mu_second": spec.mu_second,
        "coercivity_Gperp": co_g,
        "coercivity_Gtildeperp": co_t,
    }
    _write_kv(out / "spectrum_report.txt", entries)
    for k, v in entries.items():
        man.record(k, _fmt(v))
    tol = cfg["check.spectrum_tol"]
    man.record_check("eigen_residuals", spec.residual_plus <= tol
                     and spec.residual_minus <= tol)
    man.record_check("coercivity_positive", co_g > 0 and co_t > 0)
    return 0


def _cmd_construct(cfg: RunConfig, out: Path, man: RunManifest) -> int:
    gp = _ground_from(cfg)
    ops = lin.assemble(gp)
    spec = _spectrum_from(cfg, ops)
    sol = ap.build_Vk(cfg["experiment.A"], cfg["experiment.k"], spec, ops)
    for j in range(1, sol.k + 1):
        write_field_csv(sol.Z[j], out / f"Z{j}.csv")
    e0 = spec.e0
    times = [sol.t_min + (1.0 + 0.25 * i) / e0 for i in range(6)]
    rate = ap.residual_rate(sol, times)
    entries = {"A": sol.A, "k": sol.k, "e0": e0, "t_min": sol.t_min,
               "residual_rate": rate, "expected_rate": -(sol.k + 1) * e0}
    _write_kv(out / "construct_report.txt", entries)
    for k, v in entries.items():
        man.record(k, _fmt(v))
    man.record_check(
        "residual_order",
        rate <= -(sol.k + 1) * e0 * cfg["check.rate_margin"])
    return 0


def _cmd_evolve(cfg: RunConfig, out: Path, man: RunManifest, args) -> int:
    if not args.initial:
        raise UsageError("evolve requires --initial (ground | path/to/field.csv)")
    grid = _grid_from(cfg)
    gp = _ground_from(cfg, grid)
    if args.initial == "ground":
        u0 = Field(grid, gp.Q.values.copy())
    else:
        u0 = read_field_csv(args.initial, grid)
    ecfg = _evolver_config(cfg, snapshot_every=cfg["evolve.snapshot_every"] or 10)
    series, snaps = run_evolution(u0, args.t0, ecfg, gp.p, reference=gp)
    _write_series(out / "series.csv", series)
    _write_snapshots(out / "snapshots", snaps)
    verdict = classify_run(series)
    _write_kv(out / "verdict.txt", {
        "verdict": verdict.kind,
        "t_star": verdict.t_star if verdict.t_star is not None else "none",
        "rate": verdict.rate if verdict.rate is not None else "none",
        **{f"evidence.{k}": v for k, v in verdict.evidence.items()},
    })
    man.record("verdict", verdict.kind)
    man.record("steps_sampled", series.t.size)
    return 0


def _cmd_special(cfg: RunConfig, out: Path, man: RunManifest) -> int:
    gp = _ground_from(cfg)
    ops = lin.assemble(gp)
    spec = _spectrum_from(cfg, ops)
    sol = ap.build_Vk(cfg["experiment.A"], cfg["experiment.k"], spec, ops)
    rspec = xp.SpecialRunSpec(
        A=cfg["experiment.A"], k=cfg["experiment.k"],
        delta=cfg["experiment.delta"],
        t_back=cfg["experiment.t_back"] or None,
        cfg=_evolver_config(cfg))
    rep = xp.run_special(rspec, sol, gp, spec)
    _write_series(out / "forward_series.csv", rep.forward_series)
    _write_series(out / "backward_series.csv", rep.backward_series)
    u0, t0 = xp.synthesize_UA(rspec, sol, gp)
    write_field_csv(u0, out / "initial.csv")
    entries = {
        "A": rep.A, "k": rep.k, "delta": rep.delta, "t0": rep.t0,
        "e0": spec.e0, "mass": rep.mass, "energy": rep.energy,
        "me": rep.me, "mg": rep.mg, "d0_sign": rep.d0_sign,
        "forward_rate": rep.forward_rate,
        "backward_verdict": rep.backward_verdict.kind,
        "mass_mismatch": rep.mass_mismatch,
        "energy_mismatch": rep.energy_mismatch,
    }
    _write_kv(out / "report.txt", entries)
    _write_kv(out / "verdict.txt", {"verdict": rep.backward_verdict.kind})
    for k, v in entries.items():
        man.record(k, _fmt(v))
    man.record_check("sign_matches_A", rep.d0_sign == int(math.copysign(1, rep.A)))
    man.record_check("forward_rate_within_10pct",
                     abs(rep.forward_rate / (-spec.e0) - 1.0) <= 0.10)
    return 0


def _cmd_classify(cfg: RunConfig, out: Path, man: RunManifest, args) -> int:
    gp = _ground_from(cfg)
    eps_text = args.eps_values or cfg["experiment.sweep_eps"]
    eps = [float(x) for x in eps_text.split(",") if x.strip()]
    family = [(label, fld) for label, fld, _ in xp.threshold_family(gp, eps)]
    # verdict-quality path: the composed step keeps the Q member pinned to
    # the standing wave over the sweep horizon at stiff (N, p)
    ecfg = _evolver_config(cfg, sponge=True, order=4)
    results = xp.threshold_sweep(family, ecfg, gp)
    lines = ["label,me,mg,verdict_forward,verdict_backward,mg_prediction_ok"]
    all_ok = True
    for res in results:
        mg = res["mg"]
        vf, vb = res["verdict_forward"].kind, res["verdict_backward"].kind
        if mg > 1.0 + 1e-9:
            ok = vf == "BlowUp" and vb == "BlowUp"
        elif mg < 1.0 - 1e-9:
            ok = "BlowUp" not in (vf, vb)
        else:
            ok = vf == "ConvergeToQ" and vb == "ConvergeToQ"
        all_ok = all_ok and ok
        lines.append(f"{res['label']},{_fmt(res['me'])},{_fmt(mg)},{vf},{vb},{ok}")
    (out / "sweep_report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    man.record_check("mg_sign_predictions", all_ok)
    return 0


def _cmd_modulate(cfg: RunConfig, out: Path, man: RunManifest, args) -> int:
    if not args.snapshots:
        raise UsageError("modulate requires --snapshots DIR")
    grid = _grid_from(cfg)
    gp = _ground_from(cfg, grid)
    snaps = _read_snapshots(Path(args.snapshots), grid)
    frames, _ratios = mo.track(snaps, gp)
    rows = ["t,theta,alpha,hnorm,d,res1,res2"]
    for frame in frames:
        if frame is None:
            continue
        rows.append(",".join(_fmt(v) for v in (
            frame.t, frame.theta, frame.alpha, frame.h_norm, frame.d,
            frame.res_iq, frame.res_qp)))
    (out / "frames.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    man.record("frames", len([f for f in frames if f is not None]))
    man.record("gaps", len([f for f in frames if f is None]))
    return 0


def _cmd_check(cfg: RunConfig, out: Path, man: RunManifest) -> int:
    """Full identity suite; every line feeds the manifest check ledger."""
    rng = np.random.default_rng(cfg["run.seed"])

    # --- static identities on the auto-refined grid
    n_id = identity_grid_n(cfg)
    grid_f = make_grid(cfg["model.N"], cfg["grid.rmax"], n_id)
    gp_f = solve_ground(grid_f, cfg["model.p"])
    rep = check_identities(
        gp_f, pohozaev_tol=cfg["check.pohozaev_tol"],
        mass_tol=cfg["check.mass_tol"], gn_tol=cfg["check.gn_tol"],
        tail_tol=cfg["check.tail_tol"])
    for name, ok in rep.passes.items():
        man.record_check(f"identity_{name}", ok)
    man.record("identity_n", n_id)
    man.record("ratio_pohozaev", _fmt(rep.ratio_pohozaev))
    man.record("ratio_mass", _fmt(rep.ratio_mass))

    # --- kernel relations and B properties on the working grid
    gp = _ground_from(cfg)
    ops = lin.assemble(gp)
    q = gp.Q
    scale = float(np.max(np.abs(q.values.real))) ** gp.p
    lm_q = ops.apply_lminus(ops.restrict(q).real)
    man.record_check("kernel_LmQ", float(np.max(np.abs(lm_q))) <= 1e-6 * scale)
    lp_q = ops.apply_lplus(ops.restrict(q).real)
    target = (1 - gp.p) * ops.restrict(q).real ** gp.p
    man.record_check("kernel_LpQ",
                     float(np.max(np.abs(lp_q - target))) <= 1e-6 * scale)
    lam = lin.scaling_generator(gp)
    lp_lam = ops.apply_lplus(ops.restrict(lam).real)
    rel = float(np.max(np.abs(lp_lam + 2 * ops.restrict(q).real))) / scale
    man.record_check("kernel_LpLamQ", rel <= 200 * gp.grid.h**2)

    def smooth_field():
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        r = gp.grid.r
        vals = sum(ci * np.exp(-((r - 2 * i) ** 2) / 2.0) for i, ci in enumerate(c))
        vals[-1] = 0.0
        return Field(gp.grid, vals)

    f, g = smooth_field(), smooth_field()
    bsym = abs(lin.bilinear_B(f, g, ops) - lin.bilinear_B(g, f, ops))
    man.record_check("B_symmetric", bsym <= 1e-10 * (norms(f).h1 * norms(g).h1))
    iq = Field(gp.grid, 1j * q.values)
    man.record_check("B_iQ_zero",
                     abs(lin.bilinear_B(iq, f, ops)) <= 1e-8 * norms(f).h1)
    lf = ops.extend(ops.apply_script_l(ops.restrict(f)))
    lg = ops.extend(ops.apply_script_l(ops.restrict(g)))
    anti = abs(lin.bilinear_B(lf, g, ops) + lin.bilinear_B(f, lg, ops))
    man.record_check("B_antisymmetry_under_L",
                     anti <= 1e-7 * (norms(f).h1 * norms(g).h1))

    # --- spectrum certification
    spec = _spectrum_from(cfg, ops)
    tol = cfg["check.spectrum_tol"]
    man.record("e0", _fmt(spec.e0))
    man.record_check("eigen_residuals",
                     spec.residual_plus <= tol and spec.residual_minus <= tol)
    man.record_check("q_y1_orthogonal", spec.q_overlap <= 1e-8)
    yp = Field(gp.grid, spec.y_plus_values())
    ym = Field(gp.grid, np.conj(spec.y_plus_values()))
    bpm = lin.bilinear_B(yp, ym, ops)
    man.record("B_yplus_yminus", _fmt(bpm))
    man.record_check("B_normalization", abs(abs(bpm) - 1.0) <= 1e-8)
    man.record_check("phi_yplus_zero",
                     abs(lin.linearized_energy_phi(yp, ops)) <= 1e-8)
    man.record_check("decay_margin_positive", spec.decay_eta > 0)
    man.record_check("simplicity_proxy", spec.mu_second >= -1e-6)

    # --- Phi(Q) and the negative direction (fine grid)
    ops_f = lin.assemble(gp_f)
    phi_q = lin.linearized_energy_phi(gp_f.Q, ops_f)
    target_phi = (1 - gp_f.p) / 2.0 * gp_f.obs.potential
    man.record_check("phi_Q_value", abs(phi_q / target_phi - 1.0) <= 1e-6)
    lam_f = lin.scaling_generator(gp_f)
    qv = ops_f.restrict(gp_f.Q).real
    lamv = ops_f.restrict(lam_f).real
    c = float(np.dot(ops_f.rho, lamv * qv) / np.dot(ops_f.rho, qv * qv))
    z = lamv - c * qv
    lpz = float(np.dot(ops_f.rho, ops_f.apply_lplus(z) * z))
    N, p = gp_f.N, gp_f.p
    pred = -(N**2 * (p - 1) / (4 * (p + 1))) * (p - 1 - 4.0 / N) * gp_f.obs.potential
    man.record("negative_direction", _fmt(lpz))
    man.record_check("negative_direction_value", abs(lpz / pred - 1.0) <= 1e-4)

    # --- coercivity
    co_g = lin.coercivity_min(ops, spec, "Gperp")
    co_t = lin.coercivity_min(ops, spec, "Gtildeperp")
    man.record("coercivity_Gperp", _fmt(co_g))
    man.record("coercivity_Gtildeperp", _fmt(co_t))
    man.record_check("coercivity_positive", co_g > 0 and co_t > 0)

    # --- residual order k = 1
    sol = ap.build_Vk(1.0, 1, spec, ops)
    times = [sol.t_min + (1.0 + 0.25 * i) / spec.e0 for i in range(6)]
    rate = ap.residual_rate(sol, times)
    man.record("residual_rate_k1", _fmt(rate))
    man.record_check("residual_order_k1",
                     rate <= -2.0 * spec.e0 * cfg["check.rate_margin"])

    _write_kv(out / "check_report.txt",
              {name: ("pass" if ok else "FAIL") for name, ok in man.checks.items()})
    return 0 if man.all_checks_pass() else 1


# ---------------------------------------------------------------- dispatch

def _build_parser() -> argparse.ArgumentParser:
    ps = argparse.ArgumentParser(prog="nlslab", description=__doc__)
    sub = ps.add_subparsers(dest="command")
    for name in ("ground", "spectrum", "construct", "evolve", "special",
                 "classify", "modulate", "check"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--N", type=int, default=None)
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--rmax", type=float, default=None)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--t-end", dest="t_end", type=float, default=None)
        sp.add_argument("--dt", type=float, default=None)
        if name in ("construct", "special"):
            sp.add_argument("--A", type=float, default=None)
            sp.add_argument("--k", type=int, default=None)
            sp.add_argument("--delta", type=float, default=None)
        if name == "evolve":
            sp.add_argument("--initial", default=None)
            sp.add_argument("--t0", type=float, default=0.0)
        if name == "classify":
            sp.add_argument("--eps-values", dest="eps_values", default=None)
        if name == "modulate":
            sp.add_argument("--snapshots", default=None)
    return ps


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2

    overrides = {"model.N": args.N, "model.p": args.p,
                 "grid.rmax": args.rmax, "grid.n": args.n}
    if getattr(args, "A", None) is not None:
        overrides["experiment.A"] = args.A
    if getattr(args, "k", None) is not None:
        overrides["experiment.k"] = args.k
    if getattr(args, "delta", None) is not None:
        overrides["experiment.delta"] = args.delta
    if getattr(args, "t_end", None) is not None:
        overrides["evolve.t_end"] = args.t_end
    if getattr(args, "dt", None) is not None:
        overrides["evolve.dt"] = args.dt

    try:
        cfg = load_config(args.config, overrides=overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out) if args.out else Path(f"nlslab_{args.command}_out")
    out.mkdir(parents=True, exist_ok=True)
    man = RunManifest(out, args.command, cfg.render())
    man.write_pre()

    try:
        if args.command == "ground":
            rc = _cmd_ground(cfg, out, man)
        elif args.command == "spectrum":
            rc = _cmd_spectrum(cfg, out, man)
        elif args.command == "construct":
            rc = _cmd_construct(cfg, out, man)
        elif args.command == "evolve":
            rc = _cmd_evolve(cfg, out, man, args)
        elif args.command == "special":
            rc = _cmd_special(cfg, out, man)
        elif args.command == "classify":
            rc = _cmd_classify(cfg, out, man, args)
        elif args.command == "modulate":
            rc = _cmd_modulate(cfg, out, man, args)
        elif args.command == "check":
            rc = _cmd_check(cfg, out, man)
        else:  # unreachable with argparse
            raise UsageError(f"unknown subcommand {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        man.finalize("usage-error")
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        man.finalize("config-error")
        return 2
    except NlslabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        man.finalize("numerical-failure")
        return 3

    man.finalize("done" if rc == 0 else "check-failure")
    return rc


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
