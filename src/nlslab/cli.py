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
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import approx as ap
from . import experiments as xp
from . import linearized as lin
from . import modulation as mo
from .evolve import EvolverConfig, TimeSeries, classify_run
from .evolve import evolve as run_evolution
from .config import DEFAULTS, RunConfig, evolver_config, load_config, parse_eps
from .errors import ConfigError, NlslabError, UsageError
from .grid import (FLOAT_FMT, Field, make_grid, norms, read_field_csv,
                   write_csv, write_field_csv)
from .ground import check_identities, solve_ground
from .manifest import RunManifest
from .parallel import pmap

__all__ = ["cli_dispatch", "main"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return FLOAT_FMT % x
    return str(x)


def _write_kv(path: Path, entries: dict) -> None:
    lines = [f"{k} = {_fmt(v)}" for k, v in entries.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_series(path: Path, series: TimeSeries) -> None:
    write_csv(path, TimeSeries.HEADER, *series.rows().T)


def _write_snapshots(out: Path, snaps) -> None:
    """One ``snap_<i>.csv`` per (t, Field) and the ``index.csv`` that lists
    them; the files are written by forked workers (``parallel.pmap``)."""
    out.mkdir(parents=True, exist_ok=True)
    names = [f"snap_{i:05d}.csv" for i in range(len(snaps))]
    pmap(lambda i: write_field_csv(snaps[i][1], out / names[i]), range(len(snaps)))
    index = ["idx,t,file"] + [f"{i},{FLOAT_FMT % t},{name}"
                              for i, ((t, _), name) in enumerate(zip(snaps, names))]
    (out / "index.csv").write_text("\n".join(index) + "\n", encoding="utf-8")


def _read_snapshots(path: Path, grid):
    """The (t, Field) list of a snapshot directory, in ``index.csv`` order.
    Forked workers (``parallel.pmap``) parse the files and return their
    values; each Field is built here, on ``grid``."""
    idx_file = path / "index.csv"
    if not idx_file.exists():
        raise UsageError(f"snapshot directory {path} has no index.csv")
    rows = [line.split(",") for line in idx_file.read_text().splitlines()[1:]
            if line.strip()]
    values = pmap(lambda name: read_field_csv(path / name, grid).values,
                  [name for _, _, name in rows])
    return [(float(t), Field(grid, v)) for (_, t, _), v in zip(rows, values)]


# ---------------------------------------------------------------- pipeline

STAGES = ("ground", "spectrum", "coercivity", "approx")


class Pipeline:
    """The chain every command walks a prefix of: ground state, linearized
    operators, spectrum, approximate solutions.  Stages are lazy and
    memoized; this is the one place where config keys become solver
    arguments.  Each stage sums its wall time into the manifest line
    ``stage.<name>_s`` (the linearized operators count as ``spectrum``).
    """

    def __init__(self, cfg: RunConfig, man: RunManifest):
        self.cfg, self.man = cfg, man
        self._memo: dict = {}
        self._stage_s = dict.fromkeys(STAGES, 0.0)
        for name in STAGES:
            man.record(f"stage.{name}_s", "0.000")

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._stage_s[name] += time.perf_counter() - t0
            self.man.record(f"stage.{name}_s", f"{self._stage_s[name]:.3f}")

    def _once(self, key, stage: str, make):
        if key not in self._memo:
            with self.stage(stage):
                self._memo[key] = make()
        return self._memo[key]

    def ground(self, n: int | None = None):
        """Ground profile on the working grid, or on ``n`` nodes."""
        cfg = self.cfg
        n = n or cfg["grid.n"]
        return self._once(("ground", n), "ground", lambda: solve_ground(
            make_grid(cfg["model.N"], cfg["grid.rmax"], n), cfg["model.p"]))

    def ops(self, n: int | None = None):
        gp = self.ground(n)
        return self._once(("ops", gp.grid.n), "spectrum", lambda: lin.assemble(gp))

    @property
    def spectrum(self):
        ops = self.ops()
        return self._once("spectrum", "spectrum", lambda: lin.compute_spectrum(ops))

    def approx(self, A: float, k: int):
        spec, ops = self.spectrum, self.ops()
        return self._once(("approx", A, k), "approx",
                          lambda: ap.build_Vk(A, k, spec, ops))

    def evolver_config(self, **overrides) -> EvolverConfig:
        """EvolverConfig from the ``evolve.*`` keys (``config.evolver_config``)."""
        return evolver_config(self.cfg.values, **overrides)

    def identity_n(self) -> int:
        """``check.identity_n``, or the grid on which the identity ratio error
        C h^2 falls to a fifth of 2e-7, C measured by a probe at h = 0.004."""
        if self.cfg["check.identity_n"]:
            return self.cfg["check.identity_n"]
        n0 = int(math.ceil(self.cfg["grid.rmax"] / 0.004))
        rep = check_identities(self.ground(n0))
        delta = abs(rep.ratio_mass / rep.target_mass - 1.0)
        n_star = int(math.ceil(n0 * math.sqrt(delta / (0.2 * 2e-7))))
        return min(max(n0, n_star), 700_000)

    def identities(self, n: int | None = None):
        """The ground state's identities; each pass/fail goes to the ledger."""
        cfg = self.cfg
        rep = check_identities(
            self.ground(n), pohozaev_tol=cfg["check.pohozaev_tol"],
            mass_tol=cfg["check.mass_tol"], gn_tol=cfg["check.gn_tol"],
            tail_tol=cfg["check.tail_tol"])
        for name, ok in rep.passes.items():
            self.man.record_check(f"identity_{name}", ok)
        return rep

    def certify_spectrum(self) -> dict:
        """e0, B(Y+, Y-), Φ(Y+) and more; records the ``eigen_residuals`` check."""
        spec, ops, grid = self.spectrum, self.ops(), self.ground().grid
        yp = Field(grid, spec.y_plus_values())
        ym = Field(grid, np.conj(spec.y_plus_values()))
        tol = self.cfg["check.spectrum_tol"]
        self.man.record_check("eigen_residuals", spec.residual_plus <= tol
                              and spec.residual_minus <= tol)
        return {
            "e0": spec.e0, "residual_plus": spec.residual_plus,
            "residual_minus": spec.residual_minus,
            "B_yplus_yminus": lin.bilinear_B(yp, ym, ops),
            "phi_yplus": lin.linearized_energy_phi(yp, ops),
            "y1_y2_l2": float(np.dot(grid.w, spec.Y1.values.real * spec.Y2.values.real)),
            "q_y1_overlap": spec.q_overlap, "decay_eta": spec.decay_eta,
            "negative_directions": spec.negative_directions}

    def certify_coercivity(self) -> dict:
        """Minimal Φ on G⊥ and G̃⊥; records the ``coercivity_positive`` check."""
        spec, ops = self.spectrum, self.ops()
        with self.stage("coercivity"):
            co_g = lin.coercivity_min(ops, spec, "Gperp")
            co_t = lin.coercivity_min(ops, spec, "Gtildeperp")
        self.man.record_check("coercivity_positive", co_g > 0 and co_t > 0)
        return {"coercivity_Gperp": co_g, "coercivity_Gtildeperp": co_t}

    def residual_order(self, A: float, k: int, check: str) -> float:
        """Fitted decay rate of the V_k^A residual, checked against -(k+1) e0."""
        sol, e0 = self.approx(A, k), self.spectrum.e0
        times = [sol.t_min + (1.0 + 0.25 * i) / e0 for i in range(6)]
        rate = ap.residual_rate(sol, times)
        self.man.record_check(
            check, rate <= -(k + 1) * e0 * self.cfg["check.rate_margin"])
        return rate


def _report(pipe: Pipeline, path: Path, entries: dict) -> None:
    """Write a key = value report and copy its entries into the manifest."""
    _write_kv(path, entries)
    for k, v in entries.items():
        pipe.man.record(k, _fmt(v))


# ---------------------------------------------------------------- commands

def _cmd_ground(pipe: Pipeline, out: Path, inputs: dict):
    gp = pipe.ground()
    write_field_csv(gp.Q, out / "Q.csv")
    rep = pipe.identities()
    _write_kv(out / "identity_report.txt", {
        "q0": gp.q0, "c_q": gp.c_q, "s_c": gp.s_c, "ode_residual": gp.ode_residual,
        "ratio_pohozaev": rep.ratio_pohozaev, "target_pohozaev": rep.target_pohozaev,
        "ratio_mass": rep.ratio_mass, "target_mass": rep.target_mass,
        "gn_constant": rep.gn_constant, "gn_constant_derived": rep.gn_constant_derived,
        "energy": rep.energy, "energy_target": rep.energy_target,
        "tail_deviation": rep.tail_deviation})
    pipe.man.record("q0", _fmt(gp.q0))
    pipe.man.record("ode_residual", _fmt(gp.ode_residual))


def _cmd_spectrum(pipe: Pipeline, out: Path, inputs: dict):
    spec = pipe.spectrum
    write_field_csv(spec.Y1, out / "Y1.csv")
    write_field_csv(spec.Y2, out / "Y2.csv")
    entries = {**pipe.certify_spectrum(), **pipe.certify_coercivity()}
    _report(pipe, out / "spectrum_report.txt", entries)


def _cmd_construct(pipe: Pipeline, out: Path, inputs: dict):
    A, k = pipe.cfg["experiment.A"], pipe.cfg["experiment.k"]
    sol = pipe.approx(A, k)
    for j in range(1, sol.k + 1):
        write_field_csv(sol.Z[j], out / f"Z{j}.csv")
    rate = pipe.residual_order(A, k, "residual_order")
    entries = {"A": sol.A, "k": sol.k, "e0": sol.e0, "t_min": sol.t_min,
               "residual_rate": rate, "expected_rate": -(sol.k + 1) * sol.e0}
    _report(pipe, out / "construct_report.txt", entries)


def _cmd_evolve(pipe: Pipeline, out: Path, inputs: dict):
    initial = inputs["input.initial"]
    if not initial:
        raise UsageError("evolve requires --initial (ground | path/to/field.csv)")
    gp = pipe.ground()
    u0 = (Field(gp.grid, gp.Q.values.copy()) if initial == "ground"
          else read_field_csv(initial, gp.grid))
    ecfg = pipe.evolver_config(snapshot_every=pipe.cfg["evolve.snapshot_every"] or 10)
    series, snaps = run_evolution(u0, inputs["input.t0"], ecfg, gp.p, reference=gp)
    _write_series(out / "series.csv", series)
    _write_snapshots(out / "snapshots", snaps)
    verdict = classify_run(series)
    _write_kv(out / "verdict.txt", {
        "verdict": verdict.kind,
        "t_star": verdict.t_star if verdict.t_star is not None else "none",
        "rate": verdict.rate if verdict.rate is not None else "none",
        **{f"evidence.{k}": v for k, v in verdict.evidence.items()},
    })
    pipe.man.record("verdict", verdict.kind)
    pipe.man.record("steps_sampled", series.t.size)


def _cmd_special(pipe: Pipeline, out: Path, inputs: dict):
    cfg = pipe.cfg
    rspec = xp.SpecialRunSpec(
        A=cfg["experiment.A"], k=cfg["experiment.k"],
        delta=cfg["experiment.delta"], cfg=pipe.evolver_config())
    spec = pipe.spectrum
    rep = xp.run_special(rspec, pipe.approx(rspec.A, rspec.k), pipe.ground(), spec)
    _write_series(out / "forward_series.csv", rep.forward_series)
    _write_series(out / "backward_series.csv", rep.backward_series)
    write_field_csv(rep.initial, out / "initial.csv")
    entries = {
        "A": rep.A, "k": rep.k, "delta": rep.delta, "t0": rep.t0,
        "e0": spec.e0, "mass": rep.mass, "energy": rep.energy,
        "me": rep.me, "mg": rep.mg, "d0_sign": rep.d0_sign,
        "forward_rate": rep.forward_rate, "backward_verdict": rep.backward_verdict.kind,
        "mass_mismatch": rep.mass_mismatch, "energy_mismatch": rep.energy_mismatch}
    _report(pipe, out / "report.txt", entries)
    _write_kv(out / "verdict.txt", {"verdict": rep.backward_verdict.kind})
    pipe.man.record_check("sign_matches_A", rep.d0_sign == int(math.copysign(1, rep.A)))
    pipe.man.record_check("forward_rate_within_10pct",
                          abs(rep.forward_rate / (-spec.e0) - 1.0) <= 0.10)


def _cmd_classify(pipe: Pipeline, out: Path, inputs: dict):
    gp = pipe.ground()
    eps = parse_eps(pipe.cfg["experiment.sweep_eps"])
    family = [(label, fld) for label, fld, _ in xp.threshold_family(gp, eps)]
    # verdict-quality path: the composed step keeps the Q member pinned to
    # the standing wave over the sweep horizon at stiff (N, p)
    ecfg = pipe.evolver_config(sponge=True, order=4)
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
    pipe.man.record_check("mg_sign_predictions", all_ok)


def _cmd_modulate(pipe: Pipeline, out: Path, inputs: dict):
    if not inputs["input.snapshots"]:
        raise UsageError("modulate requires --snapshots DIR")
    gp = pipe.ground()
    snaps = _read_snapshots(Path(inputs["input.snapshots"]), gp.grid)
    frames, _ratios = mo.track(snaps, gp)
    fitted = [f for f in frames if f is not None]
    rows = ["t,theta,alpha,hnorm,d,res1,res2"] + [",".join(_fmt(v) for v in (
        f.t, f.theta, f.alpha, f.h_norm, f.d, f.res_iq, f.res_qp)) for f in fitted]
    (out / "frames.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    pipe.man.record("frames", len(fitted))
    pipe.man.record("gaps", len(frames) - len(fitted))


def _cmd_check(pipe: Pipeline, out: Path, inputs: dict) -> int:
    """Full identity suite; every line feeds the manifest check ledger."""
    man = pipe.man
    rng = np.random.default_rng(pipe.cfg["run.seed"])

    # --- static identities on the auto-refined grid
    n_id = pipe.identity_n()
    rep = pipe.identities(n_id)
    man.record("identity_n", n_id)
    man.record("ratio_pohozaev", _fmt(rep.ratio_pohozaev))
    man.record("ratio_mass", _fmt(rep.ratio_mass))

    # --- kernel relations and B properties on the working grid
    gp, ops = pipe.ground(), pipe.ops()
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
    spec = pipe.certify_spectrum()
    man.record("e0", _fmt(spec["e0"]))
    man.record_check("q_y1_orthogonal", spec["q_y1_overlap"] <= 1e-8)
    man.record("B_yplus_yminus", _fmt(spec["B_yplus_yminus"]))
    man.record_check("B_normalization", abs(abs(spec["B_yplus_yminus"]) - 1.0) <= 1e-8)
    man.record_check("phi_yplus_zero", abs(spec["phi_yplus"]) <= 1e-8)
    man.record_check("decay_margin_positive", spec["decay_eta"] > 0)
    man.record_check("simplicity_proxy", spec["negative_directions"] == 1)

    # --- Phi(Q) and the negative direction (fine grid)
    gp_f, ops_f = pipe.ground(n_id), pipe.ops(n_id)
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
    for k, v in pipe.certify_coercivity().items():
        man.record(k, _fmt(v))

    # --- residual order k = 1
    rate = pipe.residual_order(1.0, 1, "residual_order_k1")
    man.record("residual_rate_k1", _fmt(rate))

    _write_kv(out / "check_report.txt",
              {name: ("pass" if ok else "FAIL") for name, ok in man.checks.items()})
    return 0 if man.all_checks_pass() else 1


# ---------------------------------------------------------------- dispatch

# name -> body; a body returns its exit code, or None for 0
COMMANDS = {"ground": _cmd_ground, "spectrum": _cmd_spectrum,
            "construct": _cmd_construct, "evolve": _cmd_evolve,
            "special": _cmd_special, "classify": _cmd_classify,
            "modulate": _cmd_modulate, "check": _cmd_check}

# flag -> (config key, or input.* manifest key for inputs that are not
# config keys; type; commands that take it)
ALL = tuple(COMMANDS)
RUNS = ("evolve", "special", "classify")    # integrate in time; special sets its own t_end
FLAGS = {
    "--N": ("model.N", int, ALL), "--p": ("model.p", float, ALL),
    "--rmax": ("grid.rmax", float, ALL), "--n": ("grid.n", int, ALL),
    "--t-end": ("evolve.t_end", float, ("evolve", "classify")), "--dt": ("evolve.dt", float, RUNS),
    "--A": ("experiment.A", float, ("construct", "special")),
    "--k": ("experiment.k", int, ("construct", "special")),
    "--delta": ("experiment.delta", float, ("construct", "special")),
    "--eps-values": ("experiment.sweep_eps", str, ("classify",)),
    "--initial": ("input.initial", str, ("evolve",)),
    "--t0": ("input.t0", float, ("evolve",)),
    "--snapshots": ("input.snapshots", str, ("modulate",)),
}
INPUT_DEFAULTS = {"input.t0": 0.0}

# error class -> (message, manifest status, exit code); the first match wins
FAILURES = {UsageError: ("usage error", "usage-error", 2),
            ConfigError: ("config error", "config-error", 2),
            NlslabError: ("numerical failure", "numerical-failure", 3)}


def _build_parser() -> argparse.ArgumentParser:
    ps = argparse.ArgumentParser(prog="nlslab", description=__doc__)
    sub = ps.add_subparsers(dest="command")
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default=None)
        for flag, (key, typ, commands) in FLAGS.items():
            if name in commands:
                sp.add_argument(flag, dest=key, type=typ,
                                default=INPUT_DEFAULTS.get(key))
    return ps


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = args["command"]
    if not command:
        parser.print_usage(sys.stderr)
        return 2

    try:
        cfg = load_config(args["config"], overrides={
            k: v for k, v in args.items() if k in DEFAULTS})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(args["out"]) if args["out"] else Path(f"nlslab_{command}_out")
    man = RunManifest(out, command, cfg.render())
    pipe = Pipeline(cfg, man)
    inputs = {k: v for k, v in args.items() if k.startswith("input.")}
    for k, v in inputs.items():
        if v is not None:
            man.record(k, _fmt(v))
    man.write_pre()

    try:
        rc = COMMANDS[command](pipe, out, inputs) or 0
    except NlslabError as exc:
        what, status, code = next(v for cls, v in FAILURES.items() if isinstance(exc, cls))
        print(f"{what}: {exc}", file=sys.stderr)
        man.finalize(status)
        return code

    man.finalize("done" if rc == 0 else "check-failure")
    return rc


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
