"""Command-line interface: ground | spectrum | construct | evolve |
special | classify | modulate | check.

Every subcommand takes ``--config FILE`` (flat key=value), ``--out DIR``
and the usual model/grid flags; command-line flags override the file,
which overrides built-in defaults.  Exit codes: 0 success, 1 a FAIL in
``check``'s ledger (only there), 2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
import time
import zipfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from . import approx as ap
from . import experiments as xp
from . import linearized as lin
from . import modulation as mo
from .evolve import TimeSeries, classify_run
from .evolve import evolve as run_evolution
from .config import DEFAULTS, RunConfig, evolver_config, load_config, parse_eps
from .errors import ConfigError, NlslabError, UsageError
from .grid import (FLOAT_FMT, Field, field_from_table, h1_norm, make_grid,
                   read_field_csv, write_csv, write_field_csv)
from .ground import check_identities, solve_ground
from .manifest import RunManifest

__all__ = ["cli_dispatch", "main"]

SNAPSHOT_ARCHIVE = "snapshots.npz"


def _fmt(x) -> str:
    if isinstance(x, float):
        return FLOAT_FMT % x
    return str(x)


def _write_kv(path: Path, entries: dict) -> None:
    lines = [f"{k} = {_fmt(v)}" for k, v in entries.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_series(path: Path, series: TimeSeries) -> None:
    write_csv(path, TimeSeries.HEADER, *series.rows().T)


@contextmanager
def _snapshot_sink(out: Path, grid):
    """An ``evolve`` sink that streams each (t, values), as it comes, into
    the uncompressed archive ``snapshots.npz`` as member ``snap_<i>.npy``:
    the (n + 1, 3) float64 ``r,re,im`` table, dated 1980-01-01, so equal
    snapshots give equal archive bytes.  The ``.npy`` header, which every
    member shares, is formatted once.  Once the block ends without an
    exception, ``index.csv`` lists the members."""
    out.mkdir(parents=True, exist_ok=True)
    index = ["idx,t,file"]
    table = np.empty((grid.n + 1, 3))
    table[:, 0] = grid.r
    head = io.BytesIO()
    npy.write_array_header_1_0(head, npy.header_data_from_array_1_0(table))
    header = head.getvalue()
    with zipfile.ZipFile(out / SNAPSHOT_ARCHIVE, "w") as archive:
        def sink(t, values):
            i = len(index) - 1
            name = f"snap_{i:05d}.npy"
            table[:, 1], table[:, 2] = values.real, values.imag
            archive.writestr(zipfile.ZipInfo(name), header + table.tobytes())
            index.append(f"{i},{FLOAT_FMT % t},{name}")

        yield sink
    (out / "index.csv").write_text("\n".join(index) + "\n", encoding="utf-8")


def _read_snapshots(path: Path, grid):
    """The (t, Field) snapshots of a directory, in ``index.csv`` order,
    reading one member of ``snapshots.npz`` at a time and checking it as a
    field file (``grid.field_from_table``).  The first member's ``.npy``
    header is parsed; a later member whose header bytes equal it is
    decoded straight from its bytes, and any other takes numpy's full
    reader.  A missing or malformed index, a non-finite index time, a
    damaged archive and a missing or malformed member are ``UsageError``s
    that name the index or the archive (and the member)."""
    idx_file = path / "index.csv"
    if not idx_file.exists():
        raise UsageError(f"snapshot directory {path} has no index.csv")
    lines = [line for line in idx_file.read_text().splitlines()[1:] if line.strip()]
    try:
        rows = [(float(t), name) for _, t, name in (line.split(",") for line in lines)]
    except ValueError as exc:
        raise UsageError(f"{idx_file} is not an idx,t,file table: {exc}") from exc
    bad = [t for t, _ in rows if not math.isfinite(t)]
    if bad:
        raise UsageError(f"{idx_file} holds a non-finite time {bad[0]}")
    archive = path / SNAPSHOT_ARCHIVE
    try:
        zf = zipfile.ZipFile(archive)
    except (OSError, zipfile.BadZipFile) as exc:
        raise UsageError(f"cannot read snapshot archive {archive}: {exc}") from exc
    first = None        # (header bytes, size, table) of the first member
    with zf:
        for t, name in rows:
            source = f"snapshot {name} of {archive}"
            try:
                raw = zf.read(name)
                if first and len(raw) == first[1] and raw.startswith(first[0]):
                    header, _, like = first
                    table = np.frombuffer(raw, like.dtype, offset=len(header)).reshape(
                        like.shape, order="C" if like.flags.c_contiguous else "F")
                else:
                    fh = io.BytesIO(raw)
                    table = npy.read_array(fh, allow_pickle=False)
                    # numpy read the header, then exactly the table's bytes
                    first = first or (raw[:fh.tell() - table.nbytes], fh.tell(), table)
            except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
                raise UsageError(f"cannot read {source}: {exc}") from exc
            yield t, field_from_table(table, grid, source)


# ---------------------------------------------------------------- pipeline

STAGES = ("ground", "spectrum", "coercivity", "approx")


class Pipeline:
    """The chain every command walks a prefix of: ground state, linearized
    operators, spectrum, approximate solutions, the two experiments.  Stages
    are lazy and memoized; this is the one place where config keys become
    solver arguments, and where checks are judged.  Each of ``STAGES`` sums
    its wall time into the manifest line ``stage.<name>_s`` (the linearized
    operators count as ``spectrum``).
    """

    # check -> bound on its deviation, in the unit that its certify method
    # passes to ``_judge``: 1 unless a comment names another
    BOUNDS = {
        "identity_pohozaev": 1e-6, "identity_mass": 1e-6, "identity_gn": 1e-6,
        "identity_tail": 1e-2, "eigen_residuals": 1e-6, "q_y1_orthogonal": 1e-8,
        "B_normalization": 1e-8, "phi_yplus_zero": 1e-8, "phi_Q_value": 1e-6,
        "negative_direction_value": 1e-4, "forward_rate_within_10pct": 0.10,
        "kernel_LmQ": 1e-6, "kernel_LpQ": 1e-6,        # unit max(Q)^p
        "kernel_LpLamQ": 200.0,                        # unit h^2, of sup / max(Q)^p
        "B_symmetric": 1e-10, "B_antisymmetry_under_L": 1e-7,   # unit |f|_H1 |g|_H1
        "B_iQ_zero": 1e-8}                             # unit |f|_H1
    RATE_MARGIN = 0.95      # the share of -(k+1) e0 the fitted rate must reach
    MG_BAND = 1e-9          # |MG - 1| within which the sweep predicts ConvergeToQ

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

    def _judge(self, name: str, deviation: float, unit: float = 1.0) -> None:
        """Record ``name`` as ``deviation <= BOUNDS[name] * unit``: NaN fails."""
        self.man.record_check(name, deviation <= self.BOUNDS[name] * unit)

    def ground(self, n: int | None = None):
        """Ground profile on the working grid, or on ``n`` nodes.  Its
        iteration counts go to ``solver.petviashvili_iters`` and
        ``solver.newton_iters`` (suffixed ``_n<n>`` off the working grid)."""
        cfg = self.cfg
        n = n or cfg["grid.n"]
        gp = self._once(("ground", n), "ground", lambda: solve_ground(
            make_grid(cfg["model.N"], cfg["grid.rmax"], n), cfg["model.p"]))
        suffix = "" if n == cfg["grid.n"] else f"_n{n}"
        self.man.record(f"solver.petviashvili_iters{suffix}", gp.petviashvili_iters)
        self.man.record(f"solver.newton_iters{suffix}", gp.newton_iters)
        return gp

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

    def identity_n(self) -> int:
        """``check.identity_n``, or the grid on which the identity ratio error
        C h^2 falls to a fifth of 2e-7, C measured by a probe at h = 0.004."""
        if self.cfg["check.identity_n"]:
            return self.cfg["check.identity_n"]
        n0 = int(math.ceil(self.cfg["grid.rmax"] / 0.004))
        delta = check_identities(self.ground(n0)).deviations()["mass"]
        n_star = int(math.ceil(n0 * math.sqrt(delta / (0.2 * 2e-7))))
        return min(max(n0, n_star), 700_000)

    def identities(self, n: int | None = None):
        """The ground state's identities; judges each ``identity_<name>``."""
        rep = check_identities(self.ground(n))
        for name, dev in rep.deviations().items():
            self._judge(f"identity_{name}", dev)
        return rep

    def certify_kernel(self) -> None:
        """L_- Q = 0, L_+ Q = (1-p) Q^p and L_+ ΛQ = -2Q on the working grid."""
        gp, ops = self.ground(), self.ops()
        q, lam = (ops.restrict(f).real for f in (gp.Q, lin.scaling_generator(gp)))
        scale = float(np.max(np.abs(gp.Q.values.real))) ** gp.p
        self._judge("kernel_LmQ", float(np.max(np.abs(ops.apply_lminus(q)))), scale)
        lp_q = ops.apply_lplus(q) - (1 - gp.p) * q ** gp.p
        self._judge("kernel_LpQ", float(np.max(np.abs(lp_q))), scale)
        rel = float(np.max(np.abs(ops.apply_lplus(lam) + 2 * q))) / scale
        self._judge("kernel_LpLamQ", rel, gp.grid.h**2)

    def certify_B(self) -> None:
        """B symmetric, B(iQ, .) = 0, script_L B-antisymmetric, on seeded fields."""
        gp, ops = self.ground(), self.ops()
        rng, r = np.random.default_rng(12345), gp.grid.r

        def smooth_field():
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            vals = sum(ci * np.exp(-((r - 2 * i) ** 2) / 2.0) for i, ci in enumerate(c))
            vals[-1] = 0.0
            return Field(gp.grid, vals)

        f, g = smooth_field(), smooth_field()
        unit = h1_norm(f) * h1_norm(g)
        B = lin.bilinear_B
        self._judge("B_symmetric", abs(B(f, g, ops) - B(g, f, ops)), unit)
        self._judge("B_iQ_zero", abs(B(Field(gp.grid, 1j * gp.Q.values), f, ops)), h1_norm(f))
        lf, lg = (ops.extend(ops.apply_script_l(ops.restrict(v))) for v in (f, g))
        self._judge("B_antisymmetry_under_L", abs(B(lf, g, ops) + B(f, lg, ops)), unit)

    def certify_spectrum(self) -> dict:
        """e0, B(Y+, Y-), Φ(Y+) and more; judges the six spectral checks."""
        spec, ops, grid = self.spectrum, self.ops(), self.ground().grid
        yp = Field(grid, spec.y_plus_values())
        ym = Field(grid, np.conj(spec.y_plus_values()))
        entries = {
            "e0": spec.e0, "residual_plus": spec.residual_plus,
            "residual_minus": spec.residual_minus,
            "B_yplus_yminus": lin.bilinear_B(yp, ym, ops),
            "phi_yplus": lin.linearized_energy_phi(yp, ops),
            "y1_y2_l2": float(np.dot(grid.w, spec.Y1.values.real * spec.Y2.values.real)),
            "q_y1_overlap": spec.q_overlap, "decay_eta": spec.decay_eta,
            "negative_directions": spec.negative_directions}
        self._judge("eigen_residuals", np.maximum(spec.residual_plus, spec.residual_minus))
        self._judge("q_y1_orthogonal", spec.q_overlap)
        self._judge("B_normalization", abs(abs(entries["B_yplus_yminus"]) - 1.0))
        self._judge("phi_yplus_zero", abs(entries["phi_yplus"]))
        self.man.record_check("decay_margin_positive", spec.decay_eta > 0)
        self.man.record_check("simplicity_proxy", spec.negative_directions == 1)
        return entries

    def certify_negativity(self, n: int) -> float:
        """Φ(Q) = (1-p)/2 P(Q), and (L_+ z, z) for z = ΛQ - cQ ⊥ Q against its
        closed form, on ``n`` nodes; returns (L_+ z, z)."""
        gp, ops = self.ground(n), self.ops(n)
        phi_q = lin.linearized_energy_phi(gp.Q, ops)
        self._judge("phi_Q_value", abs(phi_q / ((1 - gp.p) / 2.0 * gp.obs.potential) - 1.0))
        qv, lamv = (ops.restrict(f).real for f in (gp.Q, lin.scaling_generator(gp)))
        z = lamv - float(np.dot(ops.rho, lamv * qv) / np.dot(ops.rho, qv * qv)) * qv
        lpz = float(np.dot(ops.rho, ops.apply_lplus(z) * z))
        N, p = gp.N, gp.p
        pred = -(N**2 * (p - 1) / (4 * (p + 1))) * (p - 1 - 4.0 / N) * gp.obs.potential
        self._judge("negative_direction_value", abs(lpz / pred - 1.0))
        return lpz

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
        self.man.record_check(check, rate <= -(k + 1) * e0 * self.RATE_MARGIN)
        return rate

    def special(self):
        """(V_k^A, its ``run_special`` report); judges the run's two checks."""
        cfg = self.cfg
        sol = self.approx(cfg["experiment.A"], cfg["experiment.k"])
        rep = xp.run_special(sol, cfg["experiment.delta"], evolver_config(cfg.values))
        self.man.record_check("sign_matches_A", rep.d0_sign == int(math.copysign(1, sol.A)))
        self._judge("forward_rate_within_10pct", abs(rep.forward_rate / (-sol.e0) - 1.0))
        return sol, rep

    def sweep(self) -> list:
        """``threshold_sweep`` of the ``experiment.sweep_eps`` family, each result
        with its MG-sign ``mg_prediction_ok``; records ``mg_sign_predictions``.
        Sponge on, order 4: that keeps the Q member at e^{it}Q at stiff (N, p)."""
        gp = self.ground()
        eps = parse_eps(self.cfg["experiment.sweep_eps"])
        ecfg = evolver_config(self.cfg.values, sponge=True, order=4)
        results = xp.threshold_sweep(xp.threshold_family(gp, eps), ecfg, gp)
        for res in results:
            mg, kinds = res["mg"], {res["verdict_forward"].kind, res["verdict_backward"].kind}
            res["mg_prediction_ok"] = (kinds == {"BlowUp"} if mg > 1.0 + self.MG_BAND
                                       else "BlowUp" not in kinds if mg < 1.0 - self.MG_BAND
                                       else kinds == {"ConvergeToQ"})
        self.man.record_check("mg_sign_predictions",
                              all(res["mg_prediction_ok"] for res in results))
        return results


def _record(pipe: Pipeline, entries: dict, path: Path | None = None) -> None:
    """Record entries in the manifest and, given a path, write them there
    as a key = value report."""
    if path is not None:
        _write_kv(path, entries)
    for k, v in entries.items():
        pipe.man.record(k, _fmt(v))


# ---------------------------------------------------------------- commands
# A command body writes its files; its checks are judged by the Pipeline.

def _cmd_ground(pipe: Pipeline, out: Path, inputs: dict):
    gp = pipe.ground()
    write_field_csv(gp.Q, out / "Q.csv")
    rep = pipe.identities()
    q0 = float(gp.Q.values[0].real)
    _write_kv(out / "identity_report.txt", {
        "q0": q0, "c_q": gp.c_q, "s_c": gp.s_c, "ode_residual": gp.ode_residual,
        **asdict(rep)})
    _record(pipe, {"q0": q0, "ode_residual": gp.ode_residual})


def _cmd_spectrum(pipe: Pipeline, out: Path, inputs: dict):
    spec = pipe.spectrum
    write_field_csv(spec.Y1, out / "Y1.csv")
    write_field_csv(spec.Y2, out / "Y2.csv")
    entries = {**pipe.certify_spectrum(), **pipe.certify_coercivity()}
    _record(pipe, entries, out / "spectrum_report.txt")


def _cmd_construct(pipe: Pipeline, out: Path, inputs: dict):
    A, k = pipe.cfg["experiment.A"], pipe.cfg["experiment.k"]
    sol = pipe.approx(A, k)
    for j in range(1, sol.k + 1):
        write_field_csv(sol.Z[j], out / f"Z{j}.csv")
    rate = pipe.residual_order(A, k, "residual_order")
    entries = {"A": sol.A, "k": sol.k, "e0": sol.e0, "t_min": sol.t_min,
               "residual_rate": rate, "expected_rate": -(sol.k + 1) * sol.e0}
    _record(pipe, entries, out / "construct_report.txt")


def _cmd_evolve(pipe: Pipeline, out: Path, inputs: dict):
    initial = inputs["input.initial"]
    if not initial:
        raise UsageError("evolve requires --initial (ground | path/to/field.csv)")
    gp = pipe.ground()
    u0 = (Field(gp.grid, gp.Q.values.copy()) if initial == "ground"
          else read_field_csv(initial, gp.grid))
    with _snapshot_sink(out / "snapshots", gp.grid) as sink:
        series, _ = run_evolution(u0, inputs["input.t0"], evolver_config(pipe.cfg.values),
                                  gp.p, reference=gp, sink=sink)
    _write_series(out / "series.csv", series)
    verdict = classify_run(series, gp)
    _write_kv(out / "verdict.txt", {
        "verdict": verdict.kind,
        "t_star": verdict.t_star if verdict.t_star is not None else "none",
        "rate": verdict.rate if verdict.rate is not None else "none",
        **{f"evidence.{k}": v for k, v in verdict.evidence.items()},
        "stop_reason": series.meta["stop_reason"],
        "t_stop": series.meta["t_stop"],
    })
    _record(pipe, {"verdict": verdict.kind, "steps_sampled": series.t.size})


def _cmd_special(pipe: Pipeline, out: Path, inputs: dict):
    sol, rep = pipe.special()
    _write_series(out / "forward_series.csv", rep.forward_series)
    _write_series(out / "backward_series.csv", rep.backward_series)
    write_field_csv(rep.initial, out / "initial.csv")
    entries = {
        "A": sol.A, "k": sol.k, "delta": pipe.cfg["experiment.delta"], "t0": rep.t0,
        "e0": sol.e0, "mass": rep.mass, "energy": rep.energy,
        "me": rep.me, "mg": rep.mg, "d0_sign": rep.d0_sign,
        "forward_rate": rep.forward_rate, "backward_verdict": rep.backward_verdict.kind,
        "backward_stop_reason": rep.backward_series.meta["stop_reason"],
        "backward_t_reached": rep.backward_series.meta["t_stop"],
        "mass_mismatch": rep.mass_mismatch, "energy_mismatch": rep.energy_mismatch}
    _record(pipe, entries, out / "report.txt")
    _write_kv(out / "verdict.txt", {"verdict": rep.backward_verdict.kind})


def _cmd_classify(pipe: Pipeline, out: Path, inputs: dict):
    lines = ["label,me,mg,verdict_forward,verdict_backward,mg_prediction_ok"]
    for res in pipe.sweep():
        lines.append(f"{res['label']},{_fmt(res['me'])},{_fmt(res['mg'])},"
                     f"{res['verdict_forward'].kind},{res['verdict_backward'].kind},"
                     f"{res['mg_prediction_ok']}")
    (out / "sweep_report.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_modulate(pipe: Pipeline, out: Path, inputs: dict):
    if not inputs["input.snapshots"]:
        raise UsageError("modulate requires --snapshots DIR")
    gp = pipe.ground()
    snaps = _read_snapshots(Path(inputs["input.snapshots"]), gp.grid)
    rows, gaps = ["t,theta,alpha,hnorm,d,res1,res2"], 0
    for f in mo.track(snaps, gp):
        if f is None:
            gaps += 1
        else:
            rows.append(",".join(_fmt(v) for v in (
                f.t, f.theta, f.alpha, f.h_norm, f.d, f.res_iq, f.res_qp)))
    (out / "frames.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    _record(pipe, {"frames": len(rows) - 1, "gaps": gaps})


def _cmd_check(pipe: Pipeline, out: Path, inputs: dict):
    """Every check but those of ``special`` and ``classify``, in one ledger."""
    n_id = pipe.identity_n()
    rep = pipe.identities(n_id)
    pipe.certify_kernel()
    pipe.certify_B()
    spec = pipe.certify_spectrum()
    lpz = pipe.certify_negativity(n_id)
    coercivity = pipe.certify_coercivity()
    rate = pipe.residual_order(1.0, 1, "residual_order_k1")
    _record(pipe, {"identity_n": n_id, "ratio_pohozaev": rep.ratio_pohozaev,
                   "ratio_mass": rep.ratio_mass, "e0": spec["e0"],
                   "B_yplus_yminus": spec["B_yplus_yminus"], "negative_direction": lpz,
                   **coercivity, "residual_rate_k1": rate})
    _write_kv(out / "check_report.txt",
              {name: ("pass" if ok else "FAIL") for name, ok in pipe.man.checks.items()})


# ---------------------------------------------------------------- dispatch

# name -> body
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
    "--delta": ("experiment.delta", float, ("special",)),
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

    # load_config checks the config keys; --t0 is an input, checked here
    t0 = args.get("input.t0")
    if t0 is not None and not math.isfinite(t0):
        print(f"usage error: --t0 must be finite, got {t0}", file=sys.stderr)
        return 2

    out = Path(args["out"]) if args["out"] else Path(f"nlslab_{command}_out")
    try:
        man = RunManifest(out, command, cfg.render())
    except OSError as exc:
        print(f"usage error: cannot create output directory --out {out}: {exc}",
              file=sys.stderr)
        return 2
    pipe = Pipeline(cfg, man)
    inputs = {k: v for k, v in args.items() if k.startswith("input.")}
    for k, v in inputs.items():
        if v is not None:
            man.record(k, _fmt(v))
    man.write_pre()

    try:
        COMMANDS[command](pipe, out, inputs)
    except NlslabError as exc:
        what, status, code = next(v for cls, v in FAILURES.items() if isinstance(exc, cls))
        print(f"{what}: {exc}", file=sys.stderr)
        man.finalize(status)
        return code

    # only check exits 1 on a FAIL; every other command records it and exits 0
    failed = command == "check" and not man.all_checks_pass()
    man.finalize("check-failure" if failed else "done")
    return int(failed)


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
