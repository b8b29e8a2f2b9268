import hashlib
import multiprocessing as mp
import os
import re

import numpy as np
import pytest

from nlslab import cli
from nlslab.cli import cli_dispatch
from nlslab.config import ENV_PREFIX, default_config, load_config
from nlslab.approx import residual_rate
from nlslab.errors import ConfigError
from nlslab.evolve import EvolverConfig
from nlslab.grid import FLOAT_FMT, Field, make_grid, write_field_csv
from nlslab.ground import solve_ground
from nlslab.linearized import bilinear_B, coercivity_min, linearized_energy_phi
from nlslab.manifest import RunManifest


def test_minimal_config_fills_defaults(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("N = 3\np = 3.0\n")
    cfg = load_config(f)
    assert cfg["model.N"] == 3
    assert cfg["model.p"] == 3.0
    assert cfg["grid.rmax"] == 30.0
    assert cfg["grid.n"] == 3000
    assert cfg["evolve.dt"] == 1e-3
    # every key is explicit in the echo
    rendered = cfg.render()
    assert "grid.rmax = 30.0" in rendered
    assert "run.seed = 12345" in rendered


# a key that never existed, and keys deleted because nothing set them
@pytest.mark.parametrize("line", [
    "model.q = 3",
    "ground.polish = true", "ground.bracket_lo = 1.0", "ground.bracket_hi = 20.0",
    "ground.a_tol = 1e-13", "spectrum.refine_tol = 1e-12",
    "evolve.adapt_trigger = 1.25", "evolve.mass_guard = 1e-3",
    "experiment.t_back = 0.0",
])
def test_unknown_key_rejected(tmp_path, line):
    f = tmp_path / "run.cfg"
    f.write_text(f"N = 1\np = 7.0\ngrid.rmax = 20\ngrid.n = 1000\n{line}\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(f)
    assert cli_dispatch(["ground", "--config", str(f),
                         "--out", str(tmp_path / "o")]) == 2


def test_duplicate_key_rejected(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("model.N = 3\nmodel.N = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(f)


def test_subcritical_p_rejected(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("N = 3\np = 2.0\n")  # below 1 + 4/N = 7/3
    with pytest.raises(ConfigError):
        load_config(f)


def test_type_errors_carry_line_numbers(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("# comment\ngrid.n = many\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(f)


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_PREFIX + "GRID__N", "2048")
    cfg = load_config(None)
    assert cfg["grid.n"] == 2048


def test_comments_and_blanks(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("\n# header\nmodel.N = 2   # inline\n\nmodel.p = 4.0\n")
    cfg = load_config(f)
    assert cfg["model.N"] == 2 and cfg["model.p"] == 4.0


def test_default_config_overrides():
    cfg = default_config(**{"model.N": 1, "model.p": 7.0})
    assert cfg["model.N"] == 1


# ------------------------------------------------------------------ CLI

def run_cli(args):
    return cli_dispatch(args)


def test_unknown_subcommand_usage_error(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_no_subcommand_usage_error():
    assert run_cli([]) == 2


def test_evolve_without_initial_is_usage_error(tmp_path):
    rc = run_cli(["evolve", "--N", "1", "--p", "7", "--n", "1500",
                  "--out", str(tmp_path / "o")])
    assert rc == 2


def test_bad_config_exit_code(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("nonsense\n")
    assert run_cli(["ground", "--config", str(f),
                    "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("keys", [
    "evolve.dt_min = 0.5\n",
    "evolve.sponge = true\nevolve.sponge_strength = -1\n",
    "evolve.sponge_strength = -1\n",   # classify and special turn the sponge on
    "evolve.sponge_width = 1.5\n",
    "evolve.sponge_width = -0.5\n",
    "evolve.t_end = nan\n",
    "evolve.dt = nan\n",
    "evolve.sponge = true\nevolve.sponge_strength = nan\n",
    "evolve.dt_min = -1\n",          # the blow-up floor abs(dt) <= dt_min never holds
    "evolve.sample_every = 0\n",
    "evolve.snapshot_every = -1\n",
])
def test_bad_evolve_keys_are_config_errors(tmp_path, keys):
    f = tmp_path / "bad.cfg"
    f.write_text("N = 1\np = 7.0\n" + keys)
    assert run_cli(["evolve", "--config", str(f), "--initial", "ground",
                    "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("flags", [["--t-end", "nan"], ["--dt", "nan"],
                                   ["--rmax", "inf"]], ids=" ".join)
def test_non_finite_flags_are_config_errors(tmp_path, flags):
    out = tmp_path / "o"
    assert run_cli(["evolve", "--N", "1", "--p", "7", "--n", "1000",
                    "--initial", "ground", *flags, "--out", str(out)]) == 2
    assert not out.exists()


# special sets t_end itself, so it takes --dt but not --t-end
@pytest.mark.parametrize("flag, command", [
    (flag, command) for flag in ("--t-end", "--dt")
    for command in ("ground", "spectrum", "construct", "modulate", "check")
] + [("--t-end", "special")])
def test_time_flags_only_on_run_commands(tmp_path, command, flag):
    assert run_cli([command, "--N", "1", "--p", "7", "--rmax", "20", "--n", "1000",
                    flag, "1e-3", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("n_id", [-5, 5])
def test_bad_identity_n_is_config_error(tmp_path, n_id):
    # 0 means auto; any other value must be >= 16, as grid.n must
    f = tmp_path / "bad.cfg"
    f.write_text(f"N = 1\np = 7.0\ncheck.identity_n = {n_id}\n")
    with pytest.raises(ConfigError, match="identity_n"):
        load_config(f)
    assert run_cli(["check", "--config", str(f), "--rmax", "20", "--n", "1000",
                    "--out", str(tmp_path / "o")]) == 2


def test_ground_command_outputs(tmp_path):
    out = tmp_path / "g"
    rc = run_cli(["ground", "--N", "3", "--p", "3", "--n", "1500",
                  "--out", str(out)])
    assert rc == 0
    assert (out / "Q.csv").exists()
    report = (out / "identity_report.txt").read_text()
    assert "ratio_pohozaev" in report
    manifest = (out / "manifest.txt").read_text()
    assert "status = done" in manifest
    assert "sha256.Q.csv" in manifest
    assert "--- config ---" in manifest


def test_ground_command_determinism(tmp_path):
    """Criterion-style check: identical config => bit-identical CSVs."""
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["ground", "--N", "1", "--p", "7", "--n", "1500",
                        "--out", str(out)]) == 0
        outs.append((out / "Q.csv").read_bytes())
    assert outs[0] == outs[1]


def test_manifest_records_effective_config(tmp_path):
    """Flags given beside --config reach the manifest's config echo."""
    f = tmp_path / "run.cfg"
    f.write_text("N = 1\np = 7.0\ngrid.rmax = 20.0\n")
    out = tmp_path / "g"
    assert run_cli(["ground", "--config", str(f), "--n", "1000",
                    "--out", str(out)]) == 0
    block = (out / "manifest.txt").read_text().split("--- config ---")[1]
    assert "grid.n = 1000" in block
    assert "model.N = 1" in block


# sha256 of the criterion-13 outputs; a change of discretization or of
# the order of floating-point operations on these paths shows up here
STORED_SHA256 = {
    "Q.csv": "11f450fb162d6020720e011c0816c0b105345b39e7a95aa38a8c8f3dbb28a268",
    "series.csv": "68b460bab128f19041a44cd70aa836294bcd2e4ea877a6a0ada176bd2e1077c4",
    "snap_00000.csv": "e7158d3ae9efec203f0434570a6a384488fc780394f34cce74ad2ad0218b2d6a",
}

# sha256 of the outputs that read mass, energy, ME and MG
ROUNDTRIP_SHA256 = {
    "series.csv": "17e05ab3e72b236647b35e4ec44c67adc6d5e8287d326f17263894cb7791fee0",
    "frames.csv": "40515c5967d8a6395dd284ff15b97f893bef90abe5673a64b8931e0c06fd9d74",
}
SWEEP_SHA256 = "75c724a0ef9fec77e027cdcbb798395aa8b1367b7ad5e53b0257d4a8b0ffefe7"


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_outputs_match_stored_hashes(tmp_path):
    g, e = tmp_path / "g", tmp_path / "e"
    assert run_cli(["ground", "--N", "3", "--p", "3", "--n", "1500",
                    "--out", str(g)]) == 0
    assert run_cli(["evolve", "--N", "1", "--p", "5.2", "--n", "1500",
                    "--initial", "ground", "--t-end", "0.1",
                    "--out", str(e)]) == 0
    files = {"Q.csv": g / "Q.csv", "series.csv": e / "series.csv",
             "snap_00000.csv": e / "snapshots" / "snap_00000.csv"}
    got = {name: sha256_of(path) for name, path in files.items()}
    assert got == STORED_SHA256


def read_kv(path):
    """``key = value`` lines of a report, or of a manifest up to its config echo."""
    head = path.read_text().split("--- config ---")[0]
    return dict(line.split(" = ", 1) for line in head.splitlines())


def test_spectrum_and_construct_match_fixtures(tmp_path, gp33, ops33, spec33, sol33):
    """The two commands report what the library computes on the same grid.

    Compared as formatted values, not stored hashes: both go through
    ``eigh``, whose last bits can depend on the BLAS build.
    """
    s, c = tmp_path / "s", tmp_path / "c"
    assert run_cli(["spectrum", "--N", "3", "--p", "3", "--n", "1500",
                    "--out", str(s)]) == 0
    assert run_cli(["construct", "--N", "3", "--p", "3", "--n", "1500",
                    "--A", "1", "--k", "3", "--out", str(c)]) == 0
    grid = gp33.grid
    yp = Field(grid, spec33.y_plus_values())
    ym = Field(grid, np.conj(spec33.y_plus_values()))
    e0 = spec33.e0
    times = [sol33.t_min + (1.0 + 0.25 * i) / e0 for i in range(6)]
    expected_spectrum = {
        "e0": e0,
        "residual_plus": spec33.residual_plus,
        "residual_minus": spec33.residual_minus,
        "B_yplus_yminus": bilinear_B(yp, ym, ops33),
        "phi_yplus": linearized_energy_phi(yp, ops33),
        "y1_y2_l2": float(np.dot(grid.w, spec33.Y1.values.real
                                 * spec33.Y2.values.real)),
        "q_y1_overlap": spec33.q_overlap,
        "decay_eta": spec33.decay_eta,
        "negative_directions": spec33.negative_directions,
        "coercivity_Gperp": coercivity_min(ops33, spec33, "Gperp"),
        "coercivity_Gtildeperp": coercivity_min(ops33, spec33, "Gtildeperp"),
    }
    expected_construct = {
        "A": sol33.A, "k": sol33.k, "e0": e0, "t_min": sol33.t_min,
        "residual_rate": residual_rate(sol33, times),
        "expected_rate": -(sol33.k + 1) * e0,
    }
    for out, name, expected in ((s, "spectrum_report.txt", expected_spectrum),
                                (c, "construct_report.txt", expected_construct)):
        want = {k: FLOAT_FMT % v if isinstance(v, float) else str(v)
                for k, v in expected.items()}
        assert read_kv(out / name) == want
    ms, mc = read_kv(s / "manifest.txt"), read_kv(c / "manifest.txt")
    assert ms["check.eigen_residuals"] == "pass"
    assert ms["check.coercivity_positive"] == "pass"
    assert mc["check.residual_order"] == "pass"
    # every stage has a wall-time line; the ones spectrum runs took time
    stages = {k: v for k, v in ms.items() if k.startswith("stage.")}
    assert sorted(stages) == ["stage.approx_s", "stage.coercivity_s",
                              "stage.ground_s", "stage.spectrum_s"]
    assert all(re.fullmatch(r"\d+\.\d{3}", v) for v in stages.values())
    assert float(stages["stage.coercivity_s"]) > 0
    assert float(stages["stage.spectrum_s"]) > 0


def test_evolve_command_and_snapshot_roundtrip(tmp_path):
    out = tmp_path / "e"
    rc = run_cli(["evolve", "--N", "1", "--p", "5.2", "--n", "1500",
                  "--initial", "ground", "--t-end", "0.2", "--dt", "1e-3",
                  "--out", str(out)])
    assert rc == 0
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "t,mass,energy,momentum,grad,d,me,mg,linf,fr,frp,dist_q"
    assert (out / "snapshots" / "index.csv").exists()
    assert (out / "verdict.txt").exists()

    # modulate consumes the snapshot directory
    out2 = tmp_path / "m"
    rc2 = run_cli(["modulate", "--N", "1", "--p", "5.2", "--n", "1500",
                   "--snapshots", str(out / "snapshots"), "--out", str(out2)])
    assert rc2 == 0
    frames = (out2 / "frames.csv").read_text().splitlines()
    assert frames[0] == "t,theta,alpha,hnorm,d,res1,res2"
    assert len(frames) > 2
    assert {"series.csv": sha256_of(out / "series.csv"),
            "frames.csv": sha256_of(out2 / "frames.csv")} == ROUNDTRIP_SHA256


def test_pool_and_one_cpu_outputs_are_byte_identical(tmp_path, monkeypatch):
    """Snapshot writes and reads and the sweep's runs go to forked workers;
    every output file must match a run under a one-CPU mask."""
    cfg = tmp_path / "every_step.cfg"
    cfg.write_text("evolve.sample_every = 1\nevolve.snapshot_every = 1\n")
    runs = {}
    for tag, cpus in (("pool", {0, 1}), ("serial", {0})):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out = tmp_path / tag
        grid = ["--N", "1", "--p", "5.2", "--rmax", "20", "--n", "1000"]
        assert run_cli(["evolve", *grid, "--config", str(cfg), "--initial", "ground",
                        "--t-end", "0.05", "--out", str(out / "e")]) == 0
        assert run_cli(["modulate", *grid, "--snapshots", str(out / "e" / "snapshots"),
                        "--out", str(out / "m")]) == 0
        assert run_cli(["classify", "--N", "3", "--p", "3", "--rmax", "20",
                        "--n", "1000", "--t-end", "0.05", "--out", str(out / "c")]) == 0
        runs[tag] = {f.relative_to(out).as_posix(): f.read_bytes()
                     for f in sorted(out.rglob("*")) if f.is_file()
                     and f.name != "manifest.txt"}
    names = set(runs["pool"])
    assert {"e/series.csv", "e/snapshots/index.csv", "m/frames.csv",
            "c/sweep_report.csv"} <= names
    assert sum(n.startswith("e/snapshots/snap_") for n in names) == 51
    assert runs["pool"] == runs["serial"]
    assert mp.active_children() == []


def test_evolve_non_finite_initial_data_is_numerical_failure(tmp_path):
    grid = make_grid(1, 20.0, 1000)
    vals = np.exp(-grid.r**2)
    vals[10] = np.nan
    bad = tmp_path / "bad.csv"
    write_field_csv(Field(grid, vals), bad)
    out = tmp_path / "e"
    rc = run_cli(["evolve", "--N", "1", "--p", "5.2", "--rmax", "20",
                  "--n", "1000", "--initial", str(bad), "--t-end", "0.01",
                  "--out", str(out)])
    assert rc == 3
    assert "status = numerical-failure" in (out / "manifest.txt").read_text()


def test_eps_values_flag_reaches_the_config_echo(tmp_path):
    out = tmp_path / "cl"
    assert run_cli(["classify", "--N", "3", "--p", "3", "--rmax", "20",
                    "--n", "1000", "--t-end", "0.01", "--eps-values=-0.05,0.05",
                    "--out", str(out)]) == 0
    block = (out / "manifest.txt").read_text().split("--- config ---")[1]
    assert "experiment.sweep_eps = -0.05,0.05" in block
    rows = (out / "sweep_report.csv").read_text().splitlines()[1:]
    assert sorted(row.split(",")[0] for row in rows) == ["Q", "eps=+0.05", "eps=-0.05"]


@pytest.mark.parametrize("eps", ["abc", ",", "0.1,x", "0.1,nan"])
def test_bad_sweep_eps_is_config_error(tmp_path, eps):
    with pytest.raises(ConfigError, match="sweep_eps"):
        default_config(**{"experiment.sweep_eps": eps})
    assert run_cli(["classify", "--N", "3", "--p", "3", "--rmax", "20",
                    "--n", "1000", "--t-end", "0.01", f"--eps-values={eps}",
                    "--out", str(tmp_path / "cl")]) == 2


def test_inputs_that_are_not_config_keys_reach_the_manifest(tmp_path):
    e, m = tmp_path / "e", tmp_path / "m"
    grid = ["--N", "1", "--p", "5.2", "--rmax", "20", "--n", "1000"]
    assert run_cli(["evolve", *grid, "--initial", "ground", "--t0", "0.5",
                    "--t-end", "0.51", "--out", str(e)]) == 0
    assert run_cli(["modulate", *grid, "--snapshots", str(e / "snapshots"),
                    "--out", str(m)]) == 0
    me, mm = read_kv(e / "manifest.txt"), read_kv(m / "manifest.txt")
    assert me["input.initial"] == "ground"
    assert me["input.t0"] == "0.5"
    assert mm["input.snapshots"] == str(e / "snapshots")


def test_pipeline_runs_each_stage_once(tmp_path, monkeypatch):
    """The identity probe on the working grid reuses its ground state."""
    solved = []

    def counting_solve(grid, *args, **kwargs):
        solved.append(grid.n)
        return solve_ground(grid, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_ground", counting_solve)
    cfg = default_config(**{"model.N": 1, "model.p": 7.0, "grid.rmax": 10.0,
                            "grid.n": 2500})  # the probe grid: rmax / 0.004
    man = RunManifest(tmp_path, "check", cfg.render())
    pipe = cli.Pipeline(cfg, man)
    assert pipe.identity_n() > 2500
    assert pipe.ground() is pipe.ground(2500)
    assert pipe.ops() is pipe.ops(2500)
    assert solved == [2500]
    assert float(man.entries["stage.ground_s"]) > 0
    assert man.entries["stage.coercivity_s"] == "0.000"
    assert pipe.evolver_config() == EvolverConfig()
    assert pipe.evolver_config(order=4).order == 4


def test_modulate_requires_snapshots(tmp_path):
    assert run_cli(["modulate", "--N", "1", "--p", "5.2",
                    "--out", str(tmp_path / "m")]) == 2


def test_check_command_full_suite(tmp_path):
    """`check --N 1 --p 7` runs the whole identity suite and exits 0."""
    cfg = tmp_path / "check.cfg"
    cfg.write_text("N = 1\np = 7.0\ncheck.identity_n = 60000\n")
    out = tmp_path / "chk"
    rc = run_cli(["check", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    report = (out / "check_report.txt").read_text()
    assert "FAIL" not in report
    assert "residual_order_k1 = pass" in report
    manifest = (out / "manifest.txt").read_text()
    assert "check.identity_pohozaev = pass" in manifest


def test_special_command_outputs(tmp_path):
    out = tmp_path / "sp"
    rc = run_cli(["special", "--N", "3", "--p", "3", "--n", "1500",
                  "--A", "1", "--out", str(out)])
    assert rc == 0
    rep = (out / "report.txt").read_text()
    assert "backward_verdict = BlowUp" in rep
    assert (out / "forward_series.csv").exists()
    assert (out / "backward_series.csv").exists()
    assert (out / "initial.csv").exists()
    man = (out / "manifest.txt").read_text()
    assert "check.sign_matches_A = pass" in man
    assert "check.forward_rate_within_10pct = pass" in man


def test_classify_command_trichotomy(tmp_path):
    out = tmp_path / "cl"
    rc = run_cli(["classify", "--N", "3", "--p", "3", "--n", "1500",
                  "--t-end", "1.2", "--dt", "2e-4", "--out", str(out)])
    assert rc == 0
    rows = (out / "sweep_report.csv").read_text().splitlines()
    assert rows[0].startswith("label,me,mg")
    body = "\n".join(rows[1:])
    assert "ConvergeToQ" in body and "BlowUp" in body and "Scatter" in body
    assert "False" not in body
    assert sha256_of(out / "sweep_report.csv") == SWEEP_SHA256
