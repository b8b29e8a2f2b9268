import hashlib
import io
import multiprocessing as mp
import os
import re
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import nlslab
from nlslab import cli
from nlslab.cli import cli_dispatch
from nlslab.config import ENV_PREFIX, load_config
from nlslab.approx import residual_rate
from nlslab.errors import ConfigError
from nlslab.evolve import SERIES_COLUMNS, EvolverConfig, TimeSeries, classify_run, evolve
from nlslab.grid import FLOAT_FMT, Field, make_grid, write_field_csv
from nlslab.ground import solve_ground
from nlslab.linearized import bilinear_B, coercivity_min, linearized_energy_phi
from nlslab.manifest import RunManifest
from oracles import write_snapshot_archive


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
    assert "check.identity_n = 0" in rendered


# a key that never existed, and keys deleted because nothing set them
@pytest.mark.parametrize("line", [
    "model.q = 3",
    "ground.polish = true", "ground.bracket_lo = 1.0", "ground.bracket_hi = 20.0",
    "ground.a_tol = 1e-13", "spectrum.refine_tol = 1e-12",
    "evolve.adapt_trigger = 1.25", "evolve.mass_guard = 1e-3",
    "experiment.t_back = 0.0",
    "evolve.sponge_strength = 5.0", "evolve.sponge_width = 0.15",
    "evolve.dt_min = 0", "check.rate_margin = 0.95", "run.seed = 12345",
    "check.pohozaev_tol = 1e-6", "check.mass_tol = 1e-6", "check.gn_tol = 1e-6",
    "check.tail_tol = 1e-2", "check.spectrum_tol = 1e-6",
])
def test_unknown_key_rejected(tmp_path, line):
    f = tmp_path / "run.cfg"
    f.write_text(f"N = 1\np = 7.0\ngrid.rmax = 20\ngrid.n = 1000\n{line}\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(f)
    assert cli_dispatch(["ground", "--config", str(f),
                         "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key", ["evolve.sponge_strength", "evolve.sponge_width",
                                 "evolve.dt_min", "check.rate_margin", "run.seed"])
def test_deleted_keys_rejected_from_env_and_overrides(tmp_path, monkeypatch, key):
    with pytest.raises(ConfigError, match="unknown override key"):
        load_config(overrides={key: 1})
    monkeypatch.setenv(ENV_PREFIX + key.replace(".", "__").upper(), "1")
    with pytest.raises(ConfigError, match="names no config key"):
        load_config(None)
    assert cli_dispatch(["ground", "--N", "1", "--p", "7", "--rmax", "20", "--n", "1000",
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


@pytest.mark.parametrize("var, text", [("EVOLVE__SPONGE", "maybe"), ("GRID__N", "abc")])
def test_env_type_errors_name_the_variable(monkeypatch, var, text):
    """A bad environment value names its variable, not a line of a file."""
    monkeypatch.setenv(ENV_PREFIX + var, text)
    key = var.replace("__", ".").lower()
    with pytest.raises(ConfigError) as err:
        load_config(None)
    assert str(err.value).startswith(f"{ENV_PREFIX}{var}: key {key!r}: ")


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
    cfg = load_config(overrides={"model.N": 1, "model.p": 7.0})
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


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_bytes(b"\xff\xfe\x00x\n")
    assert run_cli(["ground", "--config", str(f),
                    "--out", str(tmp_path / "o")]) == 2
    assert f"config error: cannot read config file {f}: " in capsys.readouterr().err


@pytest.mark.parametrize("keys", [
    "evolve.t_end = nan\n",
    "evolve.dt = nan\n",
    "evolve.sample_every = 0\n",
    "evolve.snapshot_every = -1\n",
])
def test_bad_evolve_keys_are_config_errors(tmp_path, keys):
    f = tmp_path / "bad.cfg"
    f.write_text("N = 1\np = 7.0\n" + keys)
    assert run_cli(["evolve", "--config", str(f), "--initial", "ground",
                    "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("flags", [["--t-end", "nan"], ["--dt", "nan"],
                                   ["--rmax", "inf"], ["--t0", "nan"], ["--t0=inf"]],
                         ids=" ".join)
def test_non_finite_flags_are_config_errors(tmp_path, flags):
    out = tmp_path / "o"
    assert run_cli(["evolve", "--N", "1", "--p", "7", "--n", "1000",
                    "--initial", "ground", *flags, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys, sub):
    """An existing file as --out, or as its parent, is exit 2 with a usage
    error that names --out, and the file is left as it was."""
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    rc = cli_dispatch(["ground", "--N", "1", "--p", "5.2", "--rmax", "20", "--n", "1000",
                       "--out", str(afile / sub)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot create output directory --out"), err
    assert afile.read_text() == "kept\n"


# special sets t_end itself, so it takes --dt but not --t-end
@pytest.mark.parametrize("flag, command", [
    (flag, command) for flag in ("--t-end", "--dt")
    for command in ("ground", "spectrum", "construct", "modulate", "check")
] + [("--t-end", "special")])
def test_time_flags_only_on_run_commands(tmp_path, command, flag):
    assert run_cli([command, "--N", "1", "--p", "7", "--rmax", "20", "--n", "1000",
                    flag, "1e-3", "--out", str(tmp_path / "o")]) == 2


def test_delta_only_on_special(tmp_path):
    """construct builds V_k^A without a datum, so it has no use for --delta."""
    assert run_cli(["construct", "--N", "1", "--p", "7", "--rmax", "20", "--n", "1000",
                    "--delta", "0.05", "--out", str(tmp_path / "o")]) == 2


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


def test_manifest_hashes_only_its_own_outputs(tmp_path):
    """A manifest checksums the files its own run wrote, none that an
    earlier run left in the same directory (which stay there)."""
    def hashed(out):
        return [key for key in read_kv(out / "manifest.txt") if key.startswith("sha256.")]

    out = tmp_path / "o"
    grid = ["--N", "1", "--p", "5.2", "--rmax", "20", "--n", "1000", "--out", str(out)]
    assert run_cli(["evolve", *grid, "--initial", "ground", "--t-end", "0.01"]) == 0
    assert run_cli(["ground", *grid]) == 0
    assert hashed(out) == ["sha256.Q.csv"]
    assert (out / "series.csv").exists()

    c = tmp_path / "c"
    grid = ["--N", "3", "--p", "3", "--rmax", "20", "--n", "1000", "--out", str(c)]
    assert run_cli(["construct", *grid, "--k", "3"]) == 0
    assert run_cli(["construct", *grid, "--k", "2"]) == 0
    assert hashed(c) == ["sha256.Z1.csv", "sha256.Z2.csv"]
    assert (c / "Z3.csv").exists()


def test_identity_checks_read_the_tolerance_keys(tmp_path, monkeypatch):
    """``Pipeline.BOUNDS`` judges the identities of ``ground``: at n 1500
    the defaults fail three of them, wide bounds pass all four, and a
    pohozaev bound below any deviation fails it."""
    grid = ["--N", "3", "--p", "3", "--n", "1500"]
    names = ("pohozaev", "mass", "gn", "tail")
    default = cli.Pipeline.BOUNDS
    wide = {**default, **{f"identity_{name}": 1e3 for name in names}}
    cases = {"default": default, "wide": wide,
             "tight": {**default, "identity_pohozaev": 1e-30}}
    ledger = {}
    for case, bounds in cases.items():
        monkeypatch.setattr(cli.Pipeline, "BOUNDS", bounds)
        out = tmp_path / case
        assert run_cli(["ground", *grid, "--out", str(out)]) == 0
        man = read_kv(out / "manifest.txt")
        ledger[case] = {name: man[f"check.identity_{name}"] for name in names}
    assert [ledger["default"][name] for name in ("gn", "mass", "pohozaev")] == ["FAIL"] * 3
    assert ledger["wide"] == dict.fromkeys(names, "pass")
    assert ledger["tight"]["pohozaev"] == "FAIL"


def test_ground_report_q0_is_row_0_of_q_csv(tmp_path):
    """``q0`` has one home: the report's and the manifest's value is Q_h(0),
    the first row of Q.csv."""
    out = tmp_path / "g"
    assert run_cli(["ground", "--N", "3", "--p", "3", "--n", "1500",
                    "--out", str(out)]) == 0
    q_row0 = (out / "Q.csv").read_text().splitlines()[1].split(",")[1]
    assert float(read_kv(out / "identity_report.txt")["q0"]) == float(q_row0)
    assert float(read_kv(out / "manifest.txt")["q0"]) == float(q_row0)


def test_ground_command_leaves_scipy_optimize_unimported(tmp_path):
    """The ground-state solver needs no root-finder library: ``import nlslab.cli``
    and a ``ground`` run in a fresh interpreter import no scipy.optimize,
    which would add about 0.2 s to every process."""
    code = ("import sys, nlslab.cli\n"
            "nlslab.cli.cli_dispatch(['ground', '--N', '3', '--p', '3', '--rmax', '20',"
            " '--n', '1000', '--out', 'g'])\n"
            "print('scipy.optimize' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(nlslab.__file__).resolve().parents[1])}
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    assert (tmp_path / "g" / "Q.csv").exists()
    assert res.stdout.split()[-1] == "False"


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
    "Q.csv": "1c4f27ee64b53b5fbfda5de91861f8a20b448c3a2ff68147e4383b427e1b38d8",
    "series.csv": "451bdadd7fb5cc4f1fce3f2eef6e22f72a9f31de73a344e16f4550b53f967021",
    "snapshots.npz": "aedad74c8b1169b6abe641568f938f119d2d7bf3ac5eadc6de27fcee0a21ba38",
}

# sha256 of the outputs that read mass, energy, ME and MG
ROUNDTRIP_SHA256 = {
    "series.csv": "a9930954d0a06a53af22f28f9d291216e3d34308faa1adb621cdde65e894e28e",
    "frames.csv": "1e5e46558a00195991812acf327eac3332f8988d451c35308abe94216d11c700",
}
SWEEP_SHA256 = "9d652ef915f53fd0beb14ea54c2a95ee5fc4063d98ef5c24309a7284f53675a7"

# sha256 of the special-solution path at (N, p) = (3, 3), rmax 20, n 1000:
# construct's profiles Z_j, and the special run's datum and both legs
SPECIAL_SHA256 = {
    "Z1.csv": "b86c7edd1b7dee2b8e02e2ee04376f56f728aa3b196264dc3b45af0c666fb765",
    "Z2.csv": "e5f953a60fc951c27a5962f4e6861829fefe5d6d057a5b6d6eb63724c202cbfe",
    "Z3.csv": "80bef8868b1ab99a70964d199fb9cf520fafd174bdcc78350bbffa4a3c439eef",
    "initial.csv": "34a4891314f9cacb5ec2d47c5240585685a95499944d2512b22b0a00beeff336",
    "forward_series.csv": "01f40e5e07f8c12a6910b42ab3808812c4e3dd9d80a6116d1125f6ecc7a486c7",
    "backward_series.csv": "d00f8157488306a34a5ba2757f5a9823deba155839747b268cc13e2ef4e3fe4d",
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def members(archive):
    """The member names of a snapshot archive, as ``np.load`` keys them."""
    with np.load(archive, allow_pickle=False) as z:
        return z.files


def test_outputs_match_stored_hashes(tmp_path):
    g, e = tmp_path / "g", tmp_path / "e"
    assert run_cli(["ground", "--N", "3", "--p", "3", "--n", "1500",
                    "--out", str(g)]) == 0
    assert run_cli(["evolve", "--N", "1", "--p", "5.2", "--n", "1500",
                    "--initial", "ground", "--t-end", "0.1",
                    "--out", str(e)]) == 0
    files = {"Q.csv": g / "Q.csv", "series.csv": e / "series.csv",
             "snapshots.npz": e / "snapshots" / "snapshots.npz"}
    got = {name: sha256_of(path) for name, path in files.items()}
    assert got == STORED_SHA256


def test_special_path_matches_stored_hashes(tmp_path):
    c, sp = tmp_path / "c", tmp_path / "sp"
    grid = ["--N", "3", "--p", "3", "--rmax", "20", "--n", "1000"]
    assert run_cli(["construct", *grid, "--k", "3", "--out", str(c)]) == 0
    assert run_cli(["special", *grid, "--A", "1", "--dt", "1e-3",
                    "--out", str(sp)]) == 0
    files = [c / f"Z{j}.csv" for j in (1, 2, 3)] + [
        sp / name for name in ("initial.csv", "forward_series.csv",
                               "backward_series.csv")]
    assert {f.name: sha256_of(f) for f in files} == SPECIAL_SHA256


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
    # spectrum certifies the eigenpair with the six checks that check applies
    for name in ("eigen_residuals", "q_y1_orthogonal", "B_normalization", "phi_yplus_zero",
                 "decay_margin_positive", "simplicity_proxy", "coercivity_positive"):
        assert ms[f"check.{name}"] == "pass"
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
    assert series[0] == "t,mass,energy,potential,grad,d,me,mg,dist_q"
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
    """Outputs do not depend on the CPUs a run may use: every output file,
    the snapshot archive included, matches a run under a one-CPU mask."""
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
    assert {"e/series.csv", "e/snapshots/index.csv", "e/snapshots/snapshots.npz",
            "m/frames.csv", "c/sweep_report.csv"} <= names
    assert len(members(tmp_path / "pool" / "e" / "snapshots" / "snapshots.npz")) == 51
    assert runs["pool"] == runs["serial"]
    assert mp.active_children() == []


def test_failed_evolve_leaves_no_snapshot_index(tmp_path):
    """A run that raises after its sink took a snapshot exits 3, writes no
    index.csv, and modulate reads that directory as a usage error."""
    grid = make_grid(1, 20.0, 1000)
    vals = 0.05 * np.exp(-grid.r**2)
    vals[-1] = 1.0      # pinned to zero by the solver: the mass guard fires
    datum = tmp_path / "datum.csv"
    write_field_csv(Field(grid, vals), datum)
    cfg = tmp_path / "every_step.cfg"
    cfg.write_text("evolve.sample_every = 1\nevolve.snapshot_every = 1\n")
    args = ["--N", "1", "--p", "5.2", "--rmax", "20", "--n", "1000"]
    out = tmp_path / "e"
    assert run_cli(["evolve", *args, "--config", str(cfg), "--initial", str(datum),
                    "--t-end", "0.05", "--out", str(out)]) == 3
    assert "status = numerical-failure" in (out / "manifest.txt").read_text()
    assert (out / "snapshots").is_dir()
    assert not (out / "snapshots" / "index.csv").exists()
    assert not (out / "series.csv").exists()
    assert mp.active_children() == []
    assert run_cli(["modulate", *args, "--snapshots", str(out / "snapshots"),
                    "--out", str(tmp_path / "m")]) == 2


def test_snapshot_every_zero_keeps_only_the_ends(tmp_path):
    """An explicit evolve.snapshot_every = 0 is honoured: one snapshot at
    t0 and one at the end, none between."""
    cfg = tmp_path / "ends.cfg"
    cfg.write_text("evolve.snapshot_every = 0\n")
    out = tmp_path / "e"
    assert run_cli(["evolve", "--N", "1", "--p", "5.2", "--rmax", "20", "--n", "1000",
                    "--config", str(cfg), "--initial", "ground", "--t-end", "0.5",
                    "--out", str(out)]) == 0
    rows = (out / "snapshots" / "index.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == pytest.approx([0.0, 0.5])
    assert members(out / "snapshots" / "snapshots.npz") == ["snap_00000", "snap_00001"]


@pytest.mark.parametrize("case", ["two-columns", "non-numeric", "missing",
                                  "short-index-row", "other-row-count",
                                  "other-radii", "non-finite",
                                  "non-finite-snapshot", "wrong-shape-snapshot",
                                  "other-radii-snapshot", "missing-snapshot",
                                  "truncated-archive", "float32-second-snapshot",
                                  "two-columns-second-snapshot",
                                  "truncated-second-snapshot",
                                  "non-finite-second-snapshot",
                                  "other-radii-second-snapshot", "non-finite-index-time",
                                  "non-utf8-index", "index-is-a-directory",
                                  "fortran-order-snapshot"])
def test_unreadable_input_files_are_usage_errors(tmp_path, capsys, case):
    """A field file that ``evolve --initial`` cannot read, a snapshot
    archive or member that ``modulate`` cannot read, or either holding
    another grid or a non-finite value, exits 2 with a message that names
    the file (the archive, and the member).  A bad second member behind a
    good first one is caught whether its header matches the first's
    (non-finite, other radii, truncated data) or not (float32, two
    columns); a non-finite time in ``index.csv``, or an index that is not
    UTF-8 or cannot be read, names the index.  A member is read only as
    the C-order table that the writer makes: a Fortran-order member is
    refused."""
    grid = make_grid(1, 20.0, 1000)     # the run's grid
    bad = tmp_path / "field.csv"
    if case == "two-columns":
        bad.write_text("r,re\n" + "".join(f"{0.02 * i!r},1.0\n" for i in range(1001)))
    elif case == "non-numeric":
        bad.write_text("r,re,im\nzero,one,two\n")
    elif case in ("other-row-count", "other-radii"):
        other = (make_grid(1, 20.0, 500) if case == "other-row-count"
                 else make_grid(1, 10.0, 1000))
        write_field_csv(Field(other, np.exp(-other.r**2)), bad)
    elif case == "non-finite":
        vals = np.exp(-grid.r**2)
        vals[10] = np.nan
        write_field_csv(Field(grid, vals), bad)
    elif case.endswith(("-snapshot", "-archive")):
        table = np.column_stack([grid.r, np.exp(-grid.r**2), np.zeros(grid.n + 1)])
        names = ["snap_00000.npy"]
        if case == "non-finite-snapshot":
            table[10, 2] = np.inf
        elif case == "wrong-shape-snapshot":
            table = table[:, :2]
        elif case == "other-radii-snapshot":
            table[:, 0] *= 0.5
        elif case == "fortran-order-snapshot":
            table = np.asfortranarray(table)
        elif case == "missing-snapshot":
            names.append("snap_00001.npy")
        bad = tmp_path / "snaps" / "snapshots.npz"
        bad.parent.mkdir()
        if case.endswith("-second-snapshot"):
            names.append("snap_00001.npy")
            second = table.copy()
            if case == "float32-second-snapshot":
                second = second.astype(np.float32)
            elif case == "two-columns-second-snapshot":
                second = second[:, :2]
            elif case == "non-finite-second-snapshot":
                second[10, 1] = np.nan
            elif case == "other-radii-second-snapshot":
                second[:, 0] *= 0.5
            with zipfile.ZipFile(bad, "w") as archive:
                for name, member in zip(names, (table, second)):
                    buf = io.BytesIO()
                    np.lib.format.write_array(buf, member)
                    data = buf.getvalue()
                    if case == "truncated-second-snapshot" and member is second:
                        data = data[:-100]
                    archive.writestr(name, data)
        else:
            np.savez(bad, snap_00000=table)
        if case == "truncated-archive":
            bad.write_bytes(bad.read_bytes()[:-100])
        (bad.parent / "index.csv").write_text("idx,t,file\n" + "".join(
            f"{i},{0.1 * i},{name}\n" for i, name in enumerate(names)))
    if case == "short-index-row":
        bad = tmp_path / "snaps" / "index.csv"
        bad.parent.mkdir()
        bad.write_text("idx,t,file\n0,0\n")
    if case == "non-utf8-index":
        bad = tmp_path / "snaps" / "index.csv"
        bad.parent.mkdir()
        bad.write_bytes(b"idx,t,file\n0,\xff\xfe,snap_00000.npy\n")
    if case == "index-is-a-directory":
        bad = tmp_path / "snaps" / "index.csv"
        bad.mkdir(parents=True)
    if case == "non-finite-index-time":
        e = tmp_path / "e"
        assert run_cli(["evolve", "--N", "1", "--p", "5.2", "--rmax", "20", "--n", "1000",
                        "--initial", "ground", "--t-end", "0.02", "--out", str(e)]) == 0
        bad = tmp_path / "snaps" / "index.csv"
        shutil.copytree(e / "snapshots", bad.parent)
        lines = bad.read_text().splitlines()
        lines[1] = re.sub(r",[^,]*,", ",nan,", lines[1], count=1)
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
    if bad.parent.name == "snaps":
        args = ["modulate", "--snapshots", str(bad.parent)]
    else:
        args = ["evolve", "--initial", str(bad), "--t-end", "0.01"]
    out = tmp_path / "o"
    assert run_cli([*args, "--N", "1", "--p", "7", "--rmax", "20", "--n", "1000",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    if case.endswith("-snapshot"):
        assert names[-1] in err
    assert "status = usage-error" in (out / "manifest.txt").read_text()


def test_archive_members_are_the_sink_arrays_bit_for_bit(tmp_path):
    """Each member is the r,re,im table of the array evolve handed its
    sink, every bit kept; the reader returns those values unchanged."""
    gp = solve_ground(make_grid(1, 20.0, 1000), 5.2)
    cfg = EvolverConfig(dt=1e-3, t_end=0.02, sample_every=1, snapshot_every=1)
    handed = []
    with cli._snapshot_sink(tmp_path, gp.grid) as sink:
        def keep(t, values):
            handed.append((t, values.copy()))
            sink(t, values)

        evolve(Field(gp.grid, gp.Q.values * np.exp(0.3j)), 0.0, cfg, gp.p, sink=keep)
    assert len(handed) == 21

    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    with np.load(tmp_path / "snapshots.npz", allow_pickle=False) as z:
        assert z.files == [f"snap_{i:05d}" for i in range(len(handed))]
        for (_, values), name in zip(handed, z.files):
            table = z[name]
            assert table.dtype == np.float64 and table.shape == (gp.grid.n + 1, 3)
            assert np.array_equal(bits(table[:, 0]), bits(gp.grid.r))
            assert np.array_equal(bits(table[:, 1]), bits(values.real))
            assert np.array_equal(bits(table[:, 2]), bits(values.imag))
    read = list(cli._read_snapshots(tmp_path, gp.grid))
    assert [t for t, _ in read] == [float(FLOAT_FMT % t) for t, _ in handed]
    for (_, u), (_, values) in zip(read, handed):
        assert np.array_equal(bits(u.values), bits(values))


def test_archive_bytes_match_the_per_member_header_writer(tmp_path):
    """The sink, which formats the member header once, writes the bytes of
    the writer that formats it for every member."""
    gp = solve_ground(make_grid(1, 20.0, 1000), 5.2)
    cfg = EvolverConfig(dt=1e-3, t_end=0.02, sample_every=1, snapshot_every=1)
    handed = []
    with cli._snapshot_sink(tmp_path / "sink", gp.grid) as sink:
        def keep(t, values):
            handed.append((t, values))
            sink(t, values)

        evolve(Field(gp.grid, gp.Q.values * np.exp(0.3j)), 0.0, cfg, gp.p, sink=keep)
    write_snapshot_archive(tmp_path / "oracle.npz", gp.grid, handed)
    assert len(handed) == 21
    assert (tmp_path / "sink" / "snapshots.npz").read_bytes() \
        == (tmp_path / "oracle.npz").read_bytes()


def test_evolve_and_modulate_start_no_worker(tmp_path, monkeypatch):
    """No command forks: snapshots are written and read, and the sweep runs,
    in-process, even with CPUs to spare."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def no_fork():
        raise AssertionError("a command forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = tmp_path / "every_step.cfg"
    cfg.write_text("evolve.sample_every = 1\nevolve.snapshot_every = 1\n")
    grid = ["--N", "1", "--p", "5.2", "--rmax", "20", "--n", "1000"]
    assert run_cli(["evolve", *grid, "--config", str(cfg), "--initial", "ground",
                    "--t-end", "0.05", "--out", str(tmp_path / "e")]) == 0
    assert run_cli(["modulate", *grid, "--snapshots", str(tmp_path / "e" / "snapshots"),
                    "--out", str(tmp_path / "m")]) == 0
    assert run_cli(["classify", "--N", "3", "--p", "3", "--rmax", "20", "--n", "1000",
                    "--t-end", "0.05", "--out", str(tmp_path / "c")]) == 0
    assert len(members(tmp_path / "e" / "snapshots" / "snapshots.npz")) == 51
    assert (tmp_path / "c" / "sweep_report.csv").is_file()
    assert mp.active_children() == []


@pytest.mark.parametrize("args", [["special", "--delta", "0.5"],
                                  ["special", "--delta", "0"],
                                  ["construct", "--k", "0"],
                                  ["special", "--A", "0"],
                                  ["construct", "--A", "0"]], ids=" ".join)
def test_experiment_bounds_are_config_errors(tmp_path, capsys, args):
    """delta must lie in (0, 0.2], k be at least 1 and A be nonzero (A = 0
    is the standing wave itself); the config layer is the one place that
    checks them.  The message names the key."""
    out = tmp_path / "o"
    assert run_cli([*args, "--N", "3", "--p", "3", "--rmax", "20", "--n", "1000",
                    "--out", str(out)]) == 2
    assert f"experiment.{args[1][2:]}" in capsys.readouterr().err
    assert not out.exists()


def test_grid_coarser_than_the_ground_solver_accepts_is_config_error(tmp_path, capsys):
    """Every command solves Q first, so a grid spacing rmax / n above the
    0.02 that ``ground.validate_spacing`` accepts is the config's fault:
    exit 2 before the run directory is made, with the keys named, for the
    working grid and for the grid ``check.identity_n`` sets."""
    f = tmp_path / "coarse_id.cfg"
    f.write_text("check.identity_n = 500\n")
    cases = {"grid.n": ["ground", "--rmax", "30", "--n", "1000"],
             "check.identity_n": ["check", "--rmax", "20", "--n", "1000", "--config", str(f)]}
    for key, args in cases.items():
        out = tmp_path / key
        assert run_cli([*args, "--N", "3", "--p", "3", "--out", str(out)]) == 2
        assert f"grid.rmax/{key}: ground-state work needs h <= 0.02" in capsys.readouterr().err
        assert not out.exists()
    # h = 0.02 itself, the benchmark's evolve grid, is accepted
    assert load_config(overrides={"grid.rmax": 20.0, "grid.n": 1000})["grid.n"] == 1000


def test_every_bound_in_the_table_judges_its_check(tmp_path, monkeypatch):
    """With every ``Pipeline.BOUNDS`` entry at -1, which no deviation meets,
    exactly the checks that the table names FAIL over ``check`` and
    ``special``: each reads its bound there, and every other check is a
    sign, a count or a rate margin."""
    monkeypatch.setattr(cli.Pipeline, "BOUNDS", dict.fromkeys(cli.Pipeline.BOUNDS, -1.0))
    cfg = tmp_path / "id.cfg"
    cfg.write_text("check.identity_n = 2000\n")
    grid = ["--N", "3", "--p", "3", "--rmax", "20", "--n", "1000", "--config", str(cfg)]
    assert run_cli(["check", *grid, "--out", str(tmp_path / "c")]) == 1
    assert run_cli(["special", *grid, "--out", str(tmp_path / "s")]) == 0
    ledgers = [{k[len("check."):]: v for k, v in read_kv(tmp_path / d / "manifest.txt").items()
                if k.startswith("check.")} for d in "cs"]
    failed = [name for ledger in ledgers for name, v in ledger.items() if v == "FAIL"]
    assert sorted(failed) == sorted(cli.Pipeline.BOUNDS)
    assert {name for ledger in ledgers for name, v in ledger.items() if v == "pass"} == {
        "decay_margin_positive", "simplicity_proxy", "coercivity_positive",
        "residual_order_k1", "sign_matches_A"}


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
        load_config(overrides={"experiment.sweep_eps": eps})
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
    cfg = load_config(overrides={"model.N": 1, "model.p": 7.0, "grid.rmax": 10.0,
                                 "grid.n": 2500})  # the probe grid: rmax / 0.004
    man = RunManifest(tmp_path, "check", cfg.render())
    pipe = cli.Pipeline(cfg, man)
    assert pipe.identity_n() > 2500
    assert pipe.ground() is pipe.ground(2500)
    assert pipe.ops() is pipe.ops(2500)
    assert solved == [2500]
    assert float(man.entries["stage.ground_s"]) > 0
    assert man.entries["stage.coercivity_s"] == "0.000"


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
    last_row = (out / "backward_series.csv").read_text().splitlines()[-1]
    assert float(read_kv(out / "report.txt")["backward_t_reached"]) \
        == float(last_row.split(",")[0])
    assert (out / "forward_series.csv").exists()
    assert (out / "backward_series.csv").exists()
    assert (out / "initial.csv").exists()
    man = (out / "manifest.txt").read_text()
    assert "check.sign_matches_A = pass" in man
    assert "check.forward_rate_within_10pct = pass" in man


def _series_from_run(path, stop_reason, t_stop):
    """The TimeSeries of a written series file and the stop fields of its run."""
    assert path.read_text().splitlines()[0] == TimeSeries.HEADER
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return TimeSeries(**dict(zip(SERIES_COLUMNS, data.T)),
                      meta={"stop_reason": stop_reason, "t_stop": float(t_stop)})


@pytest.mark.parametrize("scale, kind, stop", [(0.5, "Scatter", "scatter"),
                                               (1.1, "BlowUp", "blowup")])
def test_evolve_verdict_recomputes_from_its_run_directory(tmp_path, gp33, scale, kind, stop):
    """``classify_run`` on ``series.csv`` and the stop fields of
    ``verdict.txt``, with the ground state on the run's grid, gives the
    verdict the run wrote."""
    datum, cfg = tmp_path / "datum.csv", tmp_path / "sponge.cfg"
    write_field_csv(Field(gp33.grid, scale * gp33.Q.values), datum)
    cfg.write_text("evolve.sponge = true\n")
    out = tmp_path / "e"
    assert run_cli(["evolve", "--N", "3", "--p", "3", "--rmax", "30", "--n", "1500",
                    "--config", str(cfg), "--initial", str(datum), "--t-end", "0.3",
                    "--dt", "2e-4", "--out", str(out)]) == 0
    written = read_kv(out / "verdict.txt")
    assert written["stop_reason"] == stop
    series = _series_from_run(out / "series.csv", written["stop_reason"],
                              written["t_stop"])
    verdict = classify_run(series, gp33)
    assert verdict.kind == written["verdict"] == kind
    assert written["t_star"] == ("none" if verdict.t_star is None
                                 else FLOAT_FMT % verdict.t_star)
    assert {f"evidence.{k}": v for k, v in verdict.evidence.items()} == {
        k: float(v) for k, v in written.items() if k.startswith("evidence.")}


def test_special_verdict_recomputes_from_its_run_directory(tmp_path):
    """The backward leg's verdict of ``special --A -1``, from
    ``backward_series.csv`` and the stop fields of ``report.txt``."""
    out = tmp_path / "sp"
    assert run_cli(["special", "--N", "3", "--p", "3", "--rmax", "20", "--n", "1000",
                    "--A", "-1", "--out", str(out)]) == 0
    report = read_kv(out / "report.txt")
    series = _series_from_run(out / "backward_series.csv",
                              report["backward_stop_reason"], report["backward_t_reached"])
    verdict = classify_run(series, solve_ground(make_grid(3, 20.0, 1000), 3.0))
    assert verdict.kind == report["backward_verdict"] == "Scatter"
    assert verdict.kind == read_kv(out / "verdict.txt")["verdict"]


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
