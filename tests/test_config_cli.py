import hashlib

import numpy as np
import pytest

from nlslab.cli import cli_dispatch
from nlslab.config import ENV_PREFIX, default_config, load_config
from nlslab.errors import ConfigError
from nlslab.grid import Field, make_grid, write_field_csv


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


def test_unknown_key_rejected(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("model.N = 3\nmodel.q = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(f)


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
    "Q.csv": "57e5207aca57efe5035c51d0e0ea03562df8955583b1b34532e3196da6432ab1",
    "series.csv": "698164d5d909215e97cd4abaf288fd33b2006c10205691e711898edd8d243bd2",
    "snap_00000.csv": "e7158d3ae9efec203f0434570a6a384488fc780394f34cce74ad2ad0218b2d6a",
}

# sha256 of the outputs that read mass, energy, ME and MG
ROUNDTRIP_SHA256 = {
    "series.csv": "4cf30352219002089707323bc30032684590a40d4a7935fafef71bcc6fd80189",
    "frames.csv": "9cebf67674e767391def1d3fc37b228ad70326f43defd83fdd130b60597f73c3",
}
SWEEP_SHA256 = "0b7999962c239b41cb02df4d785d53892a367dfa7b4f1ace3a66a1555a6bb76b"


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
