"""Output-correctness gate: every check is one operation for ``fail_ratio``.

``check_iteration`` returns ``(name, passed)`` pairs for one iteration:
the exit code of each command, the status and every ``check.*`` entry of
each manifest, the workload's own verdict checks, and, for seeds with a
recorded reference, the certified numbers against that reference.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import workloads

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
DIGEST_CHARS = 12

# tolerances the acceptance suite certifies: e0 refinement drift 1e-4
# (criterion 5), coercivity stability 10% (criterion 7), B normalization,
# Phi(Y+) and Q-Y1 orthogonality 1e-8 (criterion 5)
REFERENCE_TOLERANCES = {
    "e0": ("rel", 1e-4),
    "coercivity_Gperp": ("rel", 0.10),
    "coercivity_Gtildeperp": ("rel", 0.10),
    "B_yplus_yminus": ("abs", 1e-8),
    "phi_yplus": ("abs", 1e-8),
    "q_y1_overlap": ("abs", 1e-8),
}


# the report that holds the certified numbers, by command
REPORTS = {"spectrum": "spectrum_report.txt", "special": "report.txt"}


def read_kv(path: Path) -> dict:
    """``key = value`` lines up to the manifest's config echo."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("--- config ---"):
            break
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def _within(value: float, ref: float, kind: str, tol: float) -> bool:
    if kind == "rel":
        return abs(value / ref - 1.0) <= tol
    return abs(value - ref) <= tol


def reference_values(out_dirs: list[Path]) -> dict:
    """The certified numbers of one iteration, keyed ``<out dir>/<name>``."""
    values = {}
    for out in out_dirs:
        report = REPORTS.get(out.name.split("_")[0])
        if report is None:
            continue
        kv = read_kv(out / report)
        for name in REFERENCE_TOLERANCES:
            if name in kv:
                values[f"{out.name}/{name}"] = float(kv[name])
    return values


def csv_hashes(out_dirs: list[Path]) -> dict:
    """sha256 of every output CSV, as each manifest records it."""
    hashes = {}
    for out in out_dirs:
        for key, value in read_kv(out / "manifest.txt").items():
            if key.startswith("sha256."):
                hashes[f"{out.name}/{key[len('sha256.'):]}"] = value
    return hashes


def _workload_checks(workload: str, out_dirs: list[Path]) -> list:
    checks = []
    if workload == "spectral":
        for out, verdict in zip(out_dirs[1:], ("BlowUp", "Scatter")):
            kv = read_kv(out / "report.txt")
            checks.append((f"{out.name}:verdict_{verdict}",
                           kv.get("backward_verdict") == verdict))
            rate, e0 = float(kv["forward_rate"]), float(kv["e0"])
            checks.append((f"{out.name}:forward_rate_within_10pct",
                           abs(rate / -e0 - 1.0) <= 0.10))
        return checks
    sweep, evolve, modulate = out_dirs
    with open(sweep / "sweep_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    checks.append(("threshold:mg_prediction_ok",
                   bool(rows) and all(r["mg_prediction_ok"] == "True" for r in rows)))
    seen = {r[k] for r in rows for k in ("verdict_forward", "verdict_backward")}
    for verdict in ("ConvergeToQ", "BlowUp", "Scatter"):
        checks.append((f"threshold:has_{verdict}", verdict in seen))
    expected = workloads.expected_snapshots()
    index = (evolve / "snapshots" / "index.csv").read_text().splitlines()[1:]
    idx = [int(line.split(",")[0]) for line in index]
    times = [float(line.split(",")[1]) for line in index]
    checks.append(("snapshots:count", idx == list(range(expected))))
    checks.append(("snapshots:times_increasing",
                   all(a < b for a, b in zip(times, times[1:]))))
    mod = read_kv(modulate / "manifest.txt")
    checks.append(("modulate:frames", mod.get("frames") == str(expected)))
    checks.append(("modulate:no_gaps", mod.get("gaps") == "0"))
    return checks


def check_iteration(workload: str, seed: int, work_dir: Path,
                    exit_codes: list, reference: dict) -> list:
    """All checks of one finished iteration in ``work_dir``."""
    cmds = workloads.commands(workload, workloads.draw(workload, seed))
    out_dirs = [work_dir / c.out for c in cmds]
    checks = []
    for cmd, rc in zip(cmds, exit_codes):
        checks.append((f"{cmd.argv[0]}:exit_0", rc == 0))
    if len(exit_codes) != len(cmds) or any(rc != 0 for rc in exit_codes):
        checks.extend((f"{c.argv[0]}:missing", False) for c in cmds[len(exit_codes):])
        return checks
    try:
        for out in out_dirs:
            man = read_kv(out / "manifest.txt")
            checks.append((f"{out.name}:status_done", man.get("status") == "done"))
            for key, value in man.items():
                if key.startswith("check."):
                    checks.append((f"{out.name}:{key}", value == "pass"))
        checks.extend(_workload_checks(workload, out_dirs))
        got = reference_values(out_dirs)
    except (OSError, ValueError, KeyError) as exc:
        return checks + [(f"outputs_readable: {exc}", False)]
    ref = reference.get("values", {}).get(workload, {}).get(str(seed), {})
    for key, ref_value in ref.items():
        kind, tol = REFERENCE_TOLERANCES[key.split("/")[1]]
        checks.append((f"reference:{key}",
                       key in got and _within(got[key], ref_value, kind, tol)))
    return checks


def csv_identical(workload: str, seed: int, work_dir: Path, reference: dict) -> int:
    """Output CSVs byte-identical to the reference recorded for this seed."""
    ref = reference.get("csv_sha256", {}).get(workload, {})
    digests = dict(zip(ref.get("files", []), ref.get("seeds", {}).get(str(seed), [])))
    cmds = workloads.commands(workload, workloads.draw(workload, seed))
    got = csv_hashes([work_dir / c.out for c in cmds])
    return sum(1 for key, digest in got.items()
               if digests.get(key) == digest[:DIGEST_CHARS])
