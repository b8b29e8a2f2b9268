"""Workload inputs: each workload draws its parameters from the seed and
turns them into nlslab command lines plus config files.

Seed 0 gives the nominal inputs the reference values were recorded at;
every other seed draws from a family chosen so that the cost and the
verdicts of the workload stay the same (see README.md).

Two workloads, each a fixed sequence of CLI calls: ``spectral`` runs the
dense spectral layer (``spectrum``, then the paper's ``special``
experiment for A = +1 and A = -1); ``evolution`` runs the time stepper
(a ``classify`` threshold sweep, then ``evolve`` writing 501 snapshots
and ``modulate`` reading them back).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("spectral", "evolution")

# evolve part: sample every step and keep every 5th sample as a snapshot
SNAP_T_END = 2.5
SNAP_DT = 1e-3
SNAP_EVERY = 5


@dataclass(frozen=True)
class Command:
    """One CLI call: its argv for ``cli_dispatch`` and its output directory."""

    argv: tuple
    out: str


def draw(workload: str, seed: int) -> dict:
    """Workload parameters for ``seed``; the same seed gives the same values."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")

    def pick(lo, hi, nominal):
        return nominal if seed == 0 else round(rng.uniform(lo, hi), 6)

    if workload == "spectral":
        return {"rmax": pick(28.0, 32.0, 30.0), "delta": pick(0.08, 0.12, 0.1)}
    return {"eps_minus": -pick(0.08, 0.12, 0.1), "eps_plus": pick(0.08, 0.12, 0.1),
            "p": pick(5.1, 5.3, 5.2)}


def commands(workload: str, params: dict) -> list[Command]:
    """The CLI calls of one workload iteration, relative to its work dir."""
    if workload == "spectral":
        # m = 2399 nodes exceeds the default spectrum.dense_nodes (2200), so
        # compute_spectrum takes its companion-grid branch (rmax/0.02 nodes)
        spectrum = Command(("spectrum", "--N", "3", "--p", "3", "--n", "2400",
                            "--rmax", repr(params["rmax"]), "--out", "out/spectrum"),
                           "out/spectrum")
        return [spectrum] + [
            Command(("special", "--N", "3", "--p", "3", "--n", "1500",
                     "--A", a, "--delta", repr(params["delta"]),
                     "--out", f"out/special_{name}"), f"out/special_{name}")
            for a, name in (("1", "plus"), ("-1", "minus"))]
    p = repr(params["p"])
    # rmax 20 with n 1000 keeps h = 0.02, the coarsest grid ground accepts
    grid = ("--rmax", "20", "--n", "1000")
    return [Command(("classify", "--N", "3", "--p", "3", "--n", "1500",
                     "--t-end", "1.2", "--dt", "2e-3",
                     "--config", "threshold.cfg", "--out", "out/threshold"),
                    "out/threshold"),
            Command(("evolve", "--N", "1", "--p", p, *grid,
                     "--t-end", repr(SNAP_T_END), "--dt", repr(SNAP_DT),
                     "--initial", "ground", "--config", "snapshots.cfg",
                     "--out", "out/evolve"), "out/evolve"),
            Command(("modulate", "--N", "1", "--p", p, *grid,
                     "--snapshots", "out/evolve/snapshots",
                     "--out", "out/modulate"), "out/modulate")]


def config_files(workload: str, params: dict) -> dict:
    """The config files the workload's commands read, by file name."""
    if workload == "spectral":
        return {}
    return {"threshold.cfg": (f"experiment.sweep_eps = {params['eps_minus']!r},"
                              f"{params['eps_plus']!r}\n"),
            "snapshots.cfg": ("evolve.sample_every = 1\n"
                              f"evolve.snapshot_every = {SNAP_EVERY}\n")}


def write_inputs(workload: str, seed: int, work_dir: Path) -> list[Command]:
    """Write the config files into ``work_dir`` and return the commands."""
    params = draw(workload, seed)
    for name, text in config_files(workload, params).items():
        (work_dir / name).write_text(text, encoding="utf-8")
    return commands(workload, params)


def expected_snapshots() -> int:
    """Snapshot files the ``evolve`` call must produce (with t = 0)."""
    steps = round(SNAP_T_END / SNAP_DT)
    return 1 + steps // SNAP_EVERY
