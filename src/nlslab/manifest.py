"""Run manifests: reproducibility records written beside every output set."""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

from . import __version__

__all__ = ["RunManifest", "sha256_file"]

CONFIG_BEGIN = "--- config ---"
CONFIG_END = "--- end config ---"


def sha256_file(path) -> str:
    """Read in 64 KiB blocks: a snapshot archive never sits whole in memory."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            digest.update(block)
    return digest.hexdigest()


class RunManifest:
    """key=value manifest plus a verbatim echo of the effective config.

    ``write_pre`` drops a running stub before the work starts; ``finalize``
    rewrites it with checksums, timing, counters and the per-check ledger.
    """

    def __init__(self, out_dir, command: str, config_text: str):
        self.out_dir = Path(out_dir)
        self.command = command
        self.config_text = config_text
        self.entries: dict = {}
        self.checks: dict = {}
        self._t0 = time.perf_counter()
        self.out_dir.mkdir(parents=True, exist_ok=True)

    @property
    def path(self) -> Path:
        return self.out_dir / "manifest.txt"

    def record(self, key: str, value) -> None:
        self.entries[key] = value

    def record_check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed)

    def checksum_outputs(self) -> None:
        """sha256 of every CSV and snapshot archive under the run directory."""
        outputs = [*self.out_dir.rglob("*.csv"), *self.out_dir.rglob("*.npz")]
        for f in sorted(outputs):
            rel = f.relative_to(self.out_dir).as_posix().replace("/", "_")
            self.entries[f"sha256.{rel}"] = sha256_file(f)

    def _render(self, status: str) -> str:
        lines = [
            f"status = {status}",
            f"artifact_version = {__version__}",
            f"command = {self.command}",
        ]
        for key in sorted(self.entries):
            lines.append(f"{key} = {self.entries[key]}")
        for name in sorted(self.checks):
            lines.append(f"check.{name} = {'pass' if self.checks[name] else 'FAIL'}")
        lines.append(CONFIG_BEGIN)
        lines.append(self.config_text.rstrip("\n"))
        lines.append(CONFIG_END)
        return "\n".join(lines) + "\n"

    def write_pre(self) -> None:
        self.path.write_text(self._render("running"), encoding="utf-8")

    def finalize(self, status: str = "done") -> None:
        self.entries["wall_clock_s"] = f"{time.perf_counter() - self._t0:.3f}"
        self.checksum_outputs()
        self.path.write_text(self._render(status), encoding="utf-8")

    def all_checks_pass(self) -> bool:
        return all(self.checks.values())
