"""One benchmark iteration in a fresh interpreter, as a user runs the CLI.

    python3 perfbench/worker.py --workload W --seed N --dir WORK_DIR \
        --mode probe|run|trace

Imports nlslab from the ``src/`` next to this directory, writes the
workload's inputs into WORK_DIR (that ends set-up), then, unless
``--mode probe``, runs the commands through ``cli_dispatch`` with
WORK_DIR as the working directory.
Writes ``result.json`` (and ``spans.json`` with ``--mode trace``) there.
Times are ``time.monotonic()`` readings, comparable across processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _metadata(nlslab) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nlslab": nlslab.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    args = ap.parse_args()

    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    import nlslab
    from nlslab import cli
    if Path(nlslab.__file__).resolve().parent != src / "nlslab":
        raise SystemExit(f"nlslab imported from {nlslab.__file__}, not {src}")

    from spans import SpanRecorder, install
    from workloads import write_inputs

    recorder = None
    if args.mode == "trace":
        recorder = SpanRecorder(clock=time.monotonic)
        install(recorder)
    work = Path(args.dir)
    cmds = write_inputs(args.workload, args.seed, work)
    result = {"setup_done": time.monotonic()}
    if args.mode == "probe":
        result["metadata"] = _metadata(nlslab)
    else:
        os.chdir(work)
        rcs = []
        result["first_start"] = time.monotonic()
        for cmd in cmds:
            rcs.append(cli.cli_dispatch(list(cmd.argv)))
        result["last_end"] = time.monotonic()
        result["exit_codes"] = rcs
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    if recorder is not None:
        (work / "spans.json").write_text(json.dumps(recorder.spans))
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
