"""Record the reference values and output-CSV digests the checks compare to.

    python3 perfbench/record_reference.py

Run it on the commit the references should come from.  For each workload
and each of the seeds 0-9 it runs one untraced iteration, requires
every other check to pass, and stores the certified numbers
(``checks.REFERENCE_TOLERANCES``) and the first ``checks.DIGEST_CHARS`` hex digits of
each output CSV's sha256 in ``reference.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
import run
import workloads


def main() -> int:
    ref = {"commit": run.git_commit(), "values": {}, "csv_sha256": {}}
    for workload in workloads.WORKLOADS:
        for seed in range(10):
            work = run.WORK_ROOT / f"reference-{workload}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            res = run.run_worker(workload, seed, work, "run",
                                 time.monotonic() + run.RUN_LIMIT_S)
            if res is None:
                return 1
            failed = [name for name, ok in checks.check_iteration(
                workload, seed, work, res["exit_codes"], {}) if not ok]
            if failed:
                print(f"{workload} seed {seed}: checks failed: {failed}",
                      file=sys.stderr)
                return 1
            cmds = workloads.commands(workload, workloads.draw(workload, seed))
            outs = [work / c.out for c in cmds]
            values = checks.reference_values(outs)
            if values:
                ref["values"].setdefault(workload, {})[str(seed)] = values
            hashes = checks.csv_hashes(outs)
            entry = ref["csv_sha256"].setdefault(
                workload, {"files": sorted(hashes), "seeds": {}})
            if entry["files"] != sorted(hashes):
                print(f"{workload} seed {seed}: other output files", file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = [hashes[k][:checks.DIGEST_CHARS]
                                         for k in entry["files"]]
            shutil.rmtree(work)
            print(f"{workload} seed {seed}: {res['wall_s']:.2f} s", flush=True)
    shutil.rmtree(run.WORK_ROOT, ignore_errors=True)
    checks.REFERENCE_FILE.write_text(json.dumps(ref, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
