"""Print the end-to-end metrics of every workload in one table.

    python3 perfbench/report.py [--seed 0]

Runs each workload untraced for ``run.SECONDS``, as ``run.py --trace 0``
does, and prints
``wall_s``, ``setup_s``, ``peak_rss_mb`` and ``fail_ratio`` with their
units and sample counts (for ``fail_ratio``: the operations attempted).
Exits 1 if any workload failed a check.
"""

from __future__ import annotations

import argparse
import sys

import run
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if not run.require_sources():
        return 2
    print(f"{'workload':<10} {'metric':<12} {'value':>12} {'unit':<6} samples")
    all_correct = True
    for workload in workloads.WORKLOADS:
        result, _, metrics = run.measure(workload, args.seed, run.SECONDS, False)
        all_correct = all_correct and result["correct"]
        rows = [(name, m["value"], m["unit"], len(m["samples"]))
                for name, m in metrics.items()]
        rows.append(("fail_ratio", result["failed"] / result["attempted"], "ratio",
                     result["attempted"]))
        for name, value, unit, samples in rows:
            print(f"{workload:<10} {name:<12} {value:>12.6g} {unit:<6} {samples}",
                  flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
