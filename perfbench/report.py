"""Run every workload once untraced and once traced; print one row per workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the repository root.  Every workload in workloads.py runs, also
those BENCHMARK.json does not gate.  The table gives every end-to-end metric
with its unit, fail_frac as measured (with the failed operations listed), and the
percentile op_tail_ms was taken at.  Below it, each workload's traced run
says whether its dominant layer matches the prediction in predictions.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

OUT = Path(".perfbench_out")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) exited {done.returncode}:\n{done.stderr}")
    return json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path("src").resolve())]
    from workloads import WORKLOADS
    gated = {w["name"] for w in spec["workloads"]}
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    header = ["workload"] + [f"{n} [{units[n]}]" for n in names] + ["fail_frac", "tail at"]
    print(" | ".join(header))
    traces = {}
    for name in WORKLOADS:
        record = run(name, args.seed, args.seconds, 0)
        traces[name] = run(name, args.seed, args.seconds, 1)
        m = record["metrics"]
        label = name if name in gated else f"{name} (not in BENCHMARK.json)"
        cells = [label] + [f"{m[n]['value']:.6g}" for n in names]
        cells += [f"{record['fail_frac']:g} ({record['failed']}/{record['attempted']})",
                  f"p{record['tail_percentile']:g} of {record['samples']}"]
        print(" | ".join(cells), flush=True)
        for failure in record["failures"]:
            print(f"  FAILED {failure}")
        if record["not_run"]:
            print(f"  FAILED {record['not_run']} operations not run: the run was stopped")
    print()
    for name, record in traces.items():
        d = record["dominance"]
        verdict = "matches" if d["match"] else "DOES NOT MATCH"
        print(f"{name}: dominant layer {d['measured_top']} "
              f"(share {d['measured_top_share']:.3f}) {verdict} prediction "
              f"{d['predicted_dominant']}; trace overhead "
              f"{record['metrics']['trace.overhead_frac']['value']:.3f}; "
              f"{'no' if record['exact_counts_repeat'] else 'AN'} exact-count mismatch; "
              f"fail_frac {record['fail_frac']:g}")
        for failure in record["failures"]:
            print(f"  FAILED {failure}")
        for problem in record["trace_problems"]:
            print(f"  TRACE PROBLEM {problem}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
