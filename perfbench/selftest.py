"""Self-test of the benchmark at a tiny run length.

    python3 perfbench/selftest.py

Run from the repository root.  It checks that:

  * every metric BENCHMARK.json names is printed with its unit, for every
    workload, untraced (end-to-end) and traced (per-layer);
  * the exact counts repeat between two traced runs at one seed;
  * a wrong output injected into the benchmark's own checking path (never
    into src/) is counted as a failed operation;
  * operations a run stops before reaching are counted as failed;
  * a traced binding that is missing, or a reached layer with no calls,
    is reported as a trace problem;
  * host-speed scaling divides each block of operations by its own median
    reference unit;
  * run.py exits non-zero, printing no result, where there is no program.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from itertools import count
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
SEED = 3


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def bench(workload: str, trace: int, cwd: Path = Path(".")) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, spec: list[dict]) -> dict:
    done = bench(workload, trace)
    if done.returncode != 0:
        fail(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace {trace}: {result['attempted']} attempted, "
             f"{result['failed']} failed\n{done.stdout}")
    units = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}, "
             f"units {[(k, got[k], units[k]) for k in units if k in got and got[k] != units[k]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")
        if f"# {name} = {m['value']} {m['unit']}" not in done.stdout:
            fail(f"{workload}: {name} is not printed with its unit")
    record = json.loads((OUT / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    if "fail_frac" not in record:
        fail(f"{workload} trace {trace}: the record has no fail_frac")
    return record


def check_injected_failures(names: list[str]) -> None:
    """Corrupt every second output; the tally must count exactly those."""
    import run
    from levelcanon.harness import Failure
    from workloads import WORKLOADS

    # corruptions of an operation's output that the workload's check must catch
    corrupt = {
        "decide": lambda out: (not out if isinstance(out, bool)
                               else "max{B{}+1}" if out == "max{}" else "max{}"),
        "fuzz": lambda out: Failure("x0", None, "eval", None),
        "confluence": lambda out: out[:-1] + [dataclasses.replace(out[-1],
                                                                  budget_exhausted=True)],
        "cli": lambda out: (out[0] + "x", out[1]),
    }
    OUT.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name](Path("src").resolve())
        calls = count()

        def corrupted(payload, op=workload.op, wrong=corrupt[name]):
            out = op(payload)
            return wrong(out) if next(calls) % 2 == 0 else out

        cases = [workload.case(SEED, i) for i in range(6)]
        tally = run.run_ops(workload, cases, op=corrupted)
        if (tally.attempted, tally.failed) != (6, 3):
            fail(f"{name}: injected 3 wrong outputs in 6, counted {tally.failed} "
                 f"failed of {tally.attempted}")
        clean = run.run_ops(workload, cases)
        if clean.failed:
            fail(f"{name}: clean outputs failed: {clean.failures}")
        print(f"ok {name}: 3 injected wrong outputs in 6 counted, fail_frac 0.5")


def check_not_run(name: str) -> None:
    """A deadline that has already passed leaves every operation unrun."""
    import time

    import run
    from workloads import WORKLOADS

    workload = WORKLOADS[name](Path("src").resolve())
    cases = [workload.case(SEED, i) for i in range(4)]
    tally = run.run_ops(workload, cases, deadline=time.perf_counter())
    if (tally.attempted, tally.failed) != (4, 4):
        fail(f"{name}: 4 operations past the deadline counted {tally.failed} failed "
             f"of {tally.attempted}")
    print(f"ok {name}: operations a stopped run did not reach count as failed")


def check_trace_problems(names: list[str], spec: list[dict]) -> None:
    import run

    for name in names:
        metrics = {m["name"]: (1, m["unit"]) for m in spec}
        if run.trace_problems(name, [], metrics):
            fail(f"{name}: trace problems with every layer reached")
        reached = json.loads((HERE / "predictions.json").read_text())["workloads"][name]["reached"]
        for layer in reached:
            if not run.trace_problems(name, [], {**metrics, layer: (0, "count")}):
                fail(f"{name}: {layer} at 0 is not reported")
        if not run.trace_problems(name, ["levelcanon.cli.parse_level"], metrics):
            fail(f"{name}: a missing binding is not reported")
    print("ok a missing binding or a reached layer at 0 is a trace problem")


def check_scaling() -> None:
    """Units at twice the reference time in the first two blocks, at it after."""
    from calibrate import BLOCK_S, REF_UNIT_S, HostSpeed

    speed = HostSpeed("mixed")
    ref = REF_UNIT_S["mixed"]
    stamps = [k * BLOCK_S / 4 for k in range(16)]
    speed.samples = [(t, [ref * (2 if t < 2 * BLOCK_S else 1)] * 3) for t in stamps]
    want = [0.5] * 8 + [1.0] * 8
    if speed.factors() != want:
        fail(f"host-speed factors {speed.factors()}, expected {want}")
    print("ok each block of operations is scaled by its own reference unit")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("decide", 0, cwd=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        fail(f"with no program present: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok no program to measure: exit {done.returncode}, no result printed")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    sys.path[:0] = [str(HERE), str(Path("src").resolve())]
    from workloads import WORKLOADS
    names = list(WORKLOADS)  # confluence too, which BENCHMARK.json does not gate
    for name in names:
        check_result(name, 0, spec["end_to_end"])
        print(f"ok {name}: every end-to-end metric printed with its unit")
        first = check_result(name, 1, spec["per_layer"])
        second = check_result(name, 1, spec["per_layer"])
        if first["exact_counts"] != second["exact_counts"] or not second["exact_counts_repeat"]:
            fail(f"{name}: exact counts differ between two runs at seed {SEED}: "
                 f"{first['exact_counts']} vs {second['exact_counts']}")
        print(f"ok {name}: every per-layer metric printed; exact counts repeat")
    check_injected_failures(names)
    check_not_run("decide")
    check_trace_problems(names, spec["per_layer"])
    check_scaling()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
