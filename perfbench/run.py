"""levelcanon benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run it from the repository root; levelcanon is imported from ./src and every
child interpreter gets the same path.  Workloads: decide, fuzz, confluence,
cli (see workloads.py).  One caller drives a closed loop: the next
operation starts when the previous one has finished; no threads, and cli
runs one child process at a time.  The run, children included, is pinned
to one CPU.

A run measures a fixed number of operations: the workload's nominal rate
times --seconds, about --seconds of work on a 2-core x86-64 machine at
Python 3.11.  A run that has not finished them STOP_AFTER_S seconds after it
started stops there and counts every operation it did not run as failed, so
that its result reads correct=false and is never compared with a full run.
With --trace 0 it reports the end-to-end metrics, every time among them
scaled to a reference host speed by reference units timed beside each
operation and in each set-up interpreter (calibrate.py; the unscaled values
are printed and recorded too); with --trace 1 it runs a
shorter fixed list of operations twice, untraced and traced, alternating
case by case, and reports the per-layer metrics (cli traces an in-process replay of its commands, since
the tracer cannot reach into child processes).  A traced run also reads
correct=false when a traced binding is missing or a layer predictions.json
expects on the workload gets no calls.  The last stdout line is the JSON
result; lines before it start with '# ' and are for people.  A record of
each run (environment, failures, fingerprints, exact counts, spans) is
written to .perfbench_out/.  Exit code 2 means there is no levelcanon source
tree to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import REF_UNIT_S, HostSpeed, pin_to_one_cpu

OUT = Path(".perfbench_out")
STARTED = time.perf_counter()
SETUP_REPEATS = 7     # fresh interpreters per run for setup_s; the median is reported
FLOOR_REPEATS = 5     # fresh interpreters per cli floor in a traced run
WARMUP_OPS = 2        # untimed operations on inputs outside the measured ones
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
STOP_AFTER_S = 150    # measuring stops this long after start, within the 180 s a run may take
TRACE_SHARE = 0.4     # a traced run's passes each cover this share of a run's operations
MAX_FAILURES_SHOWN = 20

# the reference units run after the timed imports, so that the imports
# calibrate needs do not shorten them
_SETUP_CHILD = """\
import importlib, sys, time
start = time.perf_counter()
for name in sys.argv[3:]:
    importlib.import_module(name)
from levelcanon.rewrite.rules import default_rules
default_rules()
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import statistics
from calibrate import SETUP_UNITS, unit_seconds
print(elapsed, statistics.median(unit_seconds(sys.argv[2]) for _ in range(SETUP_UNITS)))
"""
_IMPORT_CHILD = """\
import time
start = time.perf_counter()
import levelcanon.cli
print(time.perf_counter() - start)
"""


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)
    not_run: int = 0  # operations a stopped run did not reach; each counts as failed

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.not_run

    @property
    def failed(self) -> int:
        return len(self.failures) + self.not_run


def run_ops(workload, cases, deadline=None, tracer=None, op=None, tally=None,
            speed=None) -> Tally:
    """Run `op` (default: the workload's operation) on each case in order,
    timing only the operation; check each output outside the timed region.
    With `speed` (a HostSpeed), reference units are timed after each one.
    Once `deadline` (a perf_counter value) has passed, the remaining cases
    are not run and are counted as failed.  Results go to `tally` if given."""
    op = op or workload.op
    tally = Tally() if tally is None else tally
    for case in cases:
        if deadline is not None and time.perf_counter() >= deadline:
            tally.not_run += 1
            continue
        if tracer is not None:
            tracer.op = case.index
            span = tracer.begin("op")
        start = time.perf_counter()
        try:
            out = op(case.payload)
        except Exception as exc:  # a failing operation is counted, not fatal
            out = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(span)
        tally.latencies.append(elapsed)
        if speed is not None:
            speed.after(elapsed)
        if isinstance(out, Exception):
            ok, text = False, f"{type(out).__name__}: {out}"
        else:
            ok, text = workload.check(case, out), workload.render(out)
        tally.digest.update(f"{case.index}\t{text}\n".encode())
        if not ok:
            tally.failures.append(f"{case.text[:300]} -> {text[:300]}")
    return tally


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile that leaves at
    least ten samples beyond it, by nearest rank; the maximum below 20.

    The ladder stops at p95: fuzz and confluence latencies are heavy-tailed,
    at a run's operation counts p99 has 3 to 20 samples beyond it, and in
    trials it spread between seeds about twice as much as p95."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return 100.0, ordered[-1]


def _child_seconds(argv: list[str], env: dict[str, str]) -> float:
    """Run a child interpreter that prints one float; return that float."""
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds(env: dict[str, str], workload) -> list[tuple[float, float]]:
    """Import the workload's modules and build default_rules() in fresh
    interpreters; per interpreter, (wall time, its median reference unit)."""
    argv = [sys.executable, "-c", _SETUP_CHILD, str(Path(__file__).resolve().parent),
            workload.unit, *workload.modules]
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        wall, unit_s = done.stdout.split()
        out.append((float(wall), float(unit_s)))
    return out


def cli_floors(env: dict[str, str], repeats: int = FLOOR_REPEATS,
               between=lambda i: None) -> tuple[float, float]:
    """(bare interpreter ms, `import levelcanon.cli` ms), medians over fresh
    children.  `between(i)` runs after the i-th pair, so that what the
    floors are a share of is measured in the same stretch of time."""
    bare, imports = [], []
    for i in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append(time.perf_counter() - start)
        imports.append(_child_seconds([sys.executable, "-c", _IMPORT_CHILD], env))
        between(i)
    return statistics.median(bare) * 1e3, statistics.median(imports) * 1e3


def tree_digest(top: Path) -> str:
    """sha256 over the paths and contents of the Python files under `top`."""
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(path.relative_to(top).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, src: Path) -> dict:
    rev = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        rev = done.stdout.strip() or rev
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_rev": rev,
        "src_sha256": tree_digest(src),
        "bench_sha256": tree_digest(Path(__file__).resolve().parent),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def _show(label: str, tally: Tally) -> None:
    print(f"# {label}: attempted {tally.attempted}, failed {tally.failed}, "
          f"fail_frac {tally.failed / max(1, tally.attempted)}")
    if tally.not_run:
        print(f"# FAILED {tally.not_run} operations not run: stopped {STOP_AFTER_S} s "
              f"after start")
    for line in tally.failures[:MAX_FAILURES_SHOWN]:
        print(f"# FAILED {line}")
    if tally.failed > MAX_FAILURES_SHOWN:
        print(f"# ... {tally.failed - MAX_FAILURES_SHOWN} more failures in the record")
    print(f"# output fingerprint sha256 {tally.digest.hexdigest()}")


def operations(workload, seconds: float) -> int:
    """Operations in one run: a fixed count, about `seconds` of work on the
    machine the nominal rates were measured on, so that two versions of the
    program are measured on the same inputs."""
    return max(WARMUP_OPS + 1, round(workload.nominal_ops_per_s * seconds))


def time_metrics(latencies: list[float]) -> tuple[dict, float]:
    """ops_per_s, op_p50_ms and op_tail_ms of a run's operation times, and
    the percentile op_tail_ms was taken at."""
    pct, tail = tail_latency(latencies)
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
    }, pct


def end_to_end(args, workload, env) -> tuple[dict, dict, int, int]:
    setups = setup_seconds(env, workload)
    for i in range(-WARMUP_OPS, 0):
        run_ops(workload, [workload.case(args.seed, i)])
    n = operations(workload, args.seconds)
    cases = (workload.case(args.seed, i) for i in range(n))
    speed = HostSpeed(workload.unit)
    speed.warm()
    tally = run_ops(workload, cases, deadline=STARTED + STOP_AFTER_S, speed=speed)
    if workload.name == "cli":
        peak_kb = workload.peak_rss_kb  # the largest levelcanon child
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # every time metric is reported at the reference host speed (calibrate.py)
    ref = REF_UNIT_S[workload.unit]
    scaled = [t * f for t, f in zip(tally.latencies, speed.factors())]
    timed, pct = time_metrics(scaled)
    raw, _ = time_metrics(tally.latencies)
    metrics = {
        "setup_s": (statistics.median(wall * ref / u for wall, u in setups), "s"),
        **timed,
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    _show("operations", tally)
    print(f"# op_p50_ms over {len(scaled)} samples; op_tail_ms is p{pct:g} "
          f"({sum(1 for x in scaled if x > timed['op_tail_ms'][0] / 1e3)} samples beyond it)")
    print(f"# times are scaled to a {workload.unit} reference unit of {ref * 1e6:g} us; this run's "
          f"median unit {speed.median_unit_s() * 1e6:.2f} us; unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, (v, _) in raw.items()))
    print(f"# setup_s samples (wall s, unit s) {setups}")
    record = {
        "fail_frac": tally.failed / max(1, tally.attempted),
        "tail_percentile": pct,
        "samples": len(tally.latencies),
        "not_run": tally.not_run,
        "setup_samples": setups,
        "unscaled": {k: v for k, (v, _) in raw.items()},
        "median_unit_s": speed.median_unit_s(),
        "fingerprint": tally.digest.hexdigest(),
        "failures": tally.failures,
    }
    return metrics, record, tally.attempted, tally.failed


def _predictions() -> dict:
    return json.loads((Path(__file__).parent / "predictions.json").read_text())


def _dominance(workload, tracer, floors, process_p50_ms) -> dict:
    """Compare the measured dominant layer with the prediction."""
    predicted = _predictions()["workloads"][workload.name]
    if workload.name == "cli":
        shares = {"cli.interpreter_ms": floors[0] / process_p50_ms,
                  "cli.import_ms": floors[1] / process_p50_ms}
        top = "cli.interpreter_ms+cli.import_ms"
        top_share = shares["cli.interpreter_ms"] + shares["cli.import_ms"]
        match = top_share >= 0.5
    else:
        layers = tracer.layer_self_times()
        total = sum(layers.values())
        shares = {k: v / total for k, v in sorted(layers.items(), key=lambda kv: -kv[1])}
        top, top_share = next(iter(shares.items()))
        match = top in predicted["dominant"]
    return {"measured_top": top, "measured_top_share": top_share, "shares": shares,
            "predicted_dominant": predicted["dominant"],
            "predicted_shares": predicted["shares"], "match": match}


def trace_problems(workload_name: str, missing: list[str], metrics: dict) -> list[str]:
    """Why a traced run's layer numbers cannot be trusted: a binding the
    tracer could not find, or a layer the workload is known to reach that
    got no calls (a renamed function, or an import moved into a function
    body, would otherwise read as a layer that became free)."""
    problems = [f"binding not found, so not traced: {name}" for name in missing]
    for name in _predictions()["workloads"][workload_name]["reached"]:
        if not metrics[name][0]:
            problems.append(f"{name} is 0 on {workload_name}, which reaches that layer")
    return problems


def _p50_ms(latencies: list[float]) -> float:
    return statistics.median(latencies) * 1e3 if latencies else 0.0


def _check_counts(workload, args, env_record, counts: dict) -> bool:
    """Exact counts must repeat between traced runs of one program and one
    benchmark at one seed and length; compare with the last such run and
    flag a mismatch."""
    key = (f"{workload.name}-seed{args.seed}-s{args.seconds}-"
           f"{env_record['src_sha256'][:12]}-{env_record['bench_sha256'][:12]}.json")
    path = OUT / "counts" / key
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            diff = {k: (before.get(k), v) for k, v in counts.items() if before.get(k) != v}
            print(f"# EXACT COUNT MISMATCH against {path}: {diff}")
            return False
        print(f"# exact counts repeat those of the previous run ({path})")
        return True
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    print(f"# exact counts stored in {path} for later runs to compare")
    return True


def traced(args, workload, env, env_record) -> tuple[dict, dict, int, int, bool]:
    from tracing import Tracer

    # the tracer cannot reach into child processes, so cli's layers are
    # traced, and its overhead measured, on an in-process replay
    op = getattr(workload, "replay", workload.op)
    n = max(operations(workload, TRACE_SHARE * args.seconds), workload.cover_ops)
    cases = [workload.case(args.seed, i) for i in range(n)]
    procs = Tally()
    if workload.name == "cli":
        # one child process per example, between the floors' children, for
        # the interpreter and import shares of a cli process
        floors = cli_floors(env, workload.cover_ops,
                            lambda i: run_ops(workload, [cases[i]], tally=procs))
    else:
        floors = cli_floors(env)
    for i in range(-WARMUP_OPS, 0):
        run_ops(workload, [workload.case(args.seed, i)], op=op)
    # both passes cover every case in order, alternating case by case and
    # each going first on every other case: two whole passes one after the
    # other differed by up to 17% untraced (confluence, on a 2-core x86-64
    # machine), which would swamp the tracer's own cost
    base, trace, tracer = Tally(), Tally(), Tracer()
    for k, case in enumerate(cases):
        for traced_op in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced_op:
                run_ops(workload, [case], op=op, tally=base)
                continue
            tracer.install()
            try:
                run_ops(workload, [case], tracer=tracer, op=op, tally=trace)
            finally:
                tracer.uninstall()
    passes = [base, trace] + ([procs] if workload.name == "cli" else [])
    overhead = (sum(trace.latencies) - sum(base.latencies)) / sum(base.latencies)
    metrics = tracer.metrics()
    kinds = [getattr(case.payload, "kind", None) for case in cases]
    for name, group in (("leq_eq", ("leq", "eq")), ("subst", ("subst",))):
        metrics[f"decide.{name}.p50_ms"] = (_p50_ms(
            [t for kind, t in zip(kinds, base.latencies) if kind in group]), "ms")
    metrics["cli.interpreter_ms"] = (floors[0], "ms")
    metrics["cli.import_ms"] = (floors[1], "ms")
    metrics["trace.overhead_frac"] = (overhead, "ratio")

    _show("untraced pass", base)
    _show("traced pass", trace)
    if workload.name == "cli":
        _show("one cli process per example", procs)
    problems = trace_problems(workload.name, tracer.missing, metrics)
    for problem in problems:
        print(f"# TRACE PROBLEM: {problem}")
    same_outputs = base.digest.hexdigest() == trace.digest.hexdigest()
    if not same_outputs:
        print("# OUTPUT MISMATCH: the traced pass fingerprint differs from the untraced one")
    dominance = _dominance(workload, tracer, floors, _p50_ms(procs.latencies))
    verdict = "matches" if dominance["match"] else "DOES NOT MATCH"
    print(f"# dominant layer: {dominance['measured_top']} "
          f"(share {dominance['measured_top_share']:.3f}); {verdict} the prediction "
          f"{dominance['predicted_dominant']}")
    print("# measured shares: " + ", ".join(f"{k} {v:.3f}" for k, v in dominance["shares"].items()))
    if dominance["predicted_shares"]:
        print("# predicted shares: " + ", ".join(
            f"{k} {v:g}" for k, v in dominance["predicted_shares"].items()))
    print(f"# {n} operations per pass; trace overhead {overhead:.4f}")
    counts = tracer.exact_counts()
    counts_ok = _check_counts(workload, args, env_record, counts)

    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    print(f"# {len(tracer.spans)} spans written to {spans_path}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "operations_per_pass": n,
        "fail_frac": failed / attempted,
        "failures": [f for p in passes for f in p.failures],
        "fingerprint": base.digest.hexdigest(),
        "traced_fingerprint_matches": same_outputs,
        "exact_counts": counts,
        "exact_counts_repeat": counts_ok,
        "dominance": dominance,
        "trace_problems": problems,
    }
    return metrics, record, attempted, failed, same_outputs and counts_ok and not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    usable = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    root = Path.cwd()
    src = root / "src"
    if not (src / "levelcanon" / "__init__.py").is_file():
        print(f"perfbench: no levelcanon sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import levelcanon
    if not Path(levelcanon.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: levelcanon was imported from {levelcanon.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, child_env
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    env_record = environment(root, src)
    env_record.update(cpus_usable=usable, pinned_cpu=cpu)
    print("# env " + json.dumps(env_record))
    workload = WORKLOADS[args.workload](src)
    env = child_env(src)
    correct = True
    if args.trace:
        metrics, record, attempted, failed, correct = traced(args, workload, env, env_record)
    else:
        metrics, record, attempted, failed = end_to_end(args, workload, env)
    env_record["loadavg_end"] = os.getloadavg()
    print(f"# loadavg start {env_record['loadavg_start']} end {env_record['loadavg_end']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env_record, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
