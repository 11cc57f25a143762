"""femrisk benchmark: CLI workloads in a closed loop, with a correctness gate.

One client runs one workload's CLI command at a time, each run in a fresh
interpreter (`worker.py`) that starts only after the previous run ended,
until `--seconds` have passed.  Every run's output is checked; a nonzero
exit, an invalid output, a disagreement with another run of the same seed
or, at the default seed, with `reference.json` counts as a failed run.

    python3 perfbench/run.py --workload fe_phantom --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py                   # every workload, untraced

With `--trace 0` the result holds the end-to-end metrics: median wall and
CPU time of the command, peak resident memory and set-up time (import of
femrisk plus writing the inputs).  With `--trace 1` each untraced run is
followed by a traced one, whose output must match byte for byte; the
result holds the per-layer metrics of `tracing.LAYER_METRICS` and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS
from workloads import WORKLOADS, check, check_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 42
# One invocation of one workload ends within 180 s: --seconds may ask for
# at most MAX_SECONDS, a run that would end after DEADLINE_S is not
# started, and a run still going at DEADLINE_S is killed and counts as failed.
MAX_SECONDS = 120.0
DEADLINE_S = 170.0

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def provenance() -> dict:
    """Commit (when the checkout is a git repository) and source digest."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "femrisk").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {"commit": commit, "source_sha256": h.hexdigest(), "nproc": nproc()}


def spawn(workload, seed: int, run: str, trace: int, deadline: float) -> dict:
    """One worker run; returns its JSON line plus the output bytes, or a
    dict with only "problem" when the run produced nothing usable."""
    workdir = WORK / run
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--seed", str(seed), "--workdir", str(workdir),
           "--threads", str(min(workload.threads, nproc())), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return {"problem": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"problem": f"worker exited {proc.returncode}: {tail}"}
    result = json.loads(lines[-1])
    if result["exit"] != 0:
        result["problem"] = f"femrisk exited {result['exit']}"
        return result
    result["output"] = (workdir / workload.output).read_bytes()
    result["problem"] = check(workload, result["output"])
    return result


def measure(workload, seed: int, seconds: float, trace: int, reference):
    """Closed loop of runs; returns (untraced runs, traced runs)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    while True:
        t = time.monotonic()
        plain.append(spawn(workload, seed, f"{workload.name}-{len(plain)}", 0, deadline))
        if trace:
            traced.append(spawn(workload, seed, f"{workload.name}-traced-{len(traced)}",
                                1, deadline))
        now = time.monotonic()
        if now - start >= seconds or now + (now - t) > deadline:
            break

    # Cross-run gate: every run of one seed must produce the same bytes, a
    # traced run the same bytes as its untraced partner.
    first = next((r["output"] for r in plain if "output" in r), None)
    for r in plain:
        if not r["problem"] and r["output"] != first:
            r["problem"] = "output differs from the first run of this seed"
        if not r["problem"] and reference is not None:
            r["problem"] = check_reference(workload, reference, r["output"])
    for r, p in zip(traced, plain):
        if not r["problem"] and r["output"] != p.get("output"):
            r["problem"] = "traced output differs from the untraced run"
    return plain, traced


def summarize(workload, seed, runs, traced, trace: int):
    """(metrics, attempted, failed, human-readable lines)."""
    attempted = len(runs) + len(traced)
    bad = [r for r in runs + traced if r["problem"]]
    lines = [f"== {workload.name} (seed {seed}): {workload.why}"]
    lines += [f"   failed run: {r['problem']}" for r in bad]
    measured = [r for r in runs if "wall_s" in r]
    if not measured:
        return None, attempted, len(bad), lines
    for r in measured:
        r["setup_s"] = r["import_s"] + r["inputs_s"]
    metrics = {}
    for key, unit in E2E_UNITS.items():
        values = [r[key] for r in measured]
        metrics[key] = {"value": statistics.median(values), "unit": unit}
        lines.append(f"   {key:<12} median {metrics[key]['value']:10.4f} {unit:<5}"
                     f" min {min(values):.4f}  max {max(values):.4f}  (n={len(values)})")
    lines.append(f"   {'error_rate':<12} {len(bad) / attempted:10.4f} ratio"
                 f" ({len(bad)} failed of {attempted} attempted)")
    lines.append("   env " + json.dumps(measured[0]["env"], sort_keys=True))
    if not trace:
        return metrics, attempted, len(bad), lines

    layered = [r for r in traced if r.get("layers")]
    if not layered:
        return None, attempted, len(bad), lines
    layers = {}
    for name, unit in LAYER_METRICS.items():
        layers[name] = {"value": statistics.median(r["layers"][name] for r in layered),
                        "unit": unit}
    overhead = statistics.median(r["wall_s"] for r in layered) - metrics["wall_s"]["value"]
    layers["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    for name, m in layers.items():
        lines.append(f"   {name:<52} {m['value']:14.6g} {m['unit']}")
    lines.append(f"   spans: {WORK / (workload.name + '-traced-0') / 'spans.jsonl'}")
    return layers, attempted, len(bad), lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must be a 64-bit unsigned value")
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be in (0, {MAX_SECONDS:g}]")
    if not (SRC / "femrisk" / "cli.py").is_file():
        print(f"error: femrisk sources not found under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    print("provenance " + json.dumps({"seed": args.seed, **provenance()}, sort_keys=True))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = WORKLOADS[name]
        ref = references.get(name)
        if ref is not None and ref["seed"] != args.seed:
            ref = None
        runs, traced = measure(workload, args.seed, args.seconds, args.trace, ref)
        metrics, attempted, failed, lines = summarize(workload, args.seed, runs,
                                                      traced, args.trace)
        print("\n".join(lines), flush=True)
        if metrics is None:
            print(f"error: no run of {name} produced measurements", file=sys.stderr)
            return 1
        total["attempted"] += attempted
        total["failed"] += failed
        prefix = "" if len(names) == 1 else name + "."
        total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
