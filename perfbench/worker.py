"""One measured run of one workload, in a fresh interpreter.

Imports femrisk from this checkout's `src`, writes the workload's inputs
from the seed (both timed as set-up), then runs the CLI command through
`femrisk.cli.dispatch` and prints one JSON line: exit code, wall and CPU
time of the command, peak resident memory of this process, set-up times
and the library versions.  With `--trace 1` the command runs under
`tracing.Tracer`; the spans go to `spans.jsonl` in the work directory and
their per-layer reduction into the JSON line.

    python3 perfbench/worker.py --workload fe_phantom --seed 42 \
        --workdir .bench_work/fe_phantom-0 --threads 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def environment(femrisk) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "default") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "kernel_impl": femrisk.femodel.KERNEL_IMPL,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import femrisk.cli
    import femrisk.femodel
    t1 = time.perf_counter()
    if not Path(femrisk.__file__).resolve().is_relative_to(SRC):
        print(f"error: femrisk imported from {femrisk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workload.write_inputs(femrisk, args.seed, workdir)
    t2 = time.perf_counter()

    argv = workload.argv(workdir, args.seed, args.threads)
    layers = None
    if args.trace:
        from tracing import ROOT, Tracer, layer_metrics, write_spans
        tracer = Tracer(run=workdir.name)
    cpu0, w0 = _cpu_seconds(), time.perf_counter()
    if args.trace:
        with tracer:
            with tracer.span(ROOT):
                code = femrisk.cli.dispatch(argv)
    else:
        code = femrisk.cli.dispatch(argv)
    wall, cpu = time.perf_counter() - w0, _cpu_seconds() - cpu0
    env = environment(femrisk)
    if args.trace:
        spans = tracer.ordered_spans()
        layers = layer_metrics(spans, tracer.counters)
        write_spans(spans, workdir / "spans.jsonl",
                    header={"workload": workload.name, "seed": args.seed,
                            "argv": argv, "counters": tracer.counters, **env})

    print(json.dumps({
        "exit": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": t1 - t0,
        "inputs_s": t2 - t1,
        "env": env,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
