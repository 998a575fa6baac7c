"""privsvm benchmark: one CLI workload, timed end to end or traced per layer.

    python3 privbench/run.py --workload release-rff --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src. A run is
one process and one client in a closed loop:

1. set-up, repeated SETUP_REPS times: a fresh import of privsvm and the
   input files of op 0 (`setup_s` is the median);
2. the cold op 0, the first op in this process (`cold_op_s`). It runs the
   inputs of COLD_SEED in every run, so that it measures the first-call
   costs of a fresh process rather than the luck of one dataset;
3. warm ops 1, 2, ... on inputs from `--seed`, until `--seconds` of op wall
   time have been measured (and, for a workload with a corpus, whole passes
   over it).

Times are reported in reference seconds (see measure.Clock); the wall times
are in the lines printed before the result and in the run's record. With
`--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` every other warm pass runs with every layer function wrapped in
a span and the last line carries the per-layer metrics; the plain passes
give the baseline for the tracing overhead. Every op's outputs are
checked; a crash, a non-zero exit code or a failed check counts as a failed
op. Each run writes its record, with machine facts and, when tracing, the
spans, to .privbench-out/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".privbench-out"
SETUP_REPS = 7
COLD_SEED = 0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def blas_facts(np) -> dict:
    """BLAS name and version from numpy's build, and OpenBLAS's thread count."""
    facts = {"name": "unknown", "version": "unknown", "threads": None}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    with contextlib.suppress(Exception):
        import ctypes

        for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    facts["threads"] = fn()
                    return facts
    return facts


def machine_facts(np) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(np),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def fresh_import():
    """Import privsvm from ./src from scratch, so each set-up pays the import
    again and no installed copy stands in for the checkout's code."""
    for name in [n for n in sys.modules if n == "privsvm" or n.startswith("privsvm.")]:
        del sys.modules[name]
    cli = importlib.import_module("privsvm.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"privsvm was imported from {cli.__file__}, not from ./src")
    return cli


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # One BLAS thread unless the caller says otherwise: the workloads spend
    # their time in Python loops, and idle OpenBLAS threads spin on a core.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import layers
    import measure
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed & ((1 << 64) - 1)
    tracer = measure.Tracer(layers.targets())
    clock = measure.Clock()
    ops = []

    def one_op(k, inp, traced):
        install = tracer.installed() if traced else contextlib.nullcontext()
        out, problems = None, []
        # A traced run samples no calibration inside its warm ops, so spans
        # hold only library time and plain and traced ops are scaled alike.
        clock.start(sample=k == 0 or not args.trace)
        try:
            with install:
                out = workload.run(inp)
        except Exception:  # a crashed op is a failed op; the run goes on
            problems = [traceback.format_exc(limit=3)]
        wall, ref = clock.stop()
        if not problems:
            try:
                problems = workload.check(inp, out)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        for path in inp["paths"].values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        ops.append({"k": k, "wall_s": wall, "ref_s": ref, "traced": traced,
                    "problems": problems})

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".privbench-work-") as work:
        setup = []
        for _ in range(SETUP_REPS):
            clock.start()
            fresh_import()
            inp = workload.prepare(work, COLD_SEED, 0)
            wall, ref = clock.stop()
            setup.append({"wall_s": wall, "ref_s": ref})
        facts = machine_facts(np)

        one_op(0, inp, False)
        # Whole passes over the corpus (a pass is one op without a corpus);
        # when tracing, passes alternate plain and traced, so both kinds see
        # the same datasets, and there is at least one of each.
        passes = workload.corpus or 1
        k = 1
        while (sum(op["wall_s"] for op in ops[1:]) < args.seconds
               or k <= passes * (1 + args.trace) or (k - 1) % passes):
            traced = bool(args.trace) and (k - 1) // passes % 2 == 1
            one_op(k, workload.prepare(work, seed, k), traced)
            k += 1

    warm = [op["ref_s"] for op in ops[1:] if not op["traced"]]
    if args.trace:
        traced = [op for op in ops if op["traced"]]
        scale = sum(op["ref_s"] for op in traced) / sum(op["wall_s"] for op in traced)
        metrics = layers.metrics(tracer, len(traced), scale)
        metrics["cold_op_s"] = {"value": ops[0]["ref_s"], "unit": "s"}
        traced_rate = len(traced) / sum(op["ref_s"] for op in traced)
        metrics["trace.overhead_frac"] = {
            "value": traced_rate / (len(warm) / sum(warm)), "unit": "ratio"}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": {"value": len(warm) / sum(warm), "unit": "1/s"},
            "op_s.p50": {"value": statistics.median(warm), "unit": "s"},
            "setup_s": {"value": statistics.median(s["ref_s"] for s in setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    report(args, facts, ops, setup, metrics, tracer if args.trace else None)
    failed = sum(1 for op in ops if op["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def report(args, facts, ops, setup, metrics, tracer) -> None:
    """Human-readable lines before the result line, and the run's record on disk."""
    import measure

    warm = [op for op in ops[1:] if not op["traced"]]
    failed = [op for op in ops if op["problems"]]
    for op in failed:
        print(f"op {op['k']} failed: {op['problems']}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(facts))
    print(f"ops attempted {len(ops)} failed {len(failed)} "
          f"fail_rate {len(failed) / len(ops):.4g} warm samples {len(warm)}")
    for key in ("ref_s", "wall_s"):
        times = [op[key] for op in warm]
        line = (f"{key}: setup {statistics.median(s[key] for s in setup):.4g}"
                f" cold {ops[0][key]:.4g} warm p50 {statistics.median(times):.4g}")
        tail = measure.tail_percentile(len(times))
        if tail is not None:
            line += f" p{tail} {statistics.quantiles(times, n=100, method='inclusive')[tail - 1]:.4g}"
        print(f"{line} ({len(times)} samples)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": facts, "setup": setup, "ops": ops, "metrics": metrics}
    if tracer is not None:
        record["spans"] = [vars(s) for s in tracer.spans]
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
