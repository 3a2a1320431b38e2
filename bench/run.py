"""Benchmark of the subspace_products package.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations until S seconds have passed,
checks every result against the oracles in ``oracles.py``, and prints a
summary followed by one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` the package's layers
are wrapped (see ``spans.py``) and the metrics are the per-layer ones.
The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# One BLAS thread: matrices here are at most 256 x 16,456, where threads gain
# little, and single-threaded figures stay steady on a shared machine.  Set
# before numpy loads, in this process and in the import probes it starts.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Set-up is repeated and its median reported: the package import is timed in
# this process and in IMPORT_PROBES fresh interpreters, input generation
# SETUP_REPEATS times here.
IMPORT_PROBES = 4
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import subspace_products; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_import_s() -> float:
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
    }


class Run:
    """Per-operation times and failures over the rounds of one run."""

    def __init__(self, ops):
        self.ops = ops
        self.times = [[] for _ in ops]
        self.failures = {}  # op index -> (count, last reason)
        self.rounds = 0

    def round(self) -> float:
        """Run every operation once; return the summed time of the calls."""
        total = 0.0
        for i, op in enumerate(self.ops):
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a raising call is a failed operation
                result, reason = None, f"raised {type(exc).__name__}: {exc}"
            else:
                reason = None
            dt = time.perf_counter() - t0
            if reason is None:
                try:
                    reason = op.check(result)
                except Exception as exc:  # a malformed result fails its check
                    reason = f"check raised {type(exc).__name__}: {exc}"
            self.times[i].append(dt)
            total += dt
            if reason:
                count, _ = self.failures.get(i, (0, ""))
                self.failures[i] = (count + 1, reason)
        self.rounds += 1
        return total

    def attempted(self) -> int:
        return self.rounds * len(self.ops)

    def failed(self) -> int:
        return sum(count for count, _ in self.failures.values())

    def unexpected(self) -> int:
        return sum(c for i, (c, _) in self.failures.items() if self.ops[i].fault is None)

    def report(self, faults) -> list:
        lines = []
        for i, (count, reason) in sorted(self.failures.items()):
            tag = self.ops[i].fault or "UNEXPECTED"
            lines.append(f"failed [{tag}] x{count}: {self.ops[i].name}: {reason}")
        failed_ops = set(self.failures)
        for i, op in enumerate(self.ops):
            if op.fault and i not in failed_ops:
                lines.append(f"fault {op.fault} not shown by: {op.name}")
        for tag, text in faults.items():
            if any(self.ops[i].fault == tag for i in failed_ops):
                lines.append(f"{tag}: {text}")
        return lines


def per_layer_metrics(specs, tracer, iterations, overhead_s) -> dict:
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name == "trace.overhead_s":
            value = overhead_s
        elif name.endswith(".self_s"):
            value = tracer.self_s.get(name[: -len(".self_s")], 0.0) / iterations
        else:
            value = tracer.counts.get(name, 0) / iterations
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its scratch files (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "subspace_products")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # The package import comes first so that its time includes numpy and scipy.
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import subspace_products as sp
    import subspace_products.cli  # noqa: F401  (the CLI is reached as sp.cli)
    import_samples = [time.perf_counter() - t0]

    import numpy as np

    import spans
    import workloads

    build = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        if args.trace:
            # Untraced and traced rounds alternate, so both see the same drift
            # of the machine's speed; the difference of their medians is the
            # tracing overhead.
            tracer = spans.Tracer()
            run, plain, traced = None, [], []
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < args.seconds:
                ops = build(sp, np.random.default_rng(args.seed), work_dir)
                run = run or Run(ops)
                run.ops = ops
                plain.append(run.round())
                tracer.install(sp)
                try:
                    run.ops = build(sp, np.random.default_rng(args.seed), work_dir)
                    traced.append(run.round())
                finally:
                    tracer.uninstall()
            metrics = per_layer_metrics(
                spec["per_layer"], tracer, len(traced),
                statistics.median(traced) - statistics.median(plain),
            )
        else:
            gen_samples = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                ops = build(sp, np.random.default_rng(args.seed), work_dir)
                gen_samples.append(time.perf_counter() - t0)
            import_samples += [probe_import_s() for _ in range(IMPORT_PROBES)]
            run = Run(ops)
            start = time.perf_counter()
            while run.rounds == 0 or time.perf_counter() - start < args.seconds:
                run.round()
            # Each operation at its shortest time over the run: other load on
            # a shared host slows a CPU by up to 1.7x for seconds to minutes,
            # and the shortest time is the one it disturbs least.
            per_op = [min(t) for t in run.times]
            values = {
                "setup_s": statistics.median(import_samples) + statistics.median(gen_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "op_gmean_ms": 1000.0 * statistics.geometric_mean(per_op),
            }
            metrics = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed} rounds {run.rounds} "
          f"ops/round {len(run.ops)} attempted {run.attempted()} failed {run.failed()} "
          f"unexpected {run.unexpected()}")
    for line in run.report(workloads.FAULTS):
        print(line)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": run.unexpected() == 0,
        "attempted": run.attempted(),
        "failed": run.failed(),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
