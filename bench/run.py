"""Benchmark of the bandgap recovery pipeline: one workload per run.

    python3 bench/run.py --workload cli_recover_simulate --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  One process runs one workload as a closed
loop with a single caller: inputs are made from the seed, one warm-up
operation is discarded, then whole rounds of operations are timed until
`--seconds` of operation time have passed.  Every successful operation is
checked against the independent reference (check time is not timed).

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` a third of the time runs untraced and
the rest traced, and the JSON object holds the per-layer metrics, with the
spans written to `bench/out/`.  BLAS threads are pinned to one before numpy
loads, here and in the set-up children.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
PROGRAM_MODULES = ("cli", "errors", "forecast", "kernel", "lab", "masks", "operators", "recovery",
                   "series", "solvers")

# Imports the package in a fresh interpreter and reports how long that took.
_SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import bandgap, bandgap.cli
seconds = time.perf_counter() - t0
print(json.dumps({"seconds": seconds, "file": bandgap.__file__}))
"""


def _from_checkout(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> float:
    """Median time to import bandgap and bandgap.cli, over fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC)],
                              capture_output=True, text=True, timeout=120, env=os.environ.copy())
        if proc.returncode != 0:
            raise RuntimeError(f"importing bandgap failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if not _from_checkout(doc["file"]):
            raise RuntimeError(f"bandgap was imported from {doc['file']}, not from {SRC}")
        times.append(doc["seconds"])
    return statistics.median(times)


def import_program():
    sys.path.insert(0, str(SRC))
    import bandgap

    if not _from_checkout(bandgap.__file__):
        raise RuntimeError(f"bandgap was imported from {bandgap.__file__}, not from {SRC}")
    # Submodules by import, not attribute: the package rebinds `forecast` to the function.
    return argparse.Namespace(**{name: importlib.import_module(f"bandgap.{name}") for name in PROGRAM_MODULES})


class Loop:
    """The closed loop: times operations, checks outcomes, keeps the tallies."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies = []  # seconds, successful operations only
        self.busy = 0.0  # summed operation time, all operations
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.ops = 0

    def one(self, k: int, counted: bool = True) -> None:
        if self.tracer is not None:
            self.tracer.op = self.ops
        t0 = time.perf_counter()
        outcome = self.workload.run(k)
        elapsed = time.perf_counter() - t0
        self.ops += 1
        if counted:
            self.attempted += 1
            self.busy += elapsed
            if outcome.ok:
                self.latencies.append(elapsed)
            else:
                self.failed += 1
        if outcome.ok:
            try:
                problems = self.workload.check(k, outcome)
            except Exception:  # a malformed output is a check failure, not a crash
                problems = [traceback.format_exc(limit=3)]
            self.errors.extend(f"op {k}: {p}" for p in problems)

    def rounds(self, seconds: float) -> None:
        """Run whole rounds for about `seconds` of operation time.

        A further round starts only while less than half a round's time
        would be left over, so the measured time stays centred on `seconds`.
        """
        start, done = self.busy, 0
        while True:
            spent = self.busy - start
            if done and spent + spent / done / 2 >= seconds:
                break
            for k in range(self.workload.round_size):
                self.one(k)
            done += 1


def p50_ms(latencies) -> float:
    return statistics.median(latencies) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bandgap" / "__init__.py").is_file():
        sys.stderr.write(f"no program source at {SRC / 'bandgap'}; run from a full checkout\n")
        return 2

    setup_s = measure_setup()
    bg = import_program()
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](bg, args.seed, str(workdir))
        loop = Loop(workload)
        loop.one(0, counted=False)  # warm-up, discarded
        if args.trace:
            loop.rounds(args.seconds / 3)
            untraced_ms = p50_ms(loop.latencies)
            loop.latencies = []
            loop.tracer = tracer = Tracer()
            tracer.install()
            first = loop.ops
            try:
                loop.rounds(args.seconds * 2 / 3)
            finally:
                tracer.uninstall()
            values = tracer.layer_metrics(loop.ops - first, p50_ms(loop.latencies) - untraced_ms)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        else:
            loop.rounds(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "latency_p50_ms": {"value": p50_ms(loop.latencies), "unit": "ms"},
                "ops_per_s": {"value": len(loop.latencies) / loop.busy, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in loop.errors[:20]:
        sys.stderr.write(f"check failed: {err}\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {loop.attempted}, failed = {loop.failed}, "
          f"check failures = {len(loop.errors)}")
    print(json.dumps({"correct": not loop.errors, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
