"""Benchmark of netcoh's V_N pipeline: one workload per process.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout this
file sits in, and the run fails when that source is missing.  With
``--trace 0`` the named workload repeats whole rounds of its operations for
``--seconds`` and the last line of standard output is a JSON object with the
end-to-end metrics; the fresh-interpreter import and set-up samples of
``setup_s`` are taken between rounds, spread over the run.  With
``--trace 1`` the run is the traced pass over every workload, and
``--workload`` may be left out (it is ignored): a warm-up round, an untraced
round and a traced round each, reporting the per-layer metrics and the
tracing overhead, and writing the spans to ``perfbench/out/trace-<seed>.json``.
See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads; recorded in the README and on standard error.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from recorder import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("analytic", "oracle", "ensemble", "cli")
IMPORT_SAMPLES = 9
SETUP_SAMPLES = 5
MIN_ROUNDS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import netcoh, netcoh.cli; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Time of ``import netcoh, netcoh.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload_cls, seed: int, seconds: float, workdir: Path):
    workload = workload_cls(seed, workdir)
    imports, setups = [], []

    def sample_setup(share: float) -> None:
        """Take the set-up samples due by ``share`` of the run, at least one
        each, so that they spread over the run as the rounds do."""
        while len(imports) < max(1, math.ceil(IMPORT_SAMPLES * share)):
            imports.append(import_seconds())
        while len(setups) < max(1, math.ceil(SETUP_SAMPLES * share)):
            rec = Recorder(tracing=False)
            workload.setup(rec)
            setups.append(rec.wall)

    total = Recorder(tracing=False)
    walls, cpus = [], []
    spent = 0.0  # time in rounds, checks included; the set-up samples are not
    # whole rounds only; the last one starts if it should end within the run
    while len(walls) < MIN_ROUNDS or spent * (1 + 1 / len(walls)) <= seconds:
        sample_setup(min(1.0, spent / seconds))
        start = time.perf_counter()
        rec = Recorder(tracing=False)
        workload.round(rec)
        spent += time.perf_counter() - start
        walls.append(rec.wall)
        cpus.append(rec.cpu)
        total.absorb(rec)
    sample_setup(1.0)
    print(f"{workload_cls.name}: {len(walls)} rounds, run_s {walls}, import_s {imports}, setup {setups}",
          file=sys.stderr)
    metrics = {
        "setup_s": metric(statistics.median(imports) + statistics.median(setups), "s"),
        "run_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return total, metrics


def traced_pass(workloads: dict, seed: int, workdir: Path):
    """Per workload: set-up traced, a warm-up round, an untraced round and a
    traced round; the overhead is traced minus untraced round time."""
    rec = Recorder(tracing=True)
    plain_total = Recorder(tracing=False)
    overhead, rng = {}, None
    for name, cls in workloads.items():
        sub = workdir / name
        sub.mkdir()
        workload = cls(seed, sub)
        with rec.span(f"workload.{name}"):
            with rec.span("setup"):
                workload.setup(rec)
            # the first round warms caches and is left out of the comparison
            for _ in range(2):
                plain = Recorder(tracing=False)
                workload.round(plain)
                plain_total.absorb(plain)
            before = rec.wall
            with rec.span("round"):
                workload.round(rec)
        overhead[name] = (rec.wall - before) - plain.wall
        if name == "ensemble":
            rng = workload.rng_floor()
    rec.absorb(plain_total)
    metrics = layer_metrics(rec.spans, overhead, rng)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{seed}.json").write_text(json.dumps({"spans": rec.spans, "metrics": metrics}))
    return rec, metrics


def layer_metrics(spans, overhead: dict, rng) -> dict:
    from workloads import ENSEMBLES

    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def busy(name):
        return sum(s["end"] - s["start"] for s in by[name])

    def count(name, key):
        return sum(s["attrs"].get(key, 0) for s in by[name])

    m = {
        "graphs.build_s": metric(busy("graphs.build"), "s"),
        "graphs.edges": metric(count("graphs.build", "edges"), "count"),
        "graphs.laplacian_s": metric(busy("graphs.laplacian"), "s"),
        "graphs.eigvalsh_s": metric(busy("graphs.eigvalsh"), "s"),
        "graphs.closed_spectrum_s": metric(busy("graphs.closed_spectrum"), "s"),
        "closed_loop.assemble_s": metric(busy("closed_loop.assemble"), "s"),
    }
    for route, unit, scale in (("closed", "ns", 1e9), ("modal", "us", 1e6)):
        t, modes = busy(f"variance.{route}"), count(f"variance.{route}", "modes")
        m[f"variance.{route}_s"] = metric(t, "s")
        m[f"variance.{route}_modes"] = metric(modes, "count")
        m[f"variance.{route}_{unit}_per_mode"] = metric(scale * t / modes, unit)
    m["variance.full_s"] = metric(busy("variance.full"), "s")
    m["variance.full_solves"] = metric(count("variance.full", "solves"), "count")
    m["tuning.c_star_s"] = metric(busy("tuning.c_star"), "s")
    m["tuning.classify_s"] = metric(busy("tuning.classify"), "s")
    m["tuning.dv_dtau_s"] = metric(busy("tuning.dv_dtau"), "s")
    m["scaling.run_scaling_s"] = metric(busy("scaling.run_scaling"), "s")
    m["scaling.points"] = metric(count("scaling.run_scaling", "points"), "count")
    m["simulate.ensemble_s"] = metric(busy("simulate.ensemble"), "s")
    m["simulate.seed_steps"] = metric(count("simulate.ensemble", "seed_steps"), "count")
    for config in ENSEMBLES:
        mine = [s for s in by["simulate.ensemble"] if s["attrs"]["config"] == config]
        t = sum(s["end"] - s["start"] for s in mine)
        m[f"simulate.ns_per_seed_step.{config}"] = metric(
            1e9 * t / sum(s["attrs"]["seed_steps"] for s in mine), "ns")
    em = [s for s in by["simulate.em"] if "steps" in s["attrs"]]
    m["simulate.em_s"] = metric(busy("simulate.em"), "s")
    m["simulate.em_steps"] = metric(sum(s["attrs"]["steps"] for s in em), "count")
    m["simulate.ns_per_step"] = metric(
        1e9 * sum(s["end"] - s["start"] for s in em) / m["simulate.em_steps"]["value"], "ns")
    m["simulate.step_checks_s"] = metric(busy("simulate.step_checks"), "s")
    ring = [s for s in by["simulate.ensemble"] if s["attrs"]["config"].startswith("ring20")]
    sim_per_seed_step = sum(s["end"] - s["start"] for s in ring) / sum(s["attrs"]["seed_steps"] for s in ring)
    rng_seconds, rng_seed_steps = rng
    m["simulate.rng_floor_share"] = metric((rng_seconds / rng_seed_steps) / sim_per_seed_step, "ratio")
    for command in ("variance", "tune", "scale", "simulate"):
        m[f"cli.{command}_s"] = metric(busy(f"cli.{command}"), "s")
    out_bytes = sum(s["attrs"].get("bytes", 0) for c in ("variance", "tune", "scale", "simulate")
                    for s in by[f"cli.{c}"])
    m["cli.out_mb"] = metric(out_bytes / 1e6, "MB")
    for name, seconds in overhead.items():
        m[f"trace.overhead_s.{name}"] = metric(seconds, "s")
    return m


def environment() -> str:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode; the version is informative only
        blas = "unknown"
    return (f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
            f"{blas}, nproc {os.cpu_count()}, BLAS threads {BLAS_THREADS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, help="required with --trace 0; --trace 1 runs every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is None and not args.trace:
        parser.error("--workload is required with --trace 0")

    if not (SRC / "netcoh" / "__init__.py").is_file():
        print(f"error: no netcoh source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import netcoh

    if Path(netcoh.__file__).resolve().parent != SRC / "netcoh":
        print(f"error: imported netcoh from {netcoh.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    print(environment(), file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload or 'traced'}-{args.seed}-", dir=OUT))
    try:
        if args.trace:
            rec, metrics = traced_pass(WORKLOADS, args.seed, workdir)
        else:
            rec, metrics = timed_run(WORKLOADS[args.workload], args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for (fault, name, message), times in sorted(rec.faults.items()):
        print(f"known fault {fault}: {name} failed {times}x: {message}", file=sys.stderr)
    for text in rec.unexpected:
        print(f"UNEXPECTED FAILURE {text}", file=sys.stderr)
    correct = not rec.unexpected
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
