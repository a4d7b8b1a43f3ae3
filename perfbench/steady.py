"""Steadiness check: two sets of runs of one checkout, compared.

    python3 perfbench/steady.py --runs 10

Runs ``run.py`` for every workload of BENCHMARK.json with a fresh seed per
run (set k uses seeds k*1000 + 1 .. k*1000 + runs, workloads interleaved
within each run index), then prints for each workload and end-to-end metric
the median of each set, its quartile spread (q3 - q1 over the median, from
``statistics.quantiles(n=4)``), the shift between the two medians, and
whether both spreads and the shift stay within the metric's bound from
BENCHMARK.json.  It also prints whether every run's failed share (failed /
attempted) is identical.  Raw results go to ``perfbench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(1, args.runs + 1):
            for w in workloads:
                results[w][s].append(run_once(w, 1000 * (s + 1) + i, spec["run_seconds"]))
                print(f"set {s + 1} run {i} {w} done", file=sys.stderr, flush=True)

    ok = True
    print("workload     metric        median1     spread1  median2     spread2  shift    verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            shift = (medians[1] - medians[0]) / medians[0]
            good = all(sp <= bound for sp in spreads) and (shift if m["better"] == "lower" else -shift) <= bound
            ok = ok and good
            print(f"{w:12s} {name:12s} " + "".join(f"{md:10.4g} {sp:8.3f}  " for md, sp in zip(medians, spreads))
                  + f"{shift:+7.3f}  {'ok' if good else 'OUT'} (bound {bound})")
        shares = {(r["failed"], r["attempted"]) for runs in results[w] for r in runs}
        same = len({f / a for f, a in shares}) == 1
        ok = ok and same
        print(f"{w:12s} failed/attempted {sorted(shares)}: {'identical share' if same else 'SHARE DIFFERS'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(results))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
