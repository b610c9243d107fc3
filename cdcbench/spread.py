"""Run the benchmark over several seeds and workloads and summarize.

    python3 cdcbench/spread.py                       # every workload, seed 1
    python3 cdcbench/spread.py --seeds 1-10          # steadiness check
    python3 cdcbench/spread.py --workloads hot_keys --seeds 1-5 --trace 1

For each workload it prints every metric by name and unit with its median
over the runs, its inter-quartile spread as a share of the median and,
for end-to-end metrics, the regression bound from ``BENCHMARK.json``,
plus the oracle result of every run. The acceptance check is spread <=
bound: a spread above it is marked ``OVER``, one within it ``ok``, and
one also within a third of it ``steady``. ``setup_s`` is exempt; its
median is what counts.
Results are also written to ``.bench_out/spread-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[0] = ROOT

from cdcbench import checks  # noqa: E402


def seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("cdcbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return {"seed": seed, "wall_s": wall, **json.loads(lines[-1])}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {}
    for w in args.workloads.split(","):
        runs = results[w] = []
        for seed in seeds(args.seeds):
            r = run_once(w, seed, args.seconds, args.trace)
            runs.append(r)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"failed {r['failed']}/{r['attempted']} "
                  f"wall {r['wall_s']:.1f} s", flush=True)
        print(f"\n{w}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} operations failed")
        for name, m in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            line = (f"  {name:<42} {checks.median(vals):>14.4f} "
                    f"{m['unit']:<6}")
            if len(vals) >= 2:
                spread = checks.quartile_spread(vals)
                line += f" spread {spread:7.4f}"
                if name in bounds:
                    bound = bounds[name]
                    verdict = ("exempt" if name == "setup_s"
                               else "steady" if spread <= bound / 3
                               else "ok" if spread <= bound else "OVER")
                    line += f" bound {bound:.2f} {verdict}"
            print(line)
        print(flush=True)
    out = os.path.join(ROOT, ".bench_out",
                       f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    print(f"results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
