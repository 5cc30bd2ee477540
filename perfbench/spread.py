"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1,2,...] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), each in a fresh
process (``peak_rss_mb`` needs one: ``ru_maxrss`` only grows), from the
root of a checkout.  For each workload and end-to-end metric it reports the
median, the first and third quartiles (``statistics.quantiles(n=4)``) and
the quartile distance as a share of the median, next to the same spread of
the unscaled host values and the metric's bound from ``BENCHMARK.json``.
A spread above a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_PREFIX = "host metrics (unscaled): "


def _spread(values) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(HOST_PREFIX):
            result["host"] = json.loads(line[len(HOST_PREFIX):])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n"
                           f"{proc.stdout[-4000:]}")
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(map(str, range(1, 11))))
    parser.add_argument("--out", help="also write the report to this file")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    lines = [f"seeds {seeds}, run_seconds {spec['run_seconds']}", "",
             "| workload | metric | median | q1 | q3 | spread | unscaled "
             "spread | bound |", "|---|---|---|---|---|---|---|---|"]
    unsteady = []
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.4g}"
                              for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median, q1, q3, spread = _spread(values)
            host = _spread([r["host"][metric["name"]] for r in runs])[3]
            flag = ""
            if spread > metric["bound"] / 3:
                flag = " (above a third of the bound)"
                unsteady.append(f"{workload}/{metric['name']}")
            lines.append(f"| {workload} | {metric['name']} | {median:.6g} | "
                         f"{q1:.6g} | {q3:.6g} | {spread:.2%}{flag} | "
                         f"{host:.2%} | {metric['bound']:.0%} |")
    lines += ["", "not steady: " + (", ".join(unsteady) if unsteady else "none")]
    report = "\n".join(lines) + "\n"
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
