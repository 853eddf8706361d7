"""Steadiness and planted-slowdown checks over repeated benchmark runs.

    python3 perfbench/check.py spread --workload warm_reads --seeds 1-10
    python3 perfbench/check.py plant --seeds 11-15
    python3 perfbench/check.py host --procs 10 --seconds 6

``spread`` runs one workload once per seed and prints each run's figures
and, for every end-to-end metric, the median and the interquartile range
as a share of the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from BENCHMARK.json.  It exits 1 when a spread other than
``setup_s``'s reaches its bound.

``plant`` runs the planted-slowdown acceptance: for each planted target
it runs the named workloads on the same seeds with and without the plant,
prints each run's figures and compares medians against the bounds.  Expected: slowing
``dominance_matrix`` by 25% pushes ``warm_reads/op_p50_ms`` past its bound
while every ``design_batch`` metric stays within its bound; slowing
``template_from_expression`` pushes ``design_batch/ops_per_s`` past its
bound while every ``warm_reads`` metric stays within its bound.  Lanes run
seed by seed, in reversed order on every other seed.  Planted traced runs
on the first seeds then must show the slowed layer itself rising by 25%
(``plant.layer_rise``: planted against unplanted traced passes in one
process; median over ``LAYER_RUNS`` runs, within ``LAYER_TOLERANCE``):
``engine.matrix_ms`` on warm_reads, ``templates.build_ms`` on
design_batch.  Any miss exits 1.

``host`` is the host-noise measurement behind the floor rule: a fixed
pure-Python loop runs for ``--seconds`` in each of ``--procs`` fresh
interpreters, and each prints the mean, median and floor of its
iterations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from layers import PLANT_SHARE, PLANTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: target -> (workload that must flag, metric that must pass its bound,
#: workload every metric of which must stay within its bound)
PLANT_EXPECT = {
    "dominance_matrix": ("warm_reads", "op_p50_ms", "design_batch"),
    "template_from_expression": ("design_batch", "ops_per_s", "warm_reads"),
}
#: Planted traced runs per target, and how far the median rise of the
#: slowed layer may sit from PLANT_SHARE.
LAYER_RUNS = 3
LAYER_TOLERANCE = 0.1


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def seeds_of(text: str) -> List[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0, plant: Optional[str] = None) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if plant:
        command += ["--plant", plant]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit {done.returncode}")
    result = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    if not trace:
        summary = next(line for line in lines if " passes x " in line)
        print(f"  {plant or 'no plant'}: {summary.split('; set-ups')[0]}; "
              + ", ".join(f"{k}={v:.5g}" for k, v in metrics.items()), flush=True)
    return metrics


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(metric: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""

    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def cmd_spread(opts) -> int:
    spec = load_spec()
    seconds = opts.seconds or spec["run_seconds"]
    runs = []
    for seed in seeds_of(opts.seeds):
        runs.append(run_once(opts.workload, seed, seconds))
    failed = False
    print(f"{'metric':16s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        share = spread(values)
        flag = ""
        if metric["name"] != "setup_s" and share >= metric["bound"]:
            flag, failed = "  OVER BOUND", True
        elif share >= metric["bound"] / 3:
            flag = "  above bound/3"
        print(f"{metric['name']:16s} {statistics.median(values):12.6g} {share:8.4f} {metric['bound']:6.3f}{flag}")
    return 1 if failed else 0


def cmd_plant(opts) -> int:
    spec = load_spec()
    seconds = opts.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = sorted({w for expect in PLANT_EXPECT.values() for w in (expect[0], expect[2])})
    lanes = [(w, plant) for w in workloads for plant in (None, *PLANT_EXPECT)]
    runs: Dict[tuple, List[dict]] = {lane: [] for lane in lanes}
    # Seed by seed, every lane back to back and the order reversed on every
    # other seed, so host drift hits all lanes alike.
    for index, seed in enumerate(seeds_of(opts.seeds)):
        for workload, plant in lanes if index % 2 == 0 else lanes[::-1]:
            runs[(workload, plant)].append(run_once(workload, seed, seconds, plant=plant))
        print(f"seed {seed} done", flush=True)

    def median(workload, plant, name):
        return statistics.median(run[name] for run in runs[(workload, plant)])

    failed = False
    for target, (flag_workload, flag_metric, quiet_workload) in PLANT_EXPECT.items():
        metric = metrics[flag_metric]
        change = worse_by(
            metric, median(flag_workload, None, flag_metric), median(flag_workload, target, flag_metric)
        )
        ok = change > metric["bound"]
        failed |= not ok
        print(
            f"plant {target}: {flag_workload}/{flag_metric} worse by {change:+.3f} "
            f"(bound {metric['bound']}) -> {'flagged' if ok else 'NOT FLAGGED'}"
        )
        for name, metric in metrics.items():
            change = worse_by(
                metric, median(quiet_workload, None, name), median(quiet_workload, target, name)
            )
            ok = change <= metric["bound"]
            failed |= not ok
            print(
                f"  {quiet_workload}/{name}: worse by {change:+.3f} "
                f"(bound {metric['bound']}) -> {'within' if ok else 'FLAGGED'}"
            )
    seeds = seeds_of(opts.seeds)
    for target, (workload, _metric, _quiet) in PLANT_EXPECT.items():
        layer = f"{PLANTS[target][0]}_ms"
        rises = [
            run_once(workload, seeds[run % len(seeds)], seconds, trace=1, plant=target)["plant.layer_rise"]
            for run in range(LAYER_RUNS)
        ]
        rise = statistics.median(rises)
        ok = abs(rise - PLANT_SHARE) <= LAYER_TOLERANCE
        failed |= not ok
        print(
            f"traced {workload}/{layer} rises by {rise:+.3f} under the {target} plant "
            f"(runs: {', '.join(f'{r:+.3f}' for r in rises)}; want {PLANT_SHARE:+.2f} "
            f"+- {LAYER_TOLERANCE}) -> {'ok' if ok else 'OFF'}"
        )
    return 1 if failed else 0


def cmd_host(opts) -> int:
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); from layers import loop_times; "
        "print(json.dumps(loop_times(float(sys.argv[2]))))"
    )
    for index in range(opts.procs):
        done = subprocess.run(
            [sys.executable, "-c", code, HERE, str(opts.seconds)],
            capture_output=True, text=True, timeout=opts.seconds + 60,
        )
        times = json.loads(done.stdout)
        print(
            f"process {index}: {len(times)} iterations, mean {statistics.mean(times) * 1e3:.3f} ms, "
            f"median {statistics.median(times) * 1e3:.3f} ms, floor {min(times) * 1e3:.3f} ms",
            flush=True,
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    one = sub.add_parser("spread")
    one.add_argument("--workload", required=True)
    one.add_argument("--seeds", default="1-10")
    one.add_argument("--seconds", type=int)
    two = sub.add_parser("plant")
    two.add_argument("--seeds", default="11-15")
    two.add_argument("--seconds", type=int)
    three = sub.add_parser("host")
    three.add_argument("--procs", type=int, default=10)
    three.add_argument("--seconds", type=float, default=6)
    opts = parser.parse_args(argv)
    return {"spread": cmd_spread, "plant": cmd_plant, "host": cmd_host}[opts.command](opts)


if __name__ == "__main__":
    sys.exit(main())
