"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload design_batch --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
scaled to a reference host speed; ``--trace 1`` runs the traced twin in a
child process (``ENGINE_PROFILE`` on) and prints the per-layer metrics
instead.  Every run works under ``PYTHONHASHSEED`` equal to ``--seed`` and
on one CPU.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every answer matched its oracle
and, traced, every coverage and cold-op check passed.  ``--plant NAME``
slows one function by 25% from the benchmark side (see ``check.py
plant``); traced, it also reports ``plant.layer_rise``, the slowed layer's
rise over traced passes run without the plant in the same process.
README.md explains the method.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time starts before repro is imported

import argparse
import asyncio
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from typing import Callable, Dict, List, Optional, Tuple

from layers import (
    EDIT_KINDS,
    PLANTS,
    GcClock,
    Hooks,
    Tracer,
    calibrate,
    floor_seconds,
    loop_times,
    plant,
    restore,
    trace_metrics,
    write_spans,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("design_batch", "warm_reads", "edit_stream")
MIN_PASSES = 3
SETUP_PROBES = 4
TRACE_PASSES = 3  # traced passes, each twinned with an untraced one
#: Host speed: the reference op's floor, in ms, that every timing metric is
#: scaled to (README.md, "Host speed").  Its value only sets the scale.
REFERENCE_MS = 2.0
SETUP_SAMPLES = 40  # fixed-loop iterations right after every set-up


def tail_rank(count: int) -> Tuple[int, int]:
    """The highest whole percentile with at least ten ops beyond it.

    Returns ``(percentile, rank)``: the nearest-rank position (1-based)
    of that percentile among ``count`` sorted values.
    """

    percentile = max(50, math.floor(100 * (count - 10) / count))
    return percentile, max(1, math.ceil(percentile * count / 100))


def summarise(floors: List[float]) -> Dict[str, float]:
    ordered = sorted(floors)
    _, rank = tail_rank(len(ordered))
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[rank - 1] * 1e3,
    }


def floors_of(samples: List[List[float]]) -> List[float]:
    """Each op's floor: its lowest latency over the passes."""

    return [min(column) for column in zip(*samples)]


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def _harness_path() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)


def _child(args: List[str], timeout: float = 150) -> dict:
    """Run this script in a fresh interpreter; return its last JSON line."""

    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + args,
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"child {args} exited {done.returncode}")
    return json.loads(lines[-1])


def _plant_args(plant: Optional[str]) -> List[str]:
    return ["--plant", plant] if plant else []


async def _measure(workload, seconds: float, probe: Callable[[], Tuple[float, float]]):
    """Timed passes for ``seconds``, with the set-up probes spread among them.

    Host speed drifts over tens of seconds, so the fresh-interpreter set-up
    repetitions are spaced across the measuring window rather than run
    back to back.  Returns ``(samples, setups, reference)``: per pass the
    op latencies and the reference ops' times, and the probes' ``(set-up
    seconds, loop median seconds)``.
    """

    samples: List[List[float]] = []
    reference: List[List[float]] = []
    setups: List[Tuple[float, float]] = []
    started = time.perf_counter()
    while (
        len(samples) < MIN_PASSES
        or len(setups) < SETUP_PROBES
        or time.perf_counter() - started < seconds
    ):
        due = started + len(setups) * seconds / SETUP_PROBES
        if len(setups) < SETUP_PROBES and time.perf_counter() >= due:
            setups.append(probe())
            continue
        gc.collect()
        reference.append([])
        samples.append(await workload.run_pass(reference=reference[-1]))
    return samples, setups, reference


# ------------------------------------------------------------- untraced run
async def run_untraced(opts) -> int:
    import workloads

    if opts.plant:
        plant(opts.plant)
    workload = workloads.make(opts.workload, opts.seed, WORKDIR)
    try:
        await workload.setup()
        setup = (time.perf_counter() - _T0, statistics.median(loop_times(iterations=SETUP_SAMPLES)))
        if opts.setup_probe:
            print(json.dumps({"setup_s": setup[0], "host_s": setup[1]}))
            return 0
        probe = ["--workload", opts.workload, "--seed", str(opts.seed), "--setup-probe"]
        probe += _plant_args(opts.plant)

        def run_probe() -> Tuple[float, float]:
            result = _child(probe)
            return result["setup_s"], result["host_s"]

        samples, setups, reference = await _measure(workload, opts.seconds, run_probe)
        setups.insert(0, setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        await workload.close()
        errors, failed = workload.verify()
    finally:
        workload.cleanup()
    # Host speed: scale op floors by the reference ops' floors (median over
    # their slots), each set-up by the loop's median right after it.
    host_ms = statistics.median(floors_of(reference)) * 1e3
    scale = REFERENCE_MS / host_ms
    floors = [floor * scale for floor in floors_of(samples)]
    setup_s = statistics.median(s * REFERENCE_MS / (h * 1e3) for s, h in setups)
    edits = [f for f, kind in zip(floors, workload.kinds) if kind in EDIT_KINDS]
    ops = summarise(floors)
    # A workload with no edits reports its op floors under the edit names
    # too, so every workload prints the same metric set.
    edit = summarise(edits) if edits else ops
    attempted = workload.attempted
    for message in errors[:20]:
        print(f"MISMATCH {message}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_per_s": (len(floors) / sum(floors), "1/s"),
        "op_p50_ms": (ops["p50_ms"], "ms"),
        "op_tail_ms": (ops["tail_ms"], "ms"),
        "edit_p50_ms": (edit["p50_ms"], "ms"),
        "edit_tail_ms": (edit["tail_ms"], "ms"),
        "ok_rate": (1.0 - failed / attempted, "fraction"),
    }
    percentile, _ = tail_rank(len(floors))
    print(
        f"{opts.workload} seed {opts.seed}: {len(samples)} passes x {len(floors)} ops, "
        f"op tail p{percentile}; reference op {host_ms:.3f} ms, op times x {scale:.3f}; "
        f"set-ups {', '.join(f'{s:.3f} s (loop {h * 1e3:.3f} ms)' for s, h in setups)}"
    )
    emit(not errors, attempted, failed, metrics)
    return 0 if not errors else 1


# --------------------------------------------------------------- traced run
def run_traced(opts) -> int:
    """Run the traced twin in its own interpreter and relay its metrics."""

    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--trace-child"]
    result = _child(args + _plant_args(opts.plant), timeout=170)
    for problem in result["problems"]:
        print(f"CHECK {problem}")
    metrics = {name: tuple(pair) for name, pair in result["metrics"].items()}
    ok = result["correct"] and not result["problems"]
    emit(ok, result["attempted"], result["failed"], metrics)
    return 0 if ok else 1


async def trace_child(opts) -> None:
    started = time.perf_counter()
    import repro  # noqa: F401  (timed: runtime.import_ms)

    import_ms = (time.perf_counter() - started) * 1e3
    import workloads
    from repro.obs.profile import ENGINE_PROFILE

    planted = plant(opts.plant) if opts.plant else []
    calib = calibrate()
    tracer = Tracer()
    gc_clock = GcClock()
    hooks = Hooks(tracer, gc_clock)
    workload = workloads.make(opts.workload, opts.seed, WORKDIR)
    ENGINE_PROFILE.reset()
    ENGINE_PROFILE.enable()
    tracer.install()
    try:
        # The warm-up pass inside set-up runs with the hooks: the cold-op
        # check compares every traced pass with it.
        await workload.setup(hooks)
        plain, traced = [], []

        async def unplanted_pass() -> None:
            # The same traced pass with the plant lifted, beside a planted
            # one, so the slowed layer's rise is measured in one process.
            tracer.uninstall()
            restore(planted)
            tracer.install()
            tracer.phase = "unplanted"
            gc.collect()
            await workload.run_pass(hooks)
            tracer.uninstall()
            planted[:] = plant(opts.plant)
            tracer.install()

        for index in range(TRACE_PASSES):
            # Interleaved twins: an untraced pass, then a traced one.
            tracer.uninstall()
            ENGINE_PROFILE.disable()
            tracer.phase = "off"
            gc.collect()
            plain.append(await workload.run_pass())
            ENGINE_PROFILE.enable()
            tracer.install()
            tracer.pass_no = index
            if planted and index % 2:
                await unplanted_pass()
            tracer.phase = "ops"
            gc.collect()
            traced.append(await workload.run_pass(hooks))
            if planted and not index % 2:
                await unplanted_pass()
        tracer.uninstall()
        ENGINE_PROFILE.disable()
        decided = ENGINE_PROFILE.snapshot()["catalog_pairs_decided"]
        await workload.close()
        errors, failed = workload.verify()
    finally:
        workload.cleanup()
        gc_clock.close()
    metrics, problems = trace_metrics(
        opts.workload, workload, hooks, plain, traced, import_ms, calib, decided
    )
    if planted:
        layer = PLANTS[opts.plant][0]
        slowed, unslowed = (
            floor_seconds(tracer.spans, phase, TRACE_PASSES)[layer] for phase in ("ops", "unplanted")
        )
        metrics["plant.layer_rise"] = [slowed / unslowed - 1, "ratio"]
    os.makedirs(WORKDIR, exist_ok=True)
    spans_path = os.path.join(WORKDIR, f"spans-{opts.workload}-{opts.seed}.jsonl.gz")
    write_spans(spans_path, tracer.spans)
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": workload.attempted,
                "failed": failed,
                "problems": problems + [f"mismatch: {e}" for e in errors[:20]],
                "metrics": metrics,
            }
        )
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", choices=sorted(PLANTS))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its child processes on one CPU.

    Every service request is handed from the event loop to the worker
    thread and back.  On a VM whose vCPUs the host runs and stops one by
    one, a hand-off to a thread on another vCPU waits until that vCPU
    runs again; on one CPU it is a plain switch.  The fixed loop then also
    runs on the CPU the ops run on.  With one client and the GIL, a run
    never uses more than one CPU at a time anyway.
    """

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def pin_hash_seed(seed: int, argv: List[str]) -> None:
    """Run this script under the ``PYTHONHASHSEED`` named by ``--seed``.

    String hashes set the iteration order of the program's name-keyed sets
    and dicts, and with it the order of its searches; under a random hash
    seed per process the same input costs a few percent more or less from
    run to run.  Taken from the run seed, the hash seed is part of the
    input: a seed repeats its work exactly, another seed draws another
    order.  Replaces this process (same pid) when the variable differs.
    """

    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv, env)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    opts = parse_args(argv)
    _harness_path()
    pin_hash_seed(opts.seed, argv)
    pin_to_one_cpu()
    if opts.trace_child:
        asyncio.run(trace_child(opts))
        return 0
    if opts.trace:
        return run_traced(opts)
    return asyncio.run(run_untraced(opts))


if __name__ == "__main__":
    sys.exit(main())
