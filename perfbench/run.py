#!/usr/bin/env python3
"""The repository benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 40 --trace 0

Builds the library and the benchmark programs from source into
.bench_build/perfbench (Release), runs the workload for --seconds in its own
process, checks every scenario run, and prints as the last line of stdout

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
A human-readable summary, with the delta against perfbench/baseline.json,
goes to stderr. perfbench/README.md documents workloads and metrics.

    python3 perfbench/run.py --pin   # regenerate perfbench/pins/paper_grid.txt
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
PINS = HERE / "pins" / "paper_grid.txt"
BASELINE = HERE / "baseline.json"

WORKLOADS = ("paper-grid", "city-lossy", "churn-lifetime")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "net.topology_build_s": "s",
    "net.graph_build_s": "s",
    "net.graph_allocs": "count",
    "net.convergecast_build_s": "s",
    "net.routing_table_build_s": "s",
    "net.dynamic_rebuild_s": "s",
    "net.route_rebuilds": "count",
    "phy.link_model_build_s": "s",
    "phy.partition_channels_build_s": "s",
    "phy.frames": "count",
    "phy.rx_starts": "count",
    "sim.kernel_ns_per_event": "ns",
    "sim.window_us": "us",
    "sim.events": "count",
    "sim.shard_imbalance": "ratio",
    "sim.boundary_frames": "count",
    "mac.tx_attempts": "count",
    "mac.tx_fail_ratio": "ratio",
    "core.wakeups": "count",
    "core.sessions": "count",
    "core.handshake_fail_ratio": "ratio",
    "energy.battery_deaths": "count",
    "app.setup_allocs_per_node": "count",
    "app.rss_bytes_per_node": "bytes",
    "app.sizeof_dual_radio_node": "bytes",
    "mac.sizeof_csma_mac": "bytes",
    "core.sizeof_bcp_agent": "bytes",
    "phy.sizeof_radio": "bytes",
    "energy.sizeof_energy_meter": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# Each run must end within 180 s; the first run's build is exempt.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def command(argv, timeout):
    """Runs argv to completion (killed and reaped on timeout or error)."""
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{Path(argv[0]).name} exceeded {timeout:.0f} s") from e


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no library sources at {ROOT} (need CMakeLists.txt and src/)")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(nproc()),
                  "--target", "perfbench_harness", "perfbench_alloc_probe"])
    for argv in steps:
        done = command(argv, timeout=880)
        if done.returncode != 0:
            log(done.stdout[-4000:] + done.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(argv))


def program(name, args, timeout):
    done = command([str(BUILD / name)] + args, timeout)
    if done.returncode != 0:
        log(done.stderr[-4000:])
        raise BenchError(f"{name} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{name} printed no result")
    return json.loads(lines[-1])


def end_to_end(raw):
    wall = raw["wall_s"]
    setup = raw["setup_s"]
    # Dispatch rate of each (full, setup) pair, which run back to back, so
    # host slowdowns that hit both cancel in the difference.
    rates = [raw["events"] / (w - s) for w, s in zip(wall, setup) if w > s]
    if not rates:
        raise BenchError("no iteration with wall_s > setup_s")
    return {
        "wall_s": statistics.median(wall),
        "setup_s": statistics.median(setup),
        "events_per_s": statistics.median(rates),
        "peak_rss_mib": raw["peak_rss_mib"],
    }


def per_layer(raw, probe):
    values = dict(raw["counts"])
    values.update(raw["layers"])
    values.update(probe)
    missing = sorted(set(PER_LAYER) - set(values))
    if missing:
        raise BenchError("per-layer metrics missing: " + ", ".join(missing))
    return {name: values[name] for name in PER_LAYER}


def summarize(workload, raw, metrics, units):
    log(f"[{workload}] seed {raw['seed']:.0f}: {raw['attempted']} scenario runs, "
        f"{raw['failed']} failed (failed_ratio {raw['failed'] / raw['attempted']:.3g}); "
        f"{raw['shards']} shard(s), sim_threads {raw['sim_threads']}; "
        f"{raw['events']:.0f} events and {raw['delivered']:.0f} delivered per set")
    for err in raw["errors"]:
        log(f"[{workload}] CHECK FAILED: {err}")
    baseline = {}
    if BASELINE.is_file():
        baseline = json.loads(BASELINE.read_text()).get("workloads", {}).get(workload, {})
    for name, value in metrics.items():
        line = f"  {name:34s} {value:16.6g} {units[name]}"
        ref = baseline.get(name)
        if ref and ref.get("median"):
            delta = (value - ref["median"]) / ref["median"]
            line += (f"   baseline {ref['median']:.6g} "
                     f"[q1 {ref['q1']:.6g}, q3 {ref['q3']:.6g}, n {ref['n']}]"
                     f"  delta {delta:+.1%}")
        log(line)


def run(args):
    if args.seed < 0 or args.seconds <= 0 or args.trace not in (0, 1):
        raise BenchError("need --seed >= 0, --seconds > 0 and --trace 0|1")
    build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    timed = common + ["--seconds", str(args.seconds), "--nproc", str(nproc()),
                      "--pins", str(PINS)]
    if args.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        trace_file = TRACES / f"{args.workload}-seed{args.seed}.jsonl"
        raw = program("perfbench_harness", timed + ["--trace-out", str(trace_file)],
                      RUN_BUDGET_S - 30)
        probe = program("perfbench_alloc_probe", common, 30)
        metrics = per_layer(raw, probe)
        units = PER_LAYER
        log(f"[{args.workload}] spans written to {trace_file}")
    else:
        raw = program("perfbench_harness", timed, RUN_BUDGET_S)
        metrics = end_to_end(raw)
        units = END_TO_END
    summarize(args.workload, raw, metrics, units)
    return {
        "correct": raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--pin", action="store_true",
                        help="regenerate the paper-grid pins and exit")
    args = parser.parse_args()
    try:
        if args.pin:
            build()
            done = command([str(BUILD / "perfbench_harness"), "--pin-out", str(PINS)],
                           timeout=900)
            if done.returncode != 0:
                raise BenchError(done.stderr.strip() or "pinning failed")
            log(f"wrote {PINS}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
