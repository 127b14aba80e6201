"""The sgp-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every process that does the work is a
fresh single-threaded child (perfbench/child.py, BLAS and OpenMP pinned to
one thread) driven in a closed loop by this one caller; its peak RSS comes
from os.wait4 on the child.  The last line of stdout is one JSON object:

  --trace 0: the end-to-end metrics of BENCHMARK.json, each a median over
             the run's samples (set-up: several fresh processes; timed
             phase: every operation), times in reference seconds: scaled
             by the machine speed sampled inside the child (speed.py);
  --trace 1: the per-layer metrics, from one traced child that runs a fixed
             number of operations (so its counts repeat exactly for a seed),
             plus trace.overhead_s: its timed phase minus that of an
             untraced child doing the same operations at the same time.

scan-q4 and subgroups-q4-cold do their one operation once per run;
--seconds sets the length of the timed loop of the other workloads, in
reference seconds.

The line before it is a JSON object with the sample counts, the raw
(unscaled) times, the run's mean speed, the tail percentile, the error
rate, the digest of the generated inputs, and the machine and software.
`--tiny` runs the small self-test sizes.
HELD_OUT_SEED is kept out of tuning, for checking claims later.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scan-q4", "subgroups-q4-cold", "sgp-queries", "alpha-sweep")
# operations of a traced run: fixed, so that its counts repeat for a seed
TRACE_OPS = {"scan-q4": 1, "subgroups-q4-cold": 1, "sgp-queries": 8, "alpha-sweep": 30}
HELD_OUT_SEED = 917_263
SETUPS = 9             # fresh processes whose set-up time gives setup_s (odd)
DEADLINE_S = 170.0     # all children of one run must end by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _spawn(args, deadline: float, extra=()) -> dict:
    """Run one child; returns its set-up seconds (raw and, when it sampled
    the machine's speed, in reference seconds), its JSON result and peak RSS."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *(["--tiny"] if args.tiny else []), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    tag, _, setup = first.partition(" ")
    if proc.returncode != 0 or tag != "SETUP_DONE":
        raise ChildError(f"child {' '.join(extra) or 'run'} exited with {proc.returncode}")
    setup = json.loads(setup)
    lines = rest.strip().splitlines()
    return {"setup_s": setup_s,
            "ref_setup_s": ((setup_s - setup["spent_s"]) * setup["speed"]
                            if setup else None),
            "result": json.loads(lines[-1]) if lines else None,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with >= 10 samples beyond it,
    by nearest rank; the maximum when there are too few samples for that."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _end_to_end(args, deadline: float):
    def setup_only():
        return _spawn(args, deadline, ["--setup-only"])
    # set-up samples before and after the timed run, so that they see more
    # than one state of a machine whose speed drifts
    setups = [setup_only() for _ in range(SETUPS // 2)]
    run = _spawn(args, deadline)
    setups += [run] + [setup_only() for _ in range(SETUPS // 2)]
    res = run["result"]
    latencies, failed = res["ref_latencies"], res["failed"]
    wall = sum(latencies)
    tail, pct = _tail(latencies)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(s["ref_setup_s"] for s in setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
    }
    raw_wall = sum(res["latencies"])
    info = {"samples": {"ops": len(latencies), "setups": len(setups),
                        "speed": res["speed_samples"]},
            "raw": {"wall_s": raw_wall, "ops_per_s": len(latencies) / raw_wall,
                    "op_p50_ms": statistics.median(res["latencies"]) * 1e3,
                    "op_tail_ms": _tail(res["latencies"])[0] * 1e3,
                    "setup_s": statistics.median(s["setup_s"] for s in setups)},
            "mean_speed": wall / raw_wall,
            "op_tail_percentile": round(pct, 3),
            "error_rate": failed / len(latencies),
            "inputs_digest": res["inputs_digest"],
            "python": res["python"], "numpy": res["numpy"]}
    return metrics, len(latencies), failed, info


def _per_layer(args, deadline: float):
    ops = ["--ops", str(TRACE_OPS[args.workload])]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")
    # the untraced twin runs beside the traced child, so both see the same
    # machine load and their difference is the tracing overhead
    with ThreadPoolExecutor(1) as pool:
        twin = pool.submit(_spawn, args, deadline, ops)
        traced = _spawn(args, deadline, ops + ["--spans", spans])["result"]
        plain = twin.result()["result"]
    metrics = {k: tuple(v) for k, v in traced["per_layer"].items()}
    overhead = sum(traced["latencies"]) - sum(plain["latencies"])
    metrics["trace.overhead_s"] = (overhead, "s")
    n = len(traced["latencies"]) + len(plain["latencies"])
    info = {"samples": {"ops": len(traced["latencies"]), "processes": 2},
            "untraced_wall_s": sum(plain["latencies"]),
            "traced_wall_s": sum(traced["latencies"]),
            "spans_file": os.path.relpath(spans),
            "error_rate": (traced["failed"] + plain["failed"]) / n,
            "inputs_digest": traced["inputs_digest"],
            "python": traced["python"], "numpy": traced["numpy"]}
    return metrics, n, traced["failed"] + plain["failed"], info


def _machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isfile(".git/HEAD"):
        head = open(".git/HEAD").read().strip()
        ref = os.path.join(".git", head[5:]) if head.startswith("ref: ") else None
        commit = open(ref).read().strip() if ref and os.path.isfile(ref) else head
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "ram_gb": round(ram / 2**30, 2), "commit": commit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sgplab", "__init__.py")):
        print("run.py: no src/sgplab here; run it from the root of an sgp-lab checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        run = _per_layer if args.trace else _end_to_end
        metrics, attempted, failed, info = run(args, deadline)
    except ChildError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    info.update({"workload": args.workload, "seed": args.seed,
                 "held_out_seed": HELD_OUT_SEED, "machine": _machine()})
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
