"""One benchmark process: set a workload up, run its timed phase, print JSON.

Started by run.py with PYTHONPATH=src, never by hand.  Once import and
set-up are finished it prints "SETUP_DONE" and a JSON object on one line
(run.py times set-up up to that line), then one JSON line with the
latencies of the timed operations.  Answers are checked after the timed
phase, so checks neither count in the timings nor show in the traced counts.

Untraced runs sample the machine's speed from the first statement on
(speed.py): the set-up line carries the mean speed during set-up and the
seconds the sampling took, and each latency comes raw, with the sampling
taken out, and in reference seconds.  Runs with a fixed --ops (the traced
run and its twin) do not sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback

from speed import SpeedSampler


def _digest(inputs) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)    # run.py checks the name
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--ops", type=int, help="run exactly this many operations")
    ap.add_argument("--spans", help="trace, and write the spans to this file")
    args = ap.parse_args()
    # sampling starts before the heavy imports, which set-up counts; runs
    # with --ops do not sample, so the handler's time never lands in a span
    sampler = SpeedSampler() if args.ops is None else None
    if sampler is not None:
        sampler.start()
    import numpy as np
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    inputs = wl.inputs(args.seed, args.tiny)
    state = wl.prepare(inputs)
    setup = ({"speed": sampler.recent_speed(None), "spent_s": sampler.spent}
             if sampler is not None else {})
    print("SETUP_DONE", json.dumps(setup), flush=True)
    if args.setup_only:
        if sampler is not None:
            sampler.stop()
        return 0

    clock = time.perf_counter
    spans, latencies, results = [], [], []
    busy = 0.0
    i = 0
    while True:
        spent = sampler.spent if sampler is not None else 0.0
        t = clock()
        try:
            results.append((wl.op(state, i), None))
        except Exception:
            results.append((None, traceback.format_exc()))
        end = clock()
        dt = end - t - ((sampler.spent - spent) if sampler is not None else 0.0)
        spans.append((t, end))
        latencies.append(dt)
        busy += dt * (sampler.recent_speed() if sampler is not None else 1.0)
        i += 1
        if args.ops is not None:
            if i >= args.ops:
                break
        elif wl.fixed or busy >= args.seconds:
            break
    ref_latencies = None
    if sampler is not None:
        sampler.stop()
        ref_latencies = [dt * sampler.mean_speed(a, b)
                         for (a, b), dt in zip(spans, latencies)]

    per_layer = None
    if tracer is not None:
        tracer.uninstall()
        per_layer = tracer.metrics()
        tracer.write_spans(args.spans)

    failed, errors = 0, []
    for j, (result, err) in enumerate(results):
        if err is None:
            try:
                err = wl.check(state, j, result)
            except Exception:
                err = traceback.format_exc()
        if err is not None:
            failed += 1
            errors.append(f"op {j}: {err}")
    for e in errors[:5]:
        print(f"{wl.name}: failed {e}", file=sys.stderr)

    print(json.dumps({
        "latencies": latencies, "ref_latencies": ref_latencies,
        "speed_samples": len(sampler.speeds) if sampler is not None else 0,
        "failed": failed, "inputs_digest": _digest(inputs),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
