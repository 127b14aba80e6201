"""Self-test of the benchmark: a tiny-size pass of every workload.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For each workload it checks that an
untraced run prints exactly the end-to-end metrics of BENCHMARK.json and a
traced run exactly the per-layer ones, with units, with no failed operation;
that two traced runs of one seed give identical counts; and that run.py
fails without printing a result where there is no sgp-lab source tree.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

COUNT_UNITS = ("count", "B")


def _run(*extra, cwd="."):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "1",
           "--seconds", "1", "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(out)}")
    if out["failed"] != 0 or not out["correct"] or out["attempted"] < 1:
        raise AssertionError(f"failed {out['failed']} of {out['attempted']}")
    return out


def _units(out) -> dict:
    return {k: v["unit"] for k, v in out["metrics"].items()}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for wl in WORKLOADS:
        try:
            e2e = _result(_run("--workload", wl, "--trace", "0"))
            if _units(e2e) != want_e2e:
                raise AssertionError(f"end-to-end metrics {_units(e2e)}")
            traced = [_result(_run("--workload", wl, "--trace", "1")) for _ in range(2)]
            if _units(traced[0]) != want_layer:
                raise AssertionError(f"per-layer metrics {sorted(_units(traced[0]))}")
            counts = [{k: v["value"] for k, v in t["metrics"].items()
                       if v["unit"] in COUNT_UNITS} for t in traced]
            if counts[0] != counts[1]:
                diff = {k for k in counts[0] if counts[0][k] != counts[1][k]}
                raise AssertionError(f"counts differ between traced runs: {sorted(diff)}")
            print(f"ok    {wl}")
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            problems.append(wl)
            print(f"FAIL  {wl}: {exc}")

    bare = os.path.join(HERE, "out", "bare")           # BENCHMARK.json + perfbench only
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = _run("--workload", WORKLOADS[0], "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("bare")
        print("FAIL  run.py succeeded or printed a result without a source tree")
    else:
        print("ok    run.py fails without a source tree")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
