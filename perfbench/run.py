"""Benchmark of oalg's two searches: one command, three workloads.

    python3 perfbench/run.py [--workload dominion|prove|separate] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in its own process (worker.py) with PYTHONHASHSEED
fixed.  Set-up is measured in that process and in SETUP_PROBES more that
stop after set-up, half before it and half after; the median is
reported.  For each workload the last line printed is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
gives the reference kernel's mean and spread.  Without --workload all
three run in turn.  The exit code is 1, with no result printed, if a
process fails or runs past DEADLINE_S.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("dominion", "prove", "separate")
SETUP_PROBES = 6
DEADLINE_S = 170


def worker(args: list[str], deadline: float) -> dict:
    """Start worker.py, wait for it, and return its last output line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args,
                           "--spawned-at", repr(spawned)],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        return worker(common + ["--trace", "1"], deadline)
    # Set-up probes before and after the measured process, so that the
    # median does not rest on one phase of a machine whose speed drifts.
    probe = common + ["--setup-only"]
    setups = [worker(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    result = worker(common + ["--trace", "0"], deadline)
    setups.append(result["metrics"]["setup_s"]["value"])
    setups += [worker(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    for name in [args.workload] if args.workload else WORKLOADS:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  time.monotonic() + DEADLINE_S)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        for key, m in result["metrics"].items():
            print(f"{name} {key} = {m['value']:.6g} {m['unit']}")
        kernel = result["reference_kernel"]
        print(f"{name} reference_kernel mean_ms={kernel['mean_ms']:.4g} "
              f"spread={kernel['spread']:.3g} samples={kernel['samples']} "
              f"rounds={result['rounds']} search={json.dumps(result['search'])}")
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
