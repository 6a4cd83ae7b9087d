#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics; see perfbench/README.md.

    python3 perfbench/run.py --workload exact-ratio --seed 1 --seconds 20 --trace 0

Untraced (``--trace 0``) prints the end-to-end metrics, traced (``--trace 1``)
the per-layer ones. Each prints one line per metric with its unit, the
environment, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Every item's output is checked;
``failed`` counts items that raised or failed their check. Exit code 0 means
a result was printed; anything else means no result could be produced.

Every measurement runs in a fresh process with BLAS and OpenMP pinned to one
thread. Untraced, set-up is timed in ``SETUP_PROBES`` more processes that
only set up, and ``setup_s`` is the median of all of them. Times are scaled to
a reference machine speed (see ``worker.py``), hence units such as ``cal_s``;
the unscaled ones are printed as well.
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
ROOT = HERE.parent
WORKLOADS = ("audit-battery", "exact-ratio", "mc-ratio", "learn-certify")
SETUP_PROBES = 4
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, extra, env, deadline) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *extra, "--launched-at", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker did not finish before the deadline: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def end_to_end(main: dict, runs: list[dict]) -> tuple[dict, dict]:
    """Scaled end-to-end metrics, and the same numbers unscaled."""

    def times(batch_scale, item_scale):
        batches = [b * s for b, s in zip(main["batch_s"], batch_scale)]
        items = [t * s * 1e3 for t, s in zip(main["item_s"], item_scale)]
        return {
            "wall_s": statistics.fmean(batches),
            "item_ms.p50": statistics.median(items),
            "item_ms.p90": statistics.quantiles(items, n=10)[8],
        }

    metrics = {"setup_s": {"value": statistics.median(r["setup_s"] * r["scale"] for r in runs), "unit": "s"}}
    metrics.update({name: {"value": v, "unit": "cal_s" if name == "wall_s" else "cal_ms"}
                    for name, v in times(main["batch_scale"], main["item_scale"]).items()})
    metrics["peak_rss_mb"] = {"value": main["peak_rss_mb"], "unit": "MB"}
    ones = [1.0] * len(main["item_s"])
    raw = times(ones, ones)
    raw["setup_s"] = statistics.median(r["setup_s"] for r in runs)
    return metrics, raw


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "markov_paging" / "__init__.py").is_file():
        print(f"no markov_paging sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    try:
        probes = [] if args.trace else [run_worker(args, ["--setup-only"], env, deadline) for _ in range(SETUP_PROBES)]
        main_run = run_worker(args, [], env, deadline)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    runs = probes + [main_run]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        metrics = dict(main_run["layers"])
        metrics["trace.overhead_frac"] = {"value": main_run["overhead_frac"], "unit": "ratio"}
    else:
        metrics, raw = end_to_end(main_run, runs)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print("unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    print(f"scale = {main_run['scale']:.4f} (calibrate() took {1e3 * statistics.fmean(main_run['calib_s']):.3f} ms on average)")
    n_items = len(main_run["item_s"])
    print(f"items timed = {n_items} in {len(main_run['batch_s'])} batches of up to {main_run['batch_items']}"
          + ("" if args.trace else f"; setup_s is the median of {len(runs)} set-ups"))
    print(f"failed/attempted = {failed}/{attempted}")
    for error in [e for r in runs for e in r["errors"]]:
        print(f"failure: {error}")
    print("env = " + json.dumps(main_run["env"]))
    if args.trace:
        print(f"spans written to {main_run['spans_file']}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "items": n_items, "attempted": attempted, "failed": failed, "metrics": metrics, "env": main_run["env"],
              "samples": {k: main_run.get(k) for k in ("scale", "calib_s", "batch_s", "batch_scale", "item_s", "item_scale")},
              "setups": [{"setup_s": r["setup_s"], "scale": r["scale"]} for r in runs]}
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
