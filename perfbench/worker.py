"""One benchmark process: set up one workload, time it, check every item.

``run.py`` starts this once per run (and a few times more with
``--setup-only`` to time set-up). It prints one JSON object on its last line
of standard output with the raw measurements; ``run.py`` turns them into
metrics.

Untraced, every batch of ``BATCH`` items is timed as a whole (``wall_s``)
and item by item. Traced, each batch runs twice: untraced, then with the
tracer's wrappers installed, so that the ratio of the two gives the tracing
overhead and the per-layer numbers come only from the traced pass. Batches
continue until the next one would end after ``--seconds`` or the workload's
pool is used up; an untraced run goes on past ``--seconds`` until it has
timed ``MIN_ITEMS`` items.

Times are scaled to a reference machine speed. The host this benchmark was
built on is shared, and its speed drifts by tens of percent over seconds to
minutes; that drift moves every time alike. So a fixed routine,
:func:`calibrate`, is timed ``CALIB_PER_BATCH`` times before every batch (and
``CALIB_SETUP`` times after set-up), and each time is multiplied by
``scale = CALIB_REF_S / mean(calibration time)``: a time reads what it would
on a machine where ``calibrate`` takes ``CALIB_REF_S``. A batch's times use
the calibrations just before it, since the speed also drifts within a run;
set-up uses its own, and the traced per-layer times the mean over the run. ``calibrate`` never
changes, so a change to the library moves the scaled times as it moves the
raw ones; the raw times and the scale are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

MAX_ERRORS = 10
MIN_ITEMS = 100  # untraced runs time at least this many items, so p90 has 10 beyond it
CALIB_REF_S = 0.004
CALIB_PER_BATCH = 10
CALIB_SETUP = 10


def calibrate() -> float:
    """Time a fixed mix of small numpy calls and dict updates, like the
    library's inner loops but independent of it. Returns seconds."""
    start = time.perf_counter()
    m = np.random.default_rng(0).random((8, 8))
    m /= m.sum(axis=1, keepdims=True)
    v = np.full(8, 1 / 8)
    counts = {}
    for t in range(400):
        v = v @ m
        j = int(np.searchsorted(np.cumsum(v), (t % 10) / 10, side="right"))
        counts[j] = counts.get(j, 0) + 1
        for p in range(8):
            if p != j and (p + t) % 3 == 0:
                counts[p] = counts.get(p, 0) - 1
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--launched-at", type=float, required=True, help="time.monotonic() when run.py started this process")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    with open(HERE / "refs" / f"{wl.name}.json") as fh:
        refs = json.load(fh)["refs"]
    if len(refs) != wl.POOL:
        raise SystemExit(f"{wl.name}: reference file has {len(refs)} entries, pool has {wl.POOL}")

    order = wl.order(args.seed)
    warm = order.pop()
    inputs = [(i, wl.make_input(i)) for i in order]
    counts = {"attempted": 0, "failed": 0, "errors": []}

    def run_batch(batch):
        """Run items back to back, then check them. Returns (batch seconds, item seconds)."""
        outs, item_s = [], []
        t0 = time.perf_counter()
        for _, inp in batch:
            start = time.perf_counter()
            try:
                outs.append((wl.run(inp), None))
            except Exception as exc:  # a raising item is a failed item; keep measuring
                outs.append((None, f"raised {type(exc).__name__}: {exc}"))
            item_s.append(time.perf_counter() - start)
        batch_s = time.perf_counter() - t0
        for (i, inp), (out, error) in zip(batch, outs):
            try:
                problems = [error] if error else wl.check(inp, out, refs[i])
            except Exception as exc:  # a check that raises fails its item too
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            counts["attempted"] += 1
            if problems:
                counts["failed"] += 1
                if len(counts["errors"]) < MAX_ERRORS:
                    counts["errors"].append(f"item {i}: {problems[0]}")
        return batch_s, item_s

    run_batch([(warm, wl.make_input(warm))])
    result = {"setup_s": time.monotonic() - args.launched_at}
    if args.setup_only:
        calib_s = [calibrate() for _ in range(CALIB_SETUP)]
        result.update(calib_s=calib_s, scale=CALIB_REF_S / statistics.fmean(calib_s))
    else:
        result.update(measure(wl, inputs, run_batch, args))
    result.update(counts)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def measure(wl, inputs, run_batch, args) -> dict:
    tracer = tracer_mod.Tracer() if args.trace else None
    min_items = 0 if args.trace else MIN_ITEMS
    item_s, batch_s, batch_n, batch_scale, traced_s, round_s, calib_s = [], [], [], [], [], [], []
    started = time.perf_counter()
    pos = 0
    while pos < len(inputs):
        t_round = time.perf_counter()
        calib = [calibrate() for _ in range(CALIB_PER_BATCH)]
        calib_s += calib
        batch_scale.append(CALIB_REF_S / statistics.fmean(calib))
        batch = inputs[pos : pos + wl.BATCH]
        pos += len(batch)
        wall, items = run_batch(batch)
        batch_s.append(wall)
        batch_n.append(len(batch))
        item_s += items
        if tracer is not None:
            tracer.install()
            try:
                traced_s.append(run_batch(batch)[0])
            finally:
                tracer.uninstall()
        round_s.append(time.perf_counter() - t_round)
        if len(item_s) >= min_items and time.perf_counter() - started + statistics.median(round_s) > args.seconds:
            break
    if len(item_s) < min_items:
        raise SystemExit(f"{wl.name}: only {len(item_s)} items timed, fewer than {min_items}")
    full = [b for b, n in enumerate(batch_n) if n == wl.BATCH] or list(range(len(batch_n)))
    scale = CALIB_REF_S / statistics.fmean(calib_s)
    out = {"item_s": item_s, "item_scale": [s for s, n in zip(batch_scale, batch_n) for _ in range(n)],
           "batch_s": [batch_s[b] for b in full], "batch_scale": [batch_scale[b] for b in full],
           "batch_items": wl.BATCH, "calib_s": calib_s, "scale": scale}
    if tracer is not None:
        out["layers"] = tracer.metrics(pos, scale)
        out["overhead_frac"] = statistics.median(t / b for b, t in zip(batch_s, traced_s)) - 1.0
        out["spans_file"] = write_spans(tracer, wl.name, args.seed)
    return out


def write_spans(tracer, workload, seed) -> str:
    """Write the kept spans as JSON lines, times in seconds from the first."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    base = tracer.spans[0][2] if tracer.spans else 0.0
    with open(path, "w") as fh:
        for idx, (name, parent, start, end) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": idx, "name": name, "parent": parent, "start": start - base, "end": end - base}) + "\n")
    return str(path.relative_to(ROOT))


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


if __name__ == "__main__":
    sys.exit(main())
