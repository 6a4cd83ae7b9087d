"""The benchmark's own tests. Run explicitly (Tier-1 does not collect them):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import markov_paging as mp  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 918_273

# Metrics that must be non-zero where the layer should move. Some entries are
# reachable only through one import site: sample_sequence, evict and
# opt_expected_cost on mc-ratio only through engine, evict on audit-battery
# only through audit, solve_lp only through policies.
MOVES = {
    "audit-battery": [
        "chain.sample_sequence.calls", "alpha.alpha_table.calls", "simplex.solve_lp.calls",
        "policies.dominating_distribution.calls", "policies.evict.calls", "optdp.opt_expected_cost.calls",
        "audit.run_audit.calls", "audit.run_audit.steps", "audit.step_delta_check.self_ms",
    ],
    "exact-ratio": [
        "simplex.solve_lp.calls", "policies.dominating_distribution.calls", "optdp.opt_expected_cost.calls",
        "optdp.opt_expected_cost.state_steps", "engine.exact_cost.calls", "engine.exact_cost.state_steps",
        "engine.build_kernel.calls",
    ],
    "mc-ratio": [
        "chain.sample_sequence.calls", "policies.evict.calls", "policies.median_index.calls",
        "optdp.opt_expected_cost.calls", "engine.simulate.kernel.trial_steps", "engine.simulate.kernel.self_ms",
        "engine.simulate.generic.trial_steps", "engine.simulate.generic.self_ms",
    ],
    "learn-certify": [
        "chain.sample_sequence.calls", "chain.sample_sequence.requests", "alpha.alpha_table.calls",
        "alpha.alpha_table.pair_solves", "alpha.gamma.calls", "learn.estimate_transition.self_ms",
        "learn.symmetrize.self_ms",
    ],
}

# The "no calls" cells of the layer table.
ABSENT_WORK = {
    "audit-battery": ["alpha.gamma.calls", "engine.exact_cost.calls", "engine.build_kernel.calls",
                      "engine.simulate.kernel.trial_steps", "engine.simulate.generic.trial_steps",
                      "learn.estimate_transition.self_ms", "learn.symmetrize.self_ms"],
    "exact-ratio": ["chain.sample_sequence.calls", "alpha.gamma.calls", "engine.simulate.kernel.trial_steps",
                    "engine.simulate.generic.trial_steps", "audit.run_audit.calls",
                    "learn.estimate_transition.self_ms", "learn.symmetrize.self_ms"],
    "mc-ratio": ["alpha.gamma.calls", "audit.run_audit.calls", "learn.estimate_transition.self_ms",
                 "learn.symmetrize.self_ms"],
    "learn-certify": ["simplex.solve_lp.calls", "policies.dominating_distribution.calls",
                      "optdp.opt_expected_cost.calls", "engine.simulate.kernel.trial_steps",
                      "engine.simulate.generic.trial_steps", "audit.run_audit.calls"],
}


# With a tiny --seconds a traced run times one batch (every shape of the
# workload) and an untraced one goes on to worker.MIN_ITEMS items.
def bench(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_spans_cover_the_layer_table(workload):
    res = result(bench(workload, 0, trace=1))
    assert res["correct"] and res["failed"] == 0
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert [m for m in MOVES[workload] if not metrics[m] > 0] == []
    assert [m for m in ABSENT_WORK[workload] if metrics[m] != 0] == []
    assert "trace.overhead_frac" in metrics
    if workload == "audit-battery":
        assert metrics["alpha.alpha_table.per_chain"] == 2.0


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_held_out_seed_has_no_failed_items(workload):
    res = result(bench(workload, HELD_OUT_SEED, trace=0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > worker.MIN_ITEMS
    assert set(res["metrics"]) == {"setup_s", "wall_s", "item_ms.p50", "item_ms.p90", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("exact-ratio", 0, trace=0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_target_gives_absent_metrics(monkeypatch):
    monkeypatch.delattr(mp.alpha, "gamma")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert mp.engine.simulate is not mp.engine.simulate.__wrapped__
        assert mp.policies.solve_lp.__wrapped__ is mp.simplex.solve_lp.__wrapped__
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    assert "alpha.gamma.calls" not in metrics and "alpha.gamma.self_ms" not in metrics
    assert "alpha.alpha_table.calls" in metrics
    assert not hasattr(mp.engine.simulate, "__wrapped__")


@pytest.mark.parametrize("rule", ["lru", "fifo"])
def test_ordered_exact_cost_matches_long_simulation(rule):
    chain = mp.chain.random_chain(5, [1, 2], floor=0.15)
    k, T = 3, 30
    exact = workloads.ordered_exact_cost(chain, k, T, (0, 1, 2), rule)
    est = mp.engine.simulate(mp.policies.parse_policy(rule), chain, k, T, (0, 1, 2), 20_000, 5)
    assert abs(est.mean - exact) <= 4 * est.half_width
