"""Acceptance gate: one test per numbered criterion, each printing a verdict.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
Criterion 7 checks the updated scheme's credit invariant Psi >= N0
(``audit.credit_check``), not the claim Phi >= 0: that claim has a realizable
counterexample (tests/test_audit.py::TestPotentialCounterexample, frozen in
the criterion's fixture checks). Its failures are still counted and reported,
and each must follow a doubly-charged request, the only way Phi can fall
below the credit.
"""

import time

import numpy as np
import pytest

from markov_paging.alpha import alpha_table, first_passage, pinned_systems
from markov_paging.chain import build_lb_chain, random_chain, sample_sequence
from markov_paging.engine import exact_cost, simulate
from markov_paging.learn import approx_dominating_policy, estimate_transition
from markov_paging.lowerbound import LBParams, closed_form_costs, warmup_ratio
from markov_paging.optdp import opt_expected_cost, subset_index
from markov_paging.policies import (
    DominatingPolicy,
    MedianPolicy,
    OptReplayPolicy,
)
from markov_paging import audit as audit_mod
from markov_paging.cli import main as cli_main

from .oracles import rollout_alpha, tree_opt_cost


def _verdict(num, name, ok, started, detail=""):
    elapsed = time.perf_counter() - started
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name} ({elapsed:.1f}s)"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_alpha_correctness():
    started = time.perf_counter()
    problems = []
    tables = []
    for i in range(100):
        chain = random_chain(5, [1000, i], floor=0.25)
        table = alpha_table(chain)
        tables.append((chain, table))
        v = table.values
        for p in range(5):
            for q in range(p + 1, 5):
                if np.abs(v[p, q] + v[q, p] - 1.0).max() > 1e-9:
                    problems.append(f"chain {i}: pair ({p},{q}) not complementary")
        ps, qs, L = pinned_systems(chain)
        residual = np.abs(np.einsum("mij,mj->mi", L, first_passage(ps, qs, L)) - np.eye(5)[ps]).max(axis=1)
        for p, q in zip(ps[residual > 1e-9], qs[residual > 1e-9]):
            problems.append(f"chain {i}: pair ({p},{q}) residual too large")
    rng = np.random.default_rng(77)
    for j in range(10):
        chain, table = tables[j]
        p, q = rng.choice(5, size=2, replace=False)
        s = int(rng.integers(5))
        est, se = rollout_alpha(chain, int(p), int(q), s, trials=10**6, seed=[2000, j])
        if abs(table.values[p, q, s] - est) > 3 * se:
            problems.append(f"spot {j}: |{table.values[p, q, s]:.6f} - {est:.6f}| > 3se")
    ok = not problems and time.perf_counter() - started < 30
    _verdict(1, "alpha solver vs rollout oracle", ok, started, "; ".join(problems[:3]))


def test_criterion_2_warmup_formulas():
    started = time.perf_counter()
    problems = []
    idx = subset_index(3, 2)
    for eps in (0.3, 0.1, 1e-3):
        chain = build_lb_chain(eps, eps / 2)
        # the policy's eviction distribution for cache (0, 1) and request 2
        mu = DominatingPolicy(target=0).kernel_probs(idx, chain)[idx.rank[(0, 1)], 2]
        want = (2 - eps) / (4 - 4 * eps)
        if abs(mu[0] - want) > 1e-12:
            problems.append(f"eps={eps}: mu={mu[0]!r} want {want!r}")
    if abs(warmup_ratio(1e-6) - 1.5) > 1e-3:
        problems.append(f"limit ratio {warmup_ratio(1e-6)}")
    ok = not problems and time.perf_counter() - started < 1
    _verdict(2, "warm-up eviction probability and limit ratio", ok, started, "; ".join(problems))


def test_criterion_3_stress_ratio_reproduction():
    started = time.perf_counter()
    cost_dom, cost_ref = closed_form_costs(LBParams(1e-5, 0.7069e-5, 10**8))
    ratio = cost_dom / cost_ref
    ok = ratio >= 1.5907 and time.perf_counter() - started < 1
    _verdict(3, "closed-form stress point", ok, started, f"ratio={ratio:.7f}")


def test_criterion_4_closed_form_vs_engine():
    started = time.perf_counter()
    params = LBParams(1e-3, 0.5e-3, 10**4)
    cost_dom, _ = closed_form_costs(params)
    chain = build_lb_chain(params.eps, params.eps1)
    policy = DominatingPolicy(target=0)
    exact = exact_cost(policy, chain, 2, params.T, (0, 1))
    gap = abs(exact.mean - cost_dom)
    mc = simulate(policy, chain, 2, params.T, (0, 1), trials=10**4, seed=40)
    covered = mc.covers(cost_dom)
    ok = gap <= 1e-9 and covered and time.perf_counter() - started < 60
    _verdict(
        4,
        "exact evolution equals closed form; Monte Carlo covers it",
        ok,
        started,
        f"gap={gap:.2e}, CI=[{mc.mean - mc.half_width:.3f},{mc.mean + mc.half_width:.3f}] vs {cost_dom:.3f}",
    )


def test_criterion_5_opt_dp_vs_exhaustive_tree():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(3, 5))
        T = int(rng.integers(3, 7))
        chain = random_chain(n, [3000, i], floor=0.1)
        value, _ = opt_expected_cost(chain, 2, T, (0, 1), record_actions=False)
        oracle = tree_opt_cost(chain, 2, T, (0, 1))
        worst = max(worst, abs(value - oracle))
    ok = worst <= 1e-10 and time.perf_counter() - started < 300
    _verdict(5, "DP equals exhaustive strategy-tree optimum", ok, started, f"max gap={worst:.2e}")


def test_criterion_6_competitive_bounds_hold():
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    problems = []
    for i in range(50):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(2, min(4, n)))
        T = int(rng.integers(10, 51))
        chain = random_chain(n, [4000, i], floor=0.15)
        init = tuple(range(k))
        opt_value, _ = opt_expected_cost(chain, k, T, init, record_actions=False)
        for policy, bound in ((DominatingPolicy(), 2.0), (MedianPolicy(), 4.0)):
            est = simulate(policy, chain, k, T, init, trials=10**4, seed=[4100, i])
            slack = est.half_width / opt_value
            ratio = est.mean / opt_value
            if ratio > bound + slack:
                problems.append(f"inst {i} {policy.name}: ratio {ratio:.3f} > {bound}+{slack:.3f}")
    ok = not problems and time.perf_counter() - started < 600
    _verdict(6, "dominating within 2x and median within 4x of OPT", ok, started, "; ".join(problems[:3]))


def _fixture_checks():
    from .test_audit import (
        TestOpenChargeClearing,
        TestPotentialCounterexample,
        TestSingleChargeCredit,
        TestUnchargedReentry,
    )

    problems = []
    one = TestSingleChargeCredit().run("updated")
    if not (one.resolved_saviors == 1 and one.doubly_charged_requests == 0
            and not one.steps[1].in_ref and one.steps[1].bears_foreign == 1):
        problems.append("single-charge-credit fixture drifted")
    if TestOpenChargeClearing().run("original").open_charges != 1:
        problems.append("open-charge fixture (one-sided clearing) drifted")
    if TestOpenChargeClearing().run("updated").open_charges != 0:
        problems.append("open-charge fixture (bearing-side clearing) drifted")
    reentry = TestUnchargedReentry().run("updated")
    if reentry.uncharged_reentries != 1 or reentry.savior_events[0].resolved:
        problems.append("uncharged-reentry fixture drifted")
    counter = TestPotentialCounterexample().run()
    if min(counter.phi_trace) != -1 or not audit_mod.credit_check(counter).ok:
        problems.append("potential counterexample fixture drifted")
    return problems


def _failure_step(failure):
    """Step t of a ``step_delta_check`` failure, which reads 't=<t>...'."""
    return int(failure[2:failure.index(":")])


def test_criterion_7_charging_scheme_invariants():
    started = time.perf_counter()
    runs = 10**4
    k, T, mult = 2, 20, 10
    delta_failures = []
    acct_failures = []
    structural = []
    credit_failures = []
    phi_failures = []
    phi_unexplained = []
    for run in range(runs):
        chain = random_chain(4, [7000, run])
        init = (0, 1)
        seq = sample_sequence(chain, T * mult, [7000, run, 2])
        _, table = opt_expected_cost(chain, k, T, init)
        # one replay per policy, scored under both schemes
        victims = audit_mod.replay_pair(seq, DominatingPolicy(), OptReplayPolicy(table), k, init, (7000, run), T, chain)
        common = dict(k=k, init_cache=init, T=T, T_ext=T * mult, chain=chain)
        upd = audit_mod.ledger(seq, *victims, scheme="updated", **common)
        orig = audit_mod.ledger(seq, *victims, scheme="original", **common)
        structural.extend(f"run {run}: {v}" for v in upd.violations + orig.violations)
        if not audit_mod.check_accounting(upd).ok:
            acct_failures.append(f"run {run} updated")
        if not audit_mod.check_accounting(orig).ok:
            acct_failures.append(f"run {run} original")
        credit_failures.extend(f"run {run}: {f}" for f in audit_mod.credit_check(upd).failures)
        first_double = min((r.t for r in upd.steps if r.case == "doubly-charged"), default=T + 1)
        check = audit_mod.step_delta_check(upd)
        delta_failures.extend(f"run {run}: {f}" for f in check.bookkeeping)
        for f in check.claim:
            phi_failures.append(f"run {run}: {f}")
            if _failure_step(f) <= first_double:
                phi_unexplained.append(f"run {run}: {f} (no earlier doubly-charged request)")
    fixture_problems = _fixture_checks()
    credit_problems = credit_failures + phi_unexplained

    sub = [
        ("per-step delta characterization", not delta_failures, delta_failures),
        ("updated+original accounting inequalities", not acct_failures, acct_failures),
        ("ledger structural invariants", not structural, structural),
        ("looseness fixtures reproduce captions", not fixture_problems, fixture_problems),
        ("credit Psi >= N0 at every step; potential failures follow double charges",
         not credit_problems, credit_problems),
    ]
    for name, ok, failures in sub:
        print(f"  [criterion 7] {'PASS' if ok else 'FAIL'} {name}"
              + (f" :: {len(failures)} failures, e.g. {failures[0]}" if failures else ""))
    ok = all(s[1] for s in sub)
    detail = (
        f"potential claim Phi >= 0 has {len(phi_failures)} realizable violations, "
        f"{len(phi_failures) - len(phi_unexplained)} after a doubly-charged request "
        "(savior self-charge corner; frozen counterexample in test_audit.py)"
    )
    _verdict(7, "charging-scheme invariants", ok, started, detail)


def test_criterion_8_learning_pipeline():
    started = time.perf_counter()
    problems = []
    truth = random_chain(4, 8000, floor=0.3)
    assert truth.transition.min() >= 0.05
    trace = sample_sequence(truth, 10**6, 8001)
    est = estimate_transition(trace, n=truth.n, truth=truth)
    if est.linf_error > 0.01:
        problems.append(f"matrix error {est.linf_error:.4f} > 0.01")
    policy, factor, bundle = approx_dominating_policy(est, true_chain=truth)

    from markov_paging.alpha import gamma as gamma_fn
    from markov_paging.chain import validate_chain
    from markov_paging.learn import perturbation_eps

    rng = np.random.default_rng(8002)
    for trial in range(20):
        delta = 0.01
        m = np.array(truth.transition)
        for i in range(4):
            hi = int(np.argmax(m[i]))  # room to give mass away
            lo = int(rng.choice([j for j in range(4) if j != hi]))
            m[i, hi] -= delta / 2
            m[i, lo] += delta / 2
        perturbed = validate_chain(m)
        measured = np.abs(perturbed.transition - truth.transition).sum(axis=1).max()
        bound = perturbation_eps(gamma_fn(truth), measured)
        diff = np.abs(alpha_table(perturbed).values - alpha_table(truth).values).max()
        if diff > bound + 1e-12:
            problems.append(f"trial {trial}: alpha error {diff:.4f} > bound {bound:.4f}")

    k, T = 2, 50
    opt_value, _ = opt_expected_cost(truth, k, T, (0, 1), record_actions=False)
    est_cost = simulate(policy, truth, k, T, (0, 1), trials=10**4, seed=8003)
    ratio = est_cost.mean / opt_value
    cap = factor + est_cost.half_width / opt_value
    if ratio > cap:
        problems.append(f"end-to-end ratio {ratio:.3f} > certified {cap:.3f}")
    ok = not problems and time.perf_counter() - started < 300
    _verdict(
        8,
        "estimation error, perturbation bound, certified factor",
        ok,
        started,
        "; ".join(problems) or f"delta={est.linf_error:.4f}, factor={factor:.4f}, ratio={ratio:.3f}",
    )


CLI_CASES = [
    ["alpha", "--n", "3", "--seed", "0"],
    ["simulate", "--policy", "dominating", "--n", "3", "--k", "2", "--T", "20",
     "--trials", "500", "--seed", "1"],
    ["opt", "--n", "3", "--k", "2", "--T", "10"],
    ["ratio", "--policies", "dominating,median", "--baseline", "opt-dp",
     "--n", "4", "--k", "2", "--T", "30", "--trials", "300", "--seed", "2"],
    ["audit", "--scheme", "updated", "--n", "4", "--k", "2", "--T", "15",
     "--trials", "20", "--seed", "3"],
    ["lowerbound", "--eps", "1e-5,1e-4", "--eps1-frac", "0.5,0.7069", "--T", "1e6,1e8"],
    ["learn", "--n", "3", "--m", "20000", "--k", "2", "--T", "20",
     "--trials", "300", "--seed", "4"],
]


def test_criterion_9_cli_determinism(tmp_path):
    started = time.perf_counter()
    problems = []
    for case in CLI_CASES:
        payloads = []
        for rep in range(2):
            out = tmp_path / f"{case[0]}-{rep}.csv"
            cli_main(["--output", str(out), *case])
            payloads.append(out.read_bytes())
        if payloads[0] != payloads[1]:
            problems.append(f"{case[0]} output differs between runs")
        if not payloads[0]:
            problems.append(f"{case[0]} produced no output")
    ok = not problems
    _verdict(9, "byte-identical CSV under fixed seeds", ok, started, "; ".join(problems))
