"""Bit-identity gate over the cache-state tables and everything read through them.

``render()`` writes one line per item over a fixed battery of chains: SHA-256
prefixes of the subset index's tables, of each memoryless rule's eviction
table, of the OPT DP's actions and value layers, and of sampled miss counts
and traces, plus the reprs of exact costs. A build error is recorded by its
class and message. ``tests/golden/state_digest.txt`` holds the text; a change
that moves any table, cost or sampled page by one bit shows up as a diff.
"""

import hashlib
from pathlib import Path

import numpy as np

from markov_paging.chain import build_lb_chain, random_chain, sample_sequence, sample_trials
from markov_paging.engine import exact_cost, trial_misses
from markov_paging.optdp import opt_expected_cost, subset_index
from markov_paging.policies import parse_policy

from .conftest import sparse_chain, sticky_chain

GOLDEN = Path(__file__).parent / "golden" / "state_digest.txt"
TABLE_RULES = ("dominating", "dominating-adversarial:0", "median", "random")
TRIAL_RULES = ("dominating", "median", "lru", "fifo", "fif")  # kernel, batched, generic paths


def _digest(a) -> str:
    a = np.ascontiguousarray(a)
    return f"{a.dtype}{list(a.shape)}:{hashlib.sha256(a.tobytes()).hexdigest()[:16]}"


def _item(build) -> str:
    try:
        return build()
    except Exception as exc:  # the error itself is the recorded value
        return f"{type(exc).__name__}: {exc}"


def _chains():
    for n in range(3, 8):
        yield f"random({n})", random_chain(n, [8400, n])
    for n in range(4, 8):
        yield f"sparse({n})", sparse_chain(n, [8401, n], 0.3)
    yield "lb(1e-3)", build_lb_chain(1e-3, 0.7069e-3)


def _chain_lines(label, chain) -> list[str]:
    lines = []
    table_rules = (*TABLE_RULES, f"dominating-adversarial:{chain.n - 1}")
    for k in range(1, chain.n):
        head = f"{label} k={k}"
        init = tuple(range(k))
        idx = subset_index(chain.n, k)
        for name in ("member", "pages", "cells", "evicted"):
            lines.append(f"{head} index.{name} {_digest(getattr(idx, name))}")
        for rule in table_rules:
            probs = _item(lambda: _digest(parse_policy(rule).kernel_probs(idx, chain)))
            lines.append(f"{head} kernel_probs[{rule}] {probs}")

        def opt():
            value, table = opt_expected_cost(chain, k, 8, init, record_values=True)
            return f"{value!r} action={_digest(table.action)} value={_digest(table.value)}"

        lines.append(f"{head} opt T=8 {_item(opt)}")
        for rule in table_rules:
            cost = _item(lambda: repr(exact_cost(parse_policy(rule), chain, k, 30, init).mean))
            lines.append(f"{head} exact_cost[{rule}] T=30 {cost}")
        for rule in TRIAL_RULES:
            misses = _item(lambda: _digest(trial_misses([parse_policy(rule)], chain, k, 20, init, 64, [8402, chain.n, k])[0]))
            lines.append(f"{head} trial_misses[{rule}] T=20 trials=64 {misses}")
    return lines


def _sampling_lines() -> list[str]:
    lines = []
    for n in (4, 40, 41):
        chain = random_chain(n, [8403, n])
        for T in (1, 2, 1024, 1025, 65538):
            lines.append(f"sample_sequence n={n} T={T} {_digest(sample_sequence(chain, T, [8404, n, T]))}")
        for T, trials in ((5, 200), (12, 200)):  # 800 and 2,200 transition uniforms
            pages = sample_trials(chain, T, np.random.default_rng((8405, n)), trials)
            lines.append(f"sample_trials n={n} T={T} trials={trials} {_digest(pages)}")
        for trials in (64, 1100):  # kernel-path steps on either side of 1,024 uniforms
            misses = trial_misses([parse_policy("random")], chain, 2, 20, (0, 1), trials, [8406, n])[0]
            lines.append(f"trial_misses[random] n={n} T=20 trials={trials} {_digest(misses)}")
    # long traces on which nearly every chunk's paths meet, and few do
    for label, chain in (("floor=0.3", random_chain(12, [8403, 12], floor=0.3)), ("sticky=0.99", sticky_chain(12, 0.99))):
        for T in (20_000, 65538):
            lines.append(f"sample_sequence[{label}] n=12 T={T} {_digest(sample_sequence(chain, T, [8404, 12, T]))}")
    return lines


def _bench_chains():
    """The benchmark's chains: the audit battery's at k = 2 and the exact
    ratio's, at n = 6, 7, 7 in turn, at k = 3."""
    for i in range(10):
        yield f"bench random(4, [7000, {i}])", random_chain(4, [7000, i]), 2
    for i in range(20):
        n = (6, 7, 7)[i % 3]
        yield f"bench random({n}, [7100, {i}])", random_chain(n, [7100, i]), 3


def _bench_lines() -> list[str]:
    lines = []
    for label, chain, k in _bench_chains():
        head = f"{label} k={k}"
        idx = subset_index(chain.n, k)
        init = tuple(range(k))
        for rule in ("dominating", "dominating-adversarial:0"):
            probs = _item(lambda: _digest(parse_policy(rule).kernel_probs(idx, chain)))
            lines.append(f"{head} kernel_probs[{rule}] {probs}")
        value, table = opt_expected_cost(chain, k, 60, init, record_values=True)
        lines.append(f"{head} opt T=60 {value!r} action={_digest(table.action)} value={_digest(table.value)}")
        value, _ = opt_expected_cost(chain, k, 60, init, record_actions=False)
        lines.append(f"{head} opt T=60 no actions {value!r}")
    return lines


def render() -> str:
    lines = [line for label, chain in _chains() for line in _chain_lines(label, chain)]
    return "\n".join(lines + _sampling_lines() + _bench_lines()) + "\n"


def test_state_digest_matches_golden():
    got = render().splitlines()
    want = GOLDEN.read_text().splitlines()
    moved = [f"- {w}\n+ {g}" for w, g in zip(want, got) if w != g]
    assert len(got) == len(want), f"{len(got)} lines, golden has {len(want)}"
    assert not moved, f"{len(moved)} lines differ; first:\n" + "\n".join(moved[:5])
