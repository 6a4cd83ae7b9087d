"""The four benchmark workloads: inputs, the timed item, and its output check.

Each workload draws its items from a fixed pool. Pool entry ``i`` has a shape
``SHAPES[i % len(SHAPES)]`` and a chain seeded by ``[FAMILY, i]``; the
benchmark seed only chooses which pool rows a run visits and in what order.
That keeps the stored references in ``refs/`` valid for every seed, and
because a run walks whole rows (one entry of each shape in turn) every seed
does the same mix of shapes, so item percentiles do not jump between shape
classes from one seed to the next.

Items are closed-loop: one caller, one item at a time. Everything an item
calls goes through module attributes (``mp.engine.simulate``) so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import itertools

import numpy as np

import markov_paging as mp
import markov_paging.audit
import markov_paging.learn  # noqa: F401  (the package does not import it)

REL_TOL = 1e-9


def close(value, ref, tol=REL_TOL) -> bool:
    """Equal within ``tol`` relative to the reference."""
    return abs(value - ref) <= tol * max(abs(ref), 1e-300)


class Workload:
    name = ""
    FAMILY = 0
    SHAPES: tuple = ()
    POOL = 0
    BATCH = 0  # items timed as one ``wall_s`` batch; a multiple of len(SHAPES)

    def order(self, seed: int) -> list[int]:
        """Pool indices in visiting order: whole rows, rows shuffled by ``seed``."""
        width = len(self.SHAPES)
        rows = np.random.default_rng([self.FAMILY, seed]).permutation(self.POOL // width)
        return [int(r) * width + s for r in rows for s in range(width)]

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        """The timed item."""
        raise NotImplementedError

    def reference(self, inp, out):
        """What ``refs/`` stores for this entry, from a run of the reference code."""
        raise NotImplementedError

    def check(self, inp, out, ref) -> list[str]:
        """Problems with ``out``; empty when the item is correct."""
        raise NotImplementedError


class AuditBattery(Workload):
    """Criterion 7's shape and seed family: the pool is its 10**4 runs."""

    name = "audit-battery"
    FAMILY = 7000
    SHAPES = ((4, 2, 20),)
    POOL = 10**4
    BATCH = 100
    EXT = 10

    def make_input(self, i):
        return i, mp.chain.random_chain(4, [self.FAMILY, i])

    def run(self, inp):
        i, chain = inp
        _, k, T = self.SHAPES[0]
        init = tuple(range(k))
        seq = mp.chain.sample_sequence(chain, T * self.EXT, [self.FAMILY, i, 2])
        _, table = mp.optdp.opt_expected_cost(chain, k, T, init)
        common = dict(k=k, init_cache=init, seed=[self.FAMILY, i], T=T, T_ext=T * self.EXT, chain=chain)
        audit = mp.audit
        reports = {
            scheme: audit.run_audit(seq, mp.policies.DominatingPolicy(), mp.policies.OptReplayPolicy(table), scheme=scheme, **common)
            for scheme in ("updated", "original")
        }
        accounting = {scheme: audit.check_accounting(rep).ok for scheme, rep in reports.items()}
        failures = audit.step_delta_check(reports["updated"]).failures
        return reports, accounting, failures

    @staticmethod
    def _counts(out):
        reports, _, failures = out
        upd, orig = reports["updated"], reports["original"]
        potential = sum(1 for f in failures if "delta" not in f and "foreign-charged" not in f)
        return [potential, upd.a_misses, upd.ref_misses, upd.resolved_saviors, orig.resolved_saviors]

    def reference(self, inp, out):
        return self._counts(out)

    def check(self, inp, out, ref):
        reports, accounting, failures = out
        problems = [f"structural: {v}" for rep in reports.values() for v in rep.violations]
        problems += [f"accounting ({s})" for s, ok in accounting.items() if not ok]
        problems += [f for f in failures if "delta" in f or "foreign-charged" in f]
        counts = self._counts(out)
        if counts != ref:
            problems.append(f"counts [potential, a_misses, ref_misses, saviors upd/orig] {counts} != stored {ref}")
        return problems


class ExactRatio(Workload):
    """Exact (noise-free) cost of the dominating and median rules against OPT."""

    name = "exact-ratio"
    FAMILY = 7100
    SHAPES = ((6, 3, 60), (7, 3, 60), (7, 3, 60))
    POOL = 1200
    BATCH = 9

    def make_input(self, i):
        n, k, T = self.SHAPES[i % len(self.SHAPES)]
        return mp.chain.random_chain(n, [self.FAMILY, i]), k, T

    def run(self, inp):
        chain, k, T = inp
        init = tuple(range(k))
        opt, _ = mp.optdp.opt_expected_cost(chain, k, T, init, record_actions=False)
        dom = mp.engine.exact_cost(mp.policies.DominatingPolicy(), chain, k, T, init)
        med = mp.engine.exact_cost(mp.policies.MedianPolicy(), chain, k, T, init)
        return [opt, dom.mean, med.mean]

    def reference(self, inp, out):
        return out

    def check(self, inp, out, ref):
        opt, dom, med = out
        problems = [f"{name} exact cost {v!r} below OPT {opt!r}" for name, v in (("dominating", dom), ("median", med)) if v < opt - 1e-9]
        problems += [f"{name} {v!r} != stored {r!r}" for name, v, r in zip(("opt", "dominating", "median"), out, ref) if not close(v, r)]
        return problems


def ordered_exact_cost(chain, k, T, init_cache, rule) -> float:
    """Exact expected misses of LRU or FIFO, by evolving the distribution over
    (ordered cache, last page). Index 0 of an ordered cache is the next victim.

    Written for this benchmark as an independent reference for the library's
    step-by-step simulation of the two rules: initial pages sit in ascending
    order (the library's tie-break), a miss evicts index 0 and appends the
    request, and a hit moves the page to the back under LRU only.
    """
    n = chain.n
    states = list(itertools.permutations(range(n), k))
    index = {s: r for r, s in enumerate(states)}
    succ = np.empty((len(states), n), dtype=np.int64)
    miss = np.zeros((len(states), n), dtype=bool)
    for r, s in enumerate(states):
        for j in range(n):
            if j not in s:
                miss[r, j] = True
                succ[r, j] = index[s[1:] + (j,)]
            elif rule == "lru":
                succ[r, j] = index[tuple(p for p in s if p != j) + (j,)]
            else:
                succ[r, j] = r
    cols = np.broadcast_to(np.arange(n), succ.shape)
    req = np.zeros((len(states), n))
    req[index[tuple(sorted(init_cache))]] = chain.init
    cost = 0.0
    for t in range(T):
        if t:
            req = dist @ chain.transition
        cost += float(req[miss].sum())
        dist = np.zeros((len(states), n))
        np.add.at(dist, (succ, cols), req)
    return cost


class McRatio(Workload):
    """The README ``ratio`` use: Monte Carlo costs of four rules against OPT."""

    name = "mc-ratio"
    FAMILY = 7200
    SHAPES = ((4, 2, 20), (5, 2, 30), (6, 3, 40), (5, 3, 30), (6, 2, 40))
    POOL = 1500
    BATCH = 10
    POLICIES = ("dominating", "median", "lru", "fifo")
    TRIALS = 200
    CI_MULT = 4.0

    def make_input(self, i):
        n, k, T = self.SHAPES[i % len(self.SHAPES)]
        return i, mp.chain.random_chain(n, [self.FAMILY, i], floor=0.15), k, T

    def run(self, inp):
        i, chain, k, T = inp
        policies = [mp.policies.parse_policy(p) for p in self.POLICIES]
        rows = mp.engine.ratio_report(chain, k, T, policies, "opt-dp", self.TRIALS, i, tuple(range(k)))
        return [(r.policy, r.mean, r.ci, r.baseline_mean) for r in rows]

    def reference(self, inp, out):
        """[OPT, then the exact cost of each rule in ``POLICIES`` order]."""
        _, chain, k, T = inp
        init = tuple(range(k))
        ref = [mp.optdp.opt_expected_cost(chain, k, T, init, record_actions=False)[0]]
        for p in self.POLICIES:
            if p in ("lru", "fifo"):
                ref.append(ordered_exact_cost(chain, k, T, init, p))
            else:
                ref.append(mp.engine.exact_cost(mp.policies.parse_policy(p), chain, k, T, init).mean)
        return ref

    def check(self, inp, out, ref):
        if [row[0] for row in out] != list(self.POLICIES):
            return [f"policies {[row[0] for row in out]} != {list(self.POLICIES)}"]
        opt, exact = ref[0], dict(zip(self.POLICIES, ref[1:]))
        problems = []
        for policy, mean, ci, base in out:
            if not close(base, opt):
                problems.append(f"OPT {base!r} != stored {opt!r}")
            if abs(mean - exact[policy]) > self.CI_MULT * ci + 1e-9:
                problems.append(f"{policy} mean {mean!r} is more than {self.CI_MULT} half-widths ({ci!r}) from exact {exact[policy]!r}")
        return problems


class LearnCertify(Workload):
    """Estimate a chain from one long trace and certify the dominating rule on it."""

    name = "learn-certify"
    FAMILY = 7300
    SHAPES = (8, 9, 10, 11, 12)
    POOL = 800
    BATCH = 10
    TRACE = 20_000

    def make_input(self, i):
        n = self.SHAPES[i % len(self.SHAPES)]
        return i, mp.chain.random_chain(n, [self.FAMILY, i], floor=0.3)

    def run(self, inp):
        """The pieces of ``approx_dominating_policy``, so that the table is
        built even when the certificate is vacuous."""
        i, truth = inp
        learn = mp.learn
        trace = mp.chain.sample_sequence(truth, self.TRACE, [self.FAMILY, i, 1])
        est = learn.estimate_transition(trace, n=truth.n, truth=truth)
        g = mp.alpha.gamma(truth)
        table = mp.alpha.alpha_table(est.to_chain())
        sym = learn.symmetrize(table)
        try:
            eps = learn.perturbation_eps(g, est.linf_error)
            outcome = "certified" if eps < 0.5 else "vacuous"
        except learn.ConditionViolated:
            outcome = "inapplicable"
        return {"gamma": g, "linf": est.linf_error, "outcome": outcome, "table": table, "sym": sym}

    def reference(self, inp, out):
        return {k: out[k] for k in ("gamma", "linf", "outcome")}

    def check(self, inp, out, ref):
        problems = []
        v = out["table"].values
        n = v.shape[0]
        off = ~np.eye(n, dtype=bool)
        worst = float(np.abs(v + v.transpose(1, 0, 2) - 1.0)[off].max())
        if worst > 1e-9:
            problems.append(f"alpha(p<q|s)+alpha(q<p|s) off 1 by {worst!r}")
        s = out["sym"].values
        p, q = np.triu_indices(n, 1)
        if np.any(s[q, p] != 1.0 - s[p, q]) or np.any(s[~off] != 0.0):
            problems.append("symmetrized table is not exactly complementary")
        if out["outcome"] != ref["outcome"]:
            problems.append(f"certificate {out['outcome']} != stored {ref['outcome']}")
        problems += [f"{k} {out[k]!r} != stored {ref[k]!r}" for k in ("gamma", "linf") if not close(out[k], ref[k])]
        return problems


WORKLOADS = {w.name: w for w in (AuditBattery(), ExactRatio(), McRatio(), LearnCertify())}
