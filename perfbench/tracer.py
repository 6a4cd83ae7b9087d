"""Spans around the public functions of each ``markov_paging`` module.

The package has no instrumentation of its own, so the benchmark wraps the
functions from outside. Each wrapper is installed at every place that holds
the function: the defining module and every module that imported the name
directly (``policies.solve_lp``, ``engine.sample_sequence``,
``engine.opt_expected_cost``, ``engine.evict``, ``audit.evict``, ...), found
by identity so that a later import site is covered too. A target that no
longer exists is skipped, which leaves its metrics absent.

A span records its name, start, end and parent. Self time is a span's
duration minus the duration of its direct children. Per-name totals are kept
as spans close; the spans themselves are kept in memory up to ``SPAN_CAP``
and written out by the caller when the run ends.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict

SPAN_CAP = 50_000
PACKAGE = "markov_paging"

# (span name, defining module, attribute, work counter derived from the call's arguments)
TARGETS = (
    ("chain.sample_sequence", "chain", "sample_sequence", "requests"),
    ("alpha.alpha_table", "alpha", "alpha_table", "pair_solves"),
    ("alpha.gamma", "alpha", "gamma", None),
    ("simplex.solve_lp", "simplex", "solve_lp", None),
    ("policies.dominating_distribution", "policies", "dominating_distribution", None),
    ("policies.evict", "policies", "evict", None),
    ("policies.median_index", "policies", "median_index", None),
    ("optdp.opt_expected_cost", "optdp", "opt_expected_cost", "state_steps"),
    ("engine.exact_cost", "engine", "exact_cost", "state_steps"),
    ("engine.build_kernel", "engine", "build_kernel", None),
    ("engine.simulate", "engine", "simulate", "trial_steps"),
    ("audit.run_audit", "audit", "run_audit", "steps"),
    ("audit.step_delta_check", "audit", "step_delta_check", None),
    ("learn.estimate_transition", "learn", "estimate_transition", None),
    ("learn.symmetrize", "learn", "symmetrize", None),
)

# Methods that only count calls: requests for a dominating eviction distribution.
COUNTED_METHODS = (("policies", "DominatingPolicy", "evict"), ("policies", "DominatingPolicy", "kernel_probs"))


def _work(counter, args):
    """Work units of one call, from its bound arguments."""
    if counter == "requests":
        return args["T"]
    if counter == "pair_solves":
        n = args["chain"].n
        return n * (n - 1)
    if counter == "state_steps":
        n = args["chain"].n
        return n * math.comb(n, args["k"]) * max(args["T"], 1)
    if counter == "trial_steps":
        return args["trials"] * args["T"]
    if counter == "steps":
        return args["T"]
    raise KeyError(counter)


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores the package."""

    def __init__(self):
        self.stack = []  # open frames: [name, start, child_time, kind]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self.chains = set()  # distinct chains handed to alpha_table
        self.counted = defaultdict(int)
        self.spans = []  # (name, parent index or -1, start, end)
        self.installed = set()
        self.work_lost = set()
        self._open_index = []
        self._patched = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name, mod_name, attr, counter in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, counter)
            self.installed.add(name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for mod_name, cls_name, meth in COUNTED_METHODS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is not None:
                name = f"{mod_name}.{cls_name}.{meth}"
                self._patch(cls, meth, self._count(name, original))
                self.installed.add(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count(self, name, original):
        counted = self.counted

        def counting(*args, **kwargs):
            counted[name] += 1
            return original(*args, **kwargs)

        return counting

    def _wrap(self, name, original, counter):
        sig = inspect.signature(original)
        tracer = self

        def traced(*args, **kwargs):
            work = None
            if counter is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work = _work(counter, bound.arguments)
                    if counter == "pair_solves":
                        tracer.chains.add(bound.arguments["chain"].transition.tobytes())
                except (TypeError, KeyError, AttributeError):
                    tracer.work_lost.add(name)  # signature changed: the count goes absent
            frame = [name, 0.0, 0.0, None]
            tracer._open(frame)
            frame[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(frame, time.perf_counter(), work)
            if name == "engine.build_kernel" and tracer.stack and tracer.stack[-1][0] == "engine.simulate":
                tracer.stack[-1][3] = "kernel" if result is not None else "generic"
            return result

        traced.__wrapped__ = original
        return traced

    # -- spans ----------------------------------------------------------------

    def _open(self, frame):
        self.stack.append(frame)
        if len(self.spans) < SPAN_CAP:
            parent = self._open_index[-1] if self._open_index else -1
            self.spans.append((frame[0], parent, 0.0, 0.0))
            self._open_index.append(len(self.spans) - 1)
        else:  # past the cap a span still counts in the totals
            self._open_index.append(-1)

    def _close(self, frame, end, work):
        self.stack.pop()
        name, start, child_time, kind = frame
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        idx = self._open_index.pop()
        if idx >= 0:
            self.spans[idx] = (name, self.spans[idx][1], start, end)
        if name == "engine.simulate" and kind is not None:
            name = f"engine.simulate.{kind}"
        self.calls[name] += 1
        self.self_s[name] += duration - child_time
        if work is not None:
            self.work[name] += work

    # -- metrics --------------------------------------------------------------

    def metrics(self, items: int, scale: float = 1.0) -> dict:
        """Per-layer metrics; counts and self times are per item, and times
        are multiplied by ``scale``.

        A metric whose span is not installed, or whose work count was lost to
        a changed signature, is absent. A ratio whose base is zero reads 0.
        """
        per = 1.0 / items
        self_s = defaultdict(float, {name: s * scale for name, s in self.self_s.items()})
        out = {}

        def put(name, value, unit, *spans):
            if all(s in self.installed for s in spans):
                out[name] = {"value": value, "unit": unit}

        def ratio(num, den):
            return num / den if den else 0.0

        def layer(s, calls=True, work=None, per_unit=None, span=None):
            span = span or s
            if calls:
                put(f"{s}.calls", self.calls[s] * per, "count/item", span)
            put(f"{s}.self_ms", self_s[s] * 1e3 * per, "cal_ms/item", span)
            if work and span not in self.work_lost:
                put(f"{s}.{work}", self.work[s] * per, "count/item", span)
                if per_unit:
                    unit_name, mult, unit = per_unit
                    put(f"{s}.{unit_name}", ratio(self_s[s] * mult, self.work[s]), unit, span)

        layer("chain.sample_sequence", work="requests", per_unit=("ns_per_request", 1e9, "cal_ns"))
        layer("alpha.alpha_table", work="pair_solves")
        put("alpha.alpha_table.per_chain", ratio(self.calls["alpha.alpha_table"], len(self.chains)), "ratio", "alpha.alpha_table")
        layer("alpha.gamma")
        layer("simplex.solve_lp")
        put("simplex.solve_lp.us_per_call", ratio(self_s["simplex.solve_lp"] * 1e6, self.calls["simplex.solve_lp"]), "cal_us", "simplex.solve_lp")
        layer("policies.dominating_distribution")
        requests = self.counted["policies.DominatingPolicy.evict"] + self.counted["policies.DominatingPolicy.kernel_probs"]
        put("policies.lp_memo_hit_ratio", 1.0 - ratio(self.calls["policies.dominating_distribution"], requests) if requests else 0.0,
            "ratio", "policies.dominating_distribution", "policies.DominatingPolicy.evict", "policies.DominatingPolicy.kernel_probs")
        layer("policies.evict")
        layer("policies.median_index")
        for s in ("optdp.opt_expected_cost", "engine.exact_cost"):
            layer(s, work="state_steps", per_unit=("ns_per_state_step", 1e9, "cal_ns"))
        layer("engine.build_kernel")
        for kind in ("kernel", "generic"):
            layer(f"engine.simulate.{kind}", calls=False, work="trial_steps", span="engine.simulate")
        layer("audit.run_audit", work="steps")
        layer("audit.step_delta_check", calls=False)
        layer("learn.estimate_transition", calls=False)
        layer("learn.symmetrize", calls=False)
        return out
