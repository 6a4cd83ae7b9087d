"""Runtime auditor for eviction charging schemes.

``ledger`` walks a shared request sequence with the ``engine.replay`` victims
of two policies (the algorithm under audit and a reference) while
maintaining a charge map c(page) and counters; the checks test the
accounting inequality that lower-bounds the reference's misses, plus
per-step potential claims. The ledger never changes an eviction, so one
replay per policy serves both schemes; ``run_audit`` replays for one.

Scheme steps at a request for page s:

1. (a) clear any charge s gives; (b) *updated scheme only*: clear any charges
   other pages hold on s.
2. if the algorithm evicts p: if p is outside the reference's post-request
   cache, p charges itself; otherwise p charges a savior page q drawn from
   (algorithm's pre-request cache) minus (reference's post-request cache) that
   bears no charge from that difference in the other direction. The savior
   choice is a function of the step state alone, so any page evicted in that
   situation would receive the same q.
3. if the reference evicts p and p currently charges some other page,
   reassign the charge to p itself.

Counters over requests 1..T:

* first_time_misses (I): requests to pages outside the initial cache, each
  page counted once, at its first request.
* doubly_charged_requests (D): requests to pages bearing two charges.
* open_charges (O): charges still assigned after request T.
* uncharged_reentries (U): requests to pages absent from the reference's
  cache because it previously evicted them, bearing no charges.
* savior events (one per algorithm eviction): resolved to 1 when the page
  charged at eviction time is requested no later than the evicted page's next
  request, scanning the sequence through the resolve horizon T_ext; events
  still unresolved at T_ext count 0, which only weakens the audited bound.

Accounting (checked per realized run):
  original scheme:  ref_misses >= (resolved_saviors - O) / 2 + I
  updated scheme:   ref_misses >= resolved_saviors - D - O + U

Per-step claims on the updated scheme's potential Phi = I - D - O + U:
``step_delta_check`` verifies the exact per-case delta and reports where the
claim that Phi stays nonnegative, and strictly positive just before each
potential-decreasing request, fails. That claim has a realizable
counterexample: a savior that self-charges makes its next request doubly
charged, worth 0 to Phi instead of +1. ``credit_check`` verifies the credit
invariant that does hold: Psi = Phi + D = I - O + U never falls below N0, the
number of uncharged pages held by the reference but not the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import _seed_tuple, replay
from .optdp import check_cache, check_horizon


class NoEligibleSavior(RuntimeError):
    """No admissible savior page exists; the ledger bookkeeping is broken."""


class SequenceTooShort(ValueError):
    pass


@dataclass
class SaviorEvent:
    t: int
    evicted: int
    savior: int
    resolved: bool | None = None


@dataclass
class StepRecord:
    t: int
    requested: int
    a_miss: bool
    a_evicted: int  # -1 on hits
    ref_miss: bool
    ref_evicted: int
    in_a: bool
    in_ref: bool
    gives: bool
    bears_self: bool
    bears_foreign: int
    first_timer: bool
    prev_ref_evicted: bool
    cleared: int
    savior_assigned: int  # -1 when no savior case fired
    case: str
    ambiguous_savior: bool
    I: int
    D: int
    O_open: int
    U: int
    N0: int  # pages in the reference's cache, not the algorithm's, giving no charge
    phi_before: int
    phi: int

    @property
    def psi(self) -> int:
        """Potential without the doubly-charged debit: I - O + U."""
        return self.phi + self.D


@dataclass
class AuditReport:
    scheme: str
    n: int
    k: int
    T: int
    T_ext: int
    steps: list[StepRecord]
    savior_events: list[SaviorEvent]
    first_time_misses: int
    doubly_charged_requests: int
    open_charges: int
    uncharged_reentries: int
    a_misses: int
    ref_misses: int
    violations: list[str] = field(default_factory=list)

    @property
    def resolved_saviors(self) -> int:
        return sum(1 for e in self.savior_events if e.resolved)

    @property
    def phi_trace(self) -> list[int]:
        return [rec.phi for rec in self.steps]


def _classify(rec: StepRecord) -> str:
    bears = rec.bears_foreign + (1 if rec.bears_self else 0)
    if bears == 2:
        return "doubly-charged"
    if rec.bears_self:
        return "self-charged"
    if rec.bears_foreign:
        return "borne-in-cache" if rec.in_a else "borne-out-of-cache"
    if rec.gives:
        return "giving-only"
    if rec.in_a:
        return "clean-hit" if rec.in_ref else "uncharged-reentry"
    if rec.in_ref:
        return "potential-drop"  # the four-part decreasing condition
    if rec.first_timer:
        return "first-timer"
    return "uncharged-reentry"


def expected_phi_delta(rec: StepRecord) -> int:
    """Exact potential change implied by the updated scheme's bookkeeping."""
    bears = rec.bears_foreign + (1 if rec.bears_self else 0)
    d_open = -(1 if rec.gives else 0) - rec.bears_foreign + (0 if rec.in_a else 1)
    d_i = 1 if rec.first_timer else 0
    d_d = 1 if bears == 2 else 0
    d_u = 1 if (not rec.in_ref and rec.prev_ref_evicted and bears == 0) else 0
    return d_i - d_d - d_open + d_u


def run_audit(
    seq,
    alg,
    ref,
    k: int,
    init_cache,
    scheme: str,
    seed,
    T: int,
    T_ext: int | None = None,
    chain=None,
) -> AuditReport:
    """The selected scheme's ``ledger`` over ``engine.replay`` of both policies
    on ``seq``, the algorithm from seed ``(*seed, 0)`` and the reference from
    ``(*seed, 1)``. Inputs are checked before either policy's reset, which
    fails on a chain a memoryless rule cannot handle even when ``T`` is 0."""
    pages, _, _, init_cache = _audit_inputs(seq, k, init_cache, scheme, T, T_ext, chain)
    base = _seed_tuple(seed)
    a_victims = replay(alg, chain, k, pages, init_cache, (*base, 0), T)
    r_victims = replay(ref, chain, k, pages, init_cache, (*base, 1), T)
    return ledger(pages, a_victims, r_victims, k, init_cache, scheme, T, T_ext, chain)


def _audit_inputs(seq, k, init_cache, scheme, T, T_ext, chain):
    """``(pages, T_ext, n, init_cache)``, checked as ``ledger`` says."""
    check_horizon(T)
    if scheme not in ("original", "updated"):
        raise ValueError(f"scheme must be 'original' or 'updated', got {scheme!r}")
    pages = np.asarray(seq, dtype=np.int64)
    if T_ext is None:
        T_ext = len(pages)
    if not T <= T_ext <= len(pages):
        raise SequenceTooShort(f"need T={T} <= T_ext={T_ext} <= len(seq)={len(pages)}")
    n = chain.n if chain is not None else 1 + max(int(pages.max(initial=0)), max(init_cache, default=0))
    return pages, T_ext, n, check_cache(init_cache, n, k)


def _serve_miss(victims, cache, s: int, t: int, who: str) -> int:
    """Evict the next of ``victims`` from ``cache`` for page ``s``."""
    victim = next(victims, None)
    if victim not in cache:
        raise ValueError(f"t={t}: the {who} misses without a resident victim (next: {victim})")
    cache.remove(victim)
    cache.add(s)
    return int(victim)


def ledger(seq, a_victims, r_victims, k: int, init_cache, scheme: str, T: int,
           T_ext: int | None = None, chain=None) -> AuditReport:
    """The selected scheme's ledger over requests 1..T of ``seq``, given each
    policy's victims, one per miss in request order (``engine.replay``).

    ``seq`` is a page index array; it must extend to ``T_ext`` (default:
    its full length) so savior events can be resolved. ``init_cache`` must
    hold k distinct pages in 0..n-1, n (the report's) being ``chain.n`` or,
    without a chain, one more than the largest page of ``seq`` and
    ``init_cache``, and ``T`` must be >= 0; otherwise ``ValueError``, as for
    victims that do not match the misses or are not resident.
    """
    pages, T_ext, n, init_cache = _audit_inputs(seq, k, init_cache, scheme, T, T_ext, chain)
    a_next, r_next = iter(a_victims), iter(r_victims)

    a_cache = set(init_cache)
    r_cache = set(init_cache)
    charge: dict[int, int] = {}
    seen = set(init_cache)  # initial pages and every page requested so far
    ref_evicted_ever: set[int] = set()

    I = D = U = 0
    a_misses = ref_misses = 0
    steps: list[StepRecord] = []
    events: list[SaviorEvent] = []
    violations: list[str] = []

    for t in range(1, T + 1):
        s = int(pages[t - 1])
        in_a = s in a_cache
        in_ref = s in r_cache
        gives = s in charge
        bearers = [p for p, c in charge.items() if c == s]
        bears_self = s in bearers
        bears_foreign = len(bearers) - (1 if bears_self else 0)
        bears = len(bearers)
        first_timer = s not in seen
        prev_ref_evicted = s in ref_evicted_ever
        phi_before = I - D - len(charge) + U

        if first_timer:
            I += 1
        if bears == 2:
            D += 1
        if not in_ref and prev_ref_evicted and bears == 0:
            U += 1

        a_minus = frozenset(a_cache)
        a_evicted = ref_evicted = -1
        if not in_a:
            a_misses += 1
            a_evicted = _serve_miss(a_next, a_cache, s, t, "algorithm")
        if not in_ref:
            ref_misses += 1
            ref_evicted = _serve_miss(r_next, r_cache, s, t, "reference")

        cleared = 0
        if charge.pop(s, None) is not None:
            cleared += 1
        if scheme == "updated":
            for p in bearers:
                if p != s and charge.get(p) == s:
                    del charge[p]
                    cleared += 1

        savior_assigned = -1
        ambiguous_here = False
        if a_evicted >= 0:
            if a_evicted not in r_cache:
                charge[a_evicted] = a_evicted
            else:
                q, ambiguous_here = _select_savior(a_minus, r_cache, charge, t)
                charge[a_evicted] = q
                savior_assigned = q
                if q in r_cache:
                    violations.append(f"t={t}: savior {q} resides in reference cache")
            events.append(SaviorEvent(t=t, evicted=a_evicted, savior=charge[a_evicted]))

        if ref_evicted >= 0:
            c = charge.get(ref_evicted)
            if c is not None and c != ref_evicted:
                charge[ref_evicted] = ref_evicted

        seen.add(s)
        if ref_evicted >= 0:
            ref_evicted_ever.add(ref_evicted)

        _structural_checks(scheme, t, charge, a_cache, seen, violations)

        rec = StepRecord(
            t=t,
            requested=s,
            a_miss=not in_a,
            a_evicted=a_evicted,
            ref_miss=not in_ref,
            ref_evicted=ref_evicted,
            in_a=in_a,
            in_ref=in_ref,
            gives=gives,
            bears_self=bears_self,
            bears_foreign=bears_foreign,
            first_timer=first_timer,
            prev_ref_evicted=prev_ref_evicted,
            cleared=cleared,
            savior_assigned=savior_assigned,
            case="",
            ambiguous_savior=ambiguous_here,
            I=I,
            D=D,
            O_open=len(charge),
            U=U,
            N0=sum(1 for p in r_cache if p not in a_cache and p not in charge),
            phi_before=phi_before,
            phi=I - D - len(charge) + U,
        )
        rec.case = _classify(rec)
        steps.append(rec)

    if next(a_next, None) is not None or next(r_next, None) is not None:
        raise ValueError(f"more victims than misses (algorithm {a_misses}, reference {ref_misses})")
    _resolve_events(events, pages, T_ext)

    return AuditReport(
        scheme=scheme,
        n=n,
        k=k,
        T=T,
        T_ext=T_ext,
        steps=steps,
        savior_events=events,
        first_time_misses=I,
        doubly_charged_requests=D,
        open_charges=len(charge),
        uncharged_reentries=U,
        a_misses=a_misses,
        ref_misses=ref_misses,
        violations=violations,
    )


def _select_savior(a_minus, ref_after, charge, t):
    """Lowest-indexed admissible savior from (algorithm cache) - (ref cache).

    Preferred candidates bear no foreign charge at all; the written rule only
    excludes charges given by (ref cache) - (algorithm cache), which can admit
    more pages while the current step's reference eviction awaits
    reassignment. When only the written rule finds a page the step is flagged
    ambiguous rather than failed.
    """
    candidates = sorted(a_minus - ref_after)
    foreign_borne = {q for p, q in charge.items() if p != q}
    blocked = {q for p, q in charge.items() if p in ref_after and p not in a_minus}
    strict = [q for q in candidates if q not in foreign_borne]
    literal = [q for q in candidates if q not in blocked]
    ambiguous = set(strict) != set(literal)
    if strict:
        return strict[0], ambiguous
    if literal:
        return literal[0], True
    raise NoEligibleSavior(f"t={t}: no admissible savior among {candidates}")


def _structural_checks(scheme, t, charge, a_cache, seen, violations):
    for p, c in charge.items():
        if p in a_cache:
            violations.append(f"t={t}: resident page {p} gives a charge")
    if scheme == "original":
        for p in seen:
            if p not in a_cache and p not in charge:
                violations.append(f"t={t}: evicted page {p} gives no charge (original scheme)")
    borne: dict[int, int] = {}
    for p, c in charge.items():
        borne[c] = borne.get(c, 0) + 1
    for q, cnt in borne.items():
        if cnt > 2:
            violations.append(f"t={t}: page {q} bears {cnt} charges")
        elif cnt == 2 and charge.get(q) != q:
            violations.append(f"t={t}: page {q} bears two charges but no self-charge")


def _resolve_events(events, pages, T_ext):
    requests = pages[:T_ext].tolist()
    for e in events:
        later = requests[e.t:]  # the requests after step t, through T_ext
        e.resolved = e.savior in later and (
            e.evicted not in later or later.index(e.savior) <= later.index(e.evicted)
        )


@dataclass(frozen=True)
class AccountingCheck:
    ok: bool
    scheme: str
    ref_misses: int
    bound: float
    detail: str


def check_accounting(report: AuditReport) -> AccountingCheck:
    """Assert the scheme's lower bound on the reference's miss count."""
    beta = report.resolved_saviors
    if report.scheme == "updated":
        bound = beta - report.doubly_charged_requests - report.open_charges + report.uncharged_reentries
        detail = (
            f"beta={beta} D={report.doubly_charged_requests} "
            f"O={report.open_charges} U={report.uncharged_reentries}"
        )
    else:
        bound = 0.5 * (beta - report.open_charges) + report.first_time_misses
        detail = f"beta={beta} O={report.open_charges} I={report.first_time_misses}"
    return AccountingCheck(
        ok=report.ref_misses >= bound - 1e-12,
        scheme=report.scheme,
        ref_misses=report.ref_misses,
        bound=bound,
        detail=detail,
    )


@dataclass(frozen=True)
class DeltaCheck:
    """Findings of a per-step check, in step order.

    ``bookkeeping`` holds the failures that mean the ledger is wrong, and
    ``claim`` the failures of the refuted potential claim Phi >= 0 (findings,
    not errors). ``failures`` lists both, interleaved as they occurred.
    """

    ok: bool
    failures: list[str]
    bookkeeping: list[str] = field(default_factory=list)
    claim: list[str] = field(default_factory=list)


def step_delta_check(report: AuditReport) -> DeltaCheck:
    """Verify the updated scheme's per-step potential deltas exactly.

    Every step's observed potential change must equal the change implied by
    its before-state, and no foreign-charged page may sit outside the
    algorithm's cache; failures of either go to ``bookkeeping``. The
    ``claim`` list reports every step where the claim that Phi >= 0, and
    Phi >= 1 before each potential-dropping step, fails; that claim has a
    realizable counterexample (module docstring), so its failures are
    findings, not bookkeeping errors. ``credit_check`` checks the invariant
    that holds.
    """
    if report.scheme != "updated":
        raise ValueError("per-step potential claims apply to the updated scheme only")
    failures, bookkeeping, claim = [], [], []

    def fail(kind, message):
        kind.append(message)
        failures.append(message)

    for rec in report.steps:
        observed = rec.phi - rec.phi_before
        expected = expected_phi_delta(rec)
        if observed != expected:
            fail(bookkeeping, f"t={rec.t} ({rec.case}): delta {observed} != expected {expected}")
        if rec.case == "potential-drop" and rec.phi_before < 1:
            fail(claim, f"t={rec.t}: potential {rec.phi_before} not positive before drop")
        if rec.case == "borne-out-of-cache":
            fail(bookkeeping, f"t={rec.t}: foreign-charged page outside algorithm cache")
        if rec.phi < 0:
            fail(claim, f"t={rec.t}: potential {rec.phi} negative")
    return DeltaCheck(ok=not failures, failures=failures, bookkeeping=bookkeeping, claim=claim)


def credit_check(report: AuditReport) -> DeltaCheck:
    """Verify the updated scheme's credit invariant Psi >= N0 at every step.

    Psi = I - O + U = Phi + D, and N0 counts the pages in the reference's
    cache, outside the algorithm's, that give no charge. Psi - N0 starts at 0
    and never decreases:

    * N0 grows only when rule 1b clears a foreign charge at its bearer's
      request, and that request adds one to Psi.
    * A potential-drop step requests a page counted in N0; it lowers both
      Psi and N0 by one.
    * A reference eviction can only lower N0.

    So Psi >= 1 before every potential-drop step, and Phi = Psi - D falls
    below N0 only by D, the doubly-charged requests so far.
    """
    if report.scheme != "updated":
        raise ValueError("the credit invariant applies to the updated scheme only")
    failures = []
    psi_before = credit_before = 0
    for rec in report.steps:
        credit = rec.psi - rec.N0
        if credit < credit_before:
            failures.append(f"t={rec.t} ({rec.case}): credit Psi-N0 fell from {credit_before} to {credit}")
        if rec.case == "potential-drop" and psi_before < 1:
            failures.append(f"t={rec.t}: Psi {psi_before} not positive before drop")
        psi_before, credit_before = rec.psi, credit
    return DeltaCheck(ok=not failures, failures=failures, bookkeeping=list(failures))


TRACE_COLUMNS = (
    "t,requested,A_miss,A_evicted,ref_miss,ref_evicted,"
    "charges_cleared,charge_assigned,I,D,O_open,U,Phi"
)


def trace_csv_lines(report: AuditReport) -> list[str]:
    lines = [TRACE_COLUMNS]
    for r in report.steps:
        lines.append(
            f"{r.t},{r.requested},{int(r.a_miss)},{r.a_evicted},{int(r.ref_miss)},"
            f"{r.ref_evicted},{r.cleared},{r.savior_assigned},"
            f"{r.I},{r.D},{r.O_open},{r.U},{r.phi}"
        )
    return lines
