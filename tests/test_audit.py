import dataclasses

import numpy as np
import pytest

from markov_paging import policies as policies_mod
from markov_paging.audit import (
    NoEligibleSavior,
    SequenceTooShort,
    _select_savior,
    _structural_checks,
    check_accounting,
    credit_check,
    ledger,
    replay_pair,
    run_audit,
    step_delta_check,
    trace_csv_lines,
)
from markov_paging.alpha import SingularSystem
from markov_paging.chain import forget, random_chain, sample_sequence, validate_chain
from markov_paging.engine import replay
from markov_paging.optdp import opt_expected_cost
from markov_paging.policies import (
    DominatingPolicy,
    FarthestInFuture,
    FifoPolicy,
    LruPolicy,
    MedianPolicy,
    OptReplayPolicy,
    RandomEvictionPolicy,
)


def scripted_audit(seq, a_evictions, r_evictions, k, init, scheme, T=None, T_ext=None):
    """The ledger of fixed eviction lists over ``seq``."""
    pages = np.asarray(seq)
    T = len(pages) if T is None else T
    return ledger(pages, a_evictions, r_evictions, k, init, scheme, T, T_ext)


class TestSingleChargeCredit:
    """A savior request paid before the evictee returns is one full unit.

    The algorithm evicts 0 (still resident in the reference) charging savior
    1; 1 is requested while singly charged, a reference miss, before 0
    returns. The one-charge bookkeeping credits it without halving.
    """

    def run(self, scheme):
        return scripted_audit([2, 1, 0], [0, 2], [1, 2], 2, (0, 1), scheme)

    def test_savior_event_resolves(self):
        rep = self.run("updated")
        assert [(e.t, e.evicted, e.savior, e.resolved) for e in rep.savior_events] == [
            (1, 0, 1, True),
            (3, 2, 2, False),
        ]
        assert rep.resolved_saviors == 1

    def test_counted_once_not_halved(self):
        rep = self.run("updated")
        step2 = rep.steps[1]
        assert not step2.in_ref and step2.bears_foreign == 1 and not step2.bears_self
        assert rep.doubly_charged_requests == 0
        # full-credit bound: beta - D - O + U = 1 - 0 - 1 + 0
        acct = check_accounting(rep)
        assert acct.ok and acct.bound == 0 and rep.ref_misses == 2

    def test_borne_charge_cleared_on_request(self):
        rep = self.run("updated")
        assert rep.steps[1].case == "borne-in-cache"
        assert rep.steps[1].cleared == 1


class TestOpenChargeClearing:
    """A paid-off savior should not linger as an open charge at the horizon.

    0 charges savior 1 at t=1; 1 is requested at t=2 (the charge is paid) but
    0 only returns after the horizon T=2. The one-sided scheme keeps 0's
    charge open; the bearing-side clearing drops it at 1's request.
    """

    def run(self, scheme):
        return scripted_audit([2, 1, 0, 0], [0], [1, 2], 2, (0, 1), scheme, T=2, T_ext=4)

    def test_original_counts_open_charge(self):
        rep = self.run("original")
        assert rep.open_charges == 1
        assert rep.resolved_saviors == 1

    def test_updated_clears_on_bearers_request(self):
        rep = self.run("updated")
        assert rep.open_charges == 0
        assert rep.resolved_saviors == 1
        assert rep.steps[1].cleared == 1

    def test_both_accountings_hold(self):
        for scheme in ("original", "updated"):
            assert check_accounting(self.run(scheme)).ok


class TestUnchargedReentry:
    """A page the reference evicted long ago, requested while uncharged.

    Savior 1's charge is cleared when its giver 0 returns first (so the
    savior event stays unresolved); when 1 is finally requested it bears no
    charges yet still misses in the reference cache, which only the
    reentry counter notices.
    """

    def run(self, scheme):
        return scripted_audit([3, 4, 0, 1], [0, 3, 2], [1, 2, 3], 3, (0, 1, 2), scheme)

    def test_reentry_counted(self):
        rep = self.run("updated")
        assert rep.uncharged_reentries == 1
        assert rep.steps[3].case == "uncharged-reentry"
        assert not rep.steps[3].in_ref

    def test_giver_return_clears_and_beta_zero(self):
        rep = self.run("updated")
        first = rep.savior_events[0]
        assert (first.t, first.evicted, first.savior, first.resolved) == (1, 0, 1, False)
        assert rep.steps[2].cleared == 1  # 0's request drops its charge on 1

    def test_savior_eligibility_skips_blocked_page(self):
        # at t=2 page 1 already bears 0's charge (0 outside the algorithm
        # cache, inside the reference cache), so the savior must be 2
        rep = self.run("updated")
        assert rep.savior_events[1].savior == 2
        assert rep.violations == []


class TestPotentialCounterexample:
    """Frozen run where the potential dips below zero.

    The savior (page 2) is evicted by the algorithm while outside the
    reference cache and self-charges, so its later request clears two charges
    at once (a doubly-charged step, potential delta 0 instead of +1). The
    subsequent request to the original evictee (page 1: in the reference
    cache, out of the algorithm cache, uncharged) then drops the potential to
    -1. Every per-step delta still matches the bookkeeping exactly, and the
    accounting inequalities hold; only the nonnegativity claim breaks. The
    credit Psi = Phi + D never falls below N0, and meets it at every step.
    """

    def run(self):
        return scripted_audit([2, 0, 3, 2, 1], [0, 1, 2, 3, 0], [0, 2, 0, 3], 2, (0, 1), "updated")

    def test_potential_goes_negative(self):
        rep = self.run()
        assert rep.phi_trace == [0, 0, 0, 0, -1]
        assert rep.steps[4].case == "potential-drop"
        assert rep.steps[4].phi_before == 0

    def test_deltas_exact_despite_negative_potential(self):
        rep = self.run()
        check = step_delta_check(rep)
        assert not check.ok
        assert check.bookkeeping == []
        assert check.claim == check.failures
        assert any("not positive before drop" in f for f in check.claim)
        assert any("negative" in f for f in check.claim)

    def test_accounting_still_holds(self):
        rep = self.run()
        assert check_accounting(rep).ok
        assert rep.violations == []

    def test_doubly_charged_step_is_neutral(self):
        rep = self.run()
        step4 = rep.steps[3]
        assert step4.case == "doubly-charged"
        assert step4.phi - step4.phi_before == 0

    def test_credit_invariant_tight(self):
        rep = self.run()
        assert [r.psi for r in rep.steps] == [0, 0, 0, 1, 0]
        assert [r.N0 for r in rep.steps] == [0, 0, 0, 1, 0]
        assert credit_check(rep).ok


K, T, MULT = 2, 20, 10
SCHEMES = ("original", "updated")


def _random_run(run):
    """Chain, sequence, algorithm and reference of random run ``run``."""
    chain = random_chain(4, [500, run])
    seq = sample_sequence(chain, T * MULT, [500, run, 2])
    _, table = opt_expected_cost(chain, K, T, tuple(range(K)))
    return chain, seq, DominatingPolicy(), OptReplayPolicy(table)


def _random_audit(run, scheme):
    chain, seq, alg, ref = _random_run(run)
    return run_audit(seq, alg, ref, K, tuple(range(K)), scheme, seed=[500, run], T=T, T_ext=T * MULT, chain=chain)


def _random_ledgers(run, schemes=SCHEMES):
    """The ledgers of random run ``run`` over one ``replay_pair``."""
    chain, seq, alg, ref = _random_run(run)
    init = tuple(range(K))
    victims = replay_pair(seq, alg, ref, K, init, (500, run), T, chain)
    return {scheme: ledger(seq, *victims, K, init, scheme, T, T * MULT, chain) for scheme in schemes}


def test_random_battery_structure_and_accounting():
    for run in range(150):
        for scheme, rep in _random_ledgers(run).items():
            assert rep.violations == []
            assert check_accounting(rep).ok, (run, scheme)


def test_random_battery_deltas_match_bookkeeping():
    for run in range(150):
        rep = _random_ledgers(run, ("updated",))["updated"]
        check = step_delta_check(rep)
        assert check.bookkeeping == [], (run, check.bookkeeping)
        assert credit_check(rep).failures == [], run


class TestTamperedReport:
    """Each failure message of the per-step checks, reached by editing one
    step of a real, clean report: a ledger error is bookkeeping, never a
    claim finding."""

    def tampered(self, i, **fields):
        rep = _random_audit(0, "updated")
        assert step_delta_check(rep).ok and credit_check(rep).ok
        assert [(r.case, r.phi, r.N0) for r in rep.steps[:3]] == [("clean-hit", 0, 0)] * 3
        rep.steps[i] = dataclasses.replace(rep.steps[i], **fields)
        return rep

    def test_potential_off_by_one(self):
        rep = self.tampered(0, phi=1)
        check = step_delta_check(rep)
        assert check.bookkeeping == check.failures == ["t=1 (clean-hit): delta 1 != expected 0"]
        assert check.claim == []
        credit = credit_check(rep)
        assert credit.bookkeeping == credit.failures == ["t=2 (clean-hit): credit Psi-N0 fell from 1 to 0"]

    def test_foreign_charge_outside_the_cache(self):
        check = step_delta_check(self.tampered(1, case="borne-out-of-cache"))
        assert check.bookkeeping == check.failures == ["t=2: foreign-charged page outside algorithm cache"]
        assert check.claim == []

    def test_credit_falls_with_n0(self):
        rep = self.tampered(2, N0=1)
        assert step_delta_check(rep).ok
        credit = credit_check(rep)
        assert credit.bookkeeping == credit.failures == ["t=3 (clean-hit): credit Psi-N0 fell from 0 to -1"]

    def test_drop_without_credit(self):
        rep = self.tampered(0, case="potential-drop")
        credit = credit_check(rep)
        assert credit.bookkeeping == credit.failures == ["t=1: Psi 0 not positive before drop"]
        check = step_delta_check(rep)  # the refuted claim's finding, not an error
        assert check.claim == check.failures == ["t=1: potential 0 not positive before drop"]
        assert check.bookkeeping == []


@pytest.mark.parametrize(
    "scheme,charge,a_cache,seen,message",
    [
        ("updated", {0: 2}, {0, 1}, {0, 1, 2}, "t=5: resident page 0 gives a charge"),
        ("original", {}, {0, 1}, {0, 1, 2}, "t=5: evicted page 2 gives no charge (original scheme)"),
        ("updated", {2: 1, 3: 1, 4: 1}, {0, 1}, set(), "t=5: page 1 bears 3 charges"),
        ("updated", {2: 1, 3: 1}, {0, 1}, set(), "t=5: page 1 bears two charges but no self-charge"),
    ],
    ids=["resident-giver", "original-uncharged", "three-charges", "two-without-self"],
)
def test_structural_checks_name_a_corrupt_charge_map(scheme, charge, a_cache, seen, message):
    violations = []
    _structural_checks(scheme, 5, charge, a_cache, seen, violations)
    assert violations == [message]


def test_updated_never_holds_more_open_charges():
    for run in range(60):
        reps = _random_ledgers(run)
        orig, upd = reps["original"], reps["updated"]
        assert upd.open_charges <= orig.open_charges
        # identical replays underneath: same realized runs
        assert orig.a_misses == upd.a_misses and orig.ref_misses == upd.ref_misses


def test_mixed_policy_battery_structure_and_accounting():
    # scheme guarantees hold for any (algorithm, reference) pair, not just
    # dominating-vs-optimal; cycle through history-dependent references too
    rng = np.random.default_rng(4242)
    algs = [DominatingPolicy(), MedianPolicy(), RandomEvictionPolicy()]
    for run in range(120):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, min(4, n)))
        T = int(rng.integers(5, 30))
        chain = random_chain(n, [9900, run])
        init = tuple(range(k))
        seq = sample_sequence(chain, T * 10, [9900, run, 2])
        if run % 4 == 0:
            _, table = opt_expected_cost(chain, k, T, init)
            ref = OptReplayPolicy(table)
        else:
            ref = [FarthestInFuture(), LruPolicy(), FifoPolicy()][run % 3]
        victims = replay_pair(seq, algs[run % 3], ref, k, init, (9900, run), T, chain)
        for scheme in SCHEMES:
            rep = ledger(seq, *victims, k, init, scheme, T, T * 10, chain)
            assert rep.violations == [], (run, scheme)
            assert check_accounting(rep).ok, (run, scheme)
            if scheme == "updated":
                bad = step_delta_check(rep).bookkeeping
                assert bad == [], (run, bad)
                assert credit_check(rep).failures == [], run


def test_delta_check_rejects_original_scheme():
    rep = _random_audit(0, "original")
    with pytest.raises(ValueError):
        step_delta_check(rep)


def test_credit_check_rejects_original_scheme():
    rep = _random_audit(0, "original")
    with pytest.raises(ValueError):
        credit_check(rep)


def test_clairvoyant_self_audit_never_certifies_reference_cheaper():
    chain = random_chain(4, 77)
    T = 30
    seq = sample_sequence(chain, T * 10, 8)
    for scheme in ("original", "updated"):
        rep = run_audit(
            seq, FarthestInFuture(), FarthestInFuture(), 2, (0, 1), scheme,
            seed=1, T=T, chain=chain,
        )
        assert rep.a_misses == rep.ref_misses  # identical deterministic runs
        assert check_accounting(rep).ok
        assert rep.violations == []


def test_empty_horizon_accounting_trivially_holds():
    chain = random_chain(3, 1)
    seq = sample_sequence(chain, 5, 2)
    rep = run_audit(seq, DominatingPolicy(), FarthestInFuture(), 2, (0, 1), "updated",
                    seed=0, T=0, chain=chain)
    acct = check_accounting(rep)
    assert acct.ok and acct.bound == 0 and rep.ref_misses == 0


def test_singular_chain_fails_before_the_first_request():
    # page 3 is absorbing, so the precedence systems are singular; the replay
    # builds the dominating table, which fails even with no request to serve
    chain = validate_chain([[0, 0, 0, 1]] * 4)
    with pytest.raises(SingularSystem):
        run_audit(np.array([3, 3]), DominatingPolicy(), FarthestInFuture(), 2, (0, 1), "updated",
                  seed=0, T=0, chain=chain)


def test_sequence_too_short():
    chain = random_chain(3, 1)
    seq = sample_sequence(chain, 5, 2)
    with pytest.raises(SequenceTooShort):
        run_audit(seq, DominatingPolicy(), FarthestInFuture(), 2, (0, 1), "updated",
                  seed=0, T=9, chain=chain)


@pytest.mark.parametrize("cache", [(0, 0), (0, 9), (1,)])
def test_bad_init_cache_rejected(cache):
    chain = random_chain(4, 1)
    seq = sample_sequence(chain, 20, 2)
    with pytest.raises(ValueError, match="distinct pages in 0..3"):
        run_audit(seq, DominatingPolicy(), FarthestInFuture(), 2, cache, "updated",
                  seed=0, T=15, chain=chain)


def test_negative_horizon_rejected():
    chain = random_chain(3, 1)
    seq = sample_sequence(chain, 5, 2)
    with pytest.raises(ValueError, match="T must be >= 0"):
        run_audit(seq, DominatingPolicy(), FarthestInFuture(), 2, (0, 1), "updated",
                  seed=0, T=-3, chain=chain)


def test_pages_outside_the_chain_rejected():
    """A negative page, or one not below ``chain.n``, is named before any
    replay; with no chain only a negative page is out of range."""
    chain = random_chain(4, 1)
    _, table = opt_expected_cost(chain, 2, 3, (0, 1))
    for seq, page in (([2, 3, -1], -1), ([2, 9, 3, 0], 9)):
        with pytest.raises(ValueError, match=rf"^page {page} is not among the chain's pages 0\.\.3$"):
            run_audit(np.array(seq), DominatingPolicy(), OptReplayPolicy(table), 2, (0, 1), "updated",
                      seed=0, T=3, chain=chain)
        with pytest.raises(ValueError, match=rf"^page {page} is not among"):
            ledger(np.array(seq), [], [], 2, (0, 1), "updated", 0, chain=chain)
    with pytest.raises(ValueError, match=r"^page -2 is not a page index$"):
        ledger(np.array([2, -2, 0]), [], [], 2, (0, 1), "updated", 0)


def test_report_names_the_validated_size():
    # the sequence uses pages 0 and 1 only; the chain has 4
    chain = random_chain(4, 1)
    rep = run_audit(np.array([0, 1, 0, 1]), DominatingPolicy(), FarthestInFuture(), 2, (0, 1),
                    "updated", seed=0, T=4, chain=chain)
    assert rep.n == 4
    bare = scripted_audit([0, 1, 0], [3], [3], 2, (0, 3), "updated")
    assert bare.n == 4


class TestSharedTables:
    """Both charging schemes' audits of one chain, each with a fresh
    DominatingPolicy, share one precedence table and one LP stack."""

    SCHEMES = ("updated", "original")

    def test_one_lp_stack_for_both_schemes(self, monkeypatch):
        stacks = []
        real = policies_mod.solve_lp

        def counting(c, a_ub, *rest):
            stacks.append(len(a_ub))
            return real(c, a_ub, *rest)

        monkeypatch.setattr(policies_mod, "solve_lp", counting)
        for scheme in self.SCHEMES:
            _random_audit(4, scheme)
        assert stacks == [6 * 2]  # every (cache, request) LP of n = 4, k = 2

    @pytest.mark.parametrize("run", range(4))
    def test_reports_equal_rebuilt_tables(self, run):
        shared = [_random_audit(run, scheme) for scheme in self.SCHEMES]
        rebuilt = []
        for scheme in self.SCHEMES:
            forget()
            rebuilt.append(_random_audit(run, scheme))
        for a, b in zip(shared, rebuilt):
            assert trace_csv_lines(a) == trace_csv_lines(b)
            assert a == b


def test_audit_deterministic():
    a = _random_audit(3, "updated")
    b = _random_audit(3, "updated")
    assert trace_csv_lines(a) == trace_csv_lines(b)
    assert a.open_charges == b.open_charges


def test_select_savior_prefers_uncharged_then_falls_back():
    # 0 charges 1 from inside the reference cache: 1 blocked under both rules
    q, amb = _select_savior(frozenset({1, 2}), frozenset({0, 5}), {0: 1}, t=1)
    assert q == 2 and not amb
    # stale giver 9 (outside the reference cache) blocks 1 only under the
    # conservative rule: fall back is not needed but the sets differ
    q, amb = _select_savior(frozenset({1, 2}), frozenset({5}), {9: 1}, t=1)
    assert q == 2 and amb
    # every candidate foreign-charged from inside the reference: impossible
    with pytest.raises(NoEligibleSavior):
        _select_savior(frozenset({1}), frozenset({0}), {0: 1}, t=1)


def test_select_savior_stale_charge_fallback_path():
    # single candidate whose only charge is stale: conservative rule finds
    # nothing, the written rule admits it; flagged ambiguous
    q, amb = _select_savior(frozenset({1}), frozenset({5}), {9: 1}, t=1)
    assert q == 1 and amb


def test_trace_csv_shape():
    rep = _random_audit(1, "updated")
    lines = trace_csv_lines(rep)
    assert lines[0] == (
        "t,requested,A_miss,A_evicted,ref_miss,ref_evicted,"
        "charges_cleared,charge_assigned,I,D,O_open,U,Phi"
    )
    assert len(lines) == rep.T + 1
    assert all(len(line.split(",")) == 13 for line in lines[1:])


ALGORITHMS = {
    "dominating": DominatingPolicy,
    "adversarial": lambda: DominatingPolicy(target=0),
    "median": MedianPolicy,
    "random": RandomEvictionPolicy,
}
REFERENCES = {
    "opt-dp": None,  # built per chain
    "fif": FarthestInFuture,
    "lru": LruPolicy,
    "fifo": FifoPolicy,
}


@pytest.mark.parametrize("ref_name", REFERENCES)
@pytest.mark.parametrize("alg_name", ALGORITHMS)
def test_ledger_over_one_replay_equals_run_audit(alg_name, ref_name):
    k, T, init = 2, 15, (0, 1)
    for run in range(3):
        chain = random_chain(4, [610, run])
        seq = sample_sequence(chain, T * 5, [610, run, 2])

        def make(name, factories):
            if name == "opt-dp":
                return OptReplayPolicy(opt_expected_cost(chain, k, T, init)[1])
            return factories[name]()

        a = replay(make(alg_name, ALGORITHMS), chain, k, seq, init, (610, run, 0), T)
        r = replay(make(ref_name, REFERENCES), chain, k, seq, init, (610, run, 1), T)
        for scheme in SCHEMES:
            got = ledger(seq, a, r, k, init, scheme, T, chain=chain)
            want = run_audit(seq, make(alg_name, ALGORITHMS), make(ref_name, REFERENCES), k, init,
                             scheme, [610, run], T, chain=chain)
            assert got == want, (run, scheme)
            assert trace_csv_lines(got) == trace_csv_lines(want)


def test_replay_hands_the_reference_requests_past_the_horizon():
    # at t=1 page 2 misses; 0 returns at t=2 and 1 only at t=3, past T=1, so
    # farthest-in-future evicts 1. Cut at T, the trace would show neither
    # page again and the tie would evict 0.
    seq = np.array([2, 0, 1])
    assert replay(FarthestInFuture(), None, 2, seq, (0, 1), 0, T=1) == [1]
    rep = run_audit(seq, FarthestInFuture(), FarthestInFuture(), 2, (0, 1), "updated", seed=0, T=1)
    assert rep.steps[0].a_evicted == rep.steps[0].ref_evicted == 1


class TestLedgerInputs:
    """``ledger`` takes its victims as given, so it checks them."""

    # from cache (0, 1) both policies miss at t=1 and t=2
    SEQ = np.array([2, 3])

    def test_non_resident_victim(self):
        with pytest.raises(ValueError, match="t=1: the algorithm"):
            ledger(self.SEQ, [3, 1], [1, 0], 2, (0, 1), "updated", 2)
        with pytest.raises(ValueError, match="t=2: the reference"):
            ledger(self.SEQ, [0, 1], [1, 1], 2, (0, 1), "updated", 2)

    def test_too_few_victims(self):
        with pytest.raises(ValueError, match="t=2: the algorithm"):
            ledger(self.SEQ, [0], [1, 0], 2, (0, 1), "updated", 2)
        with pytest.raises(ValueError, match="t=1: the reference"):
            ledger(self.SEQ, [0, 1], [], 2, (0, 1), "updated", 2)

    def test_too_many_victims(self):
        assert ledger(self.SEQ, [0, 1], [1, 0], 2, (0, 1), "original", 2).a_misses == 2
        with pytest.raises(ValueError, match="more victims than misses"):
            ledger(self.SEQ, [0, 1, 2], [1, 0], 2, (0, 1), "original", 2)
        with pytest.raises(ValueError, match="more victims than misses"):
            ledger(self.SEQ, [0, 1], [1, 0, 2], 2, (0, 1), "original", 2)
