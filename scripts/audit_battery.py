#!/usr/bin/env python3
"""Charging-scheme audit sweep with claim-violation statistics.

Runs many audited (chain, sequence) pairs and tallies, per scheme, how often
each checked property fails: ledger structure, the accounting inequality, the
per-step bookkeeping (exact potential deltas and no foreign charge outside the
algorithm's cache, column ``delta_mismatch``), the potential-nonnegativity
claim and the credit invariant Psi >= N0 (``audit.credit_check``, column
``credit``). The potential claim is the interesting column: it has a
realizable counterexample (the savior self-charge corner) and fails on a small
but steady fraction of random runs, while everything else stays at zero.

    python scripts/audit_battery.py --runs 2000 --seed 0
"""

import argparse
import sys
from collections import Counter

from markov_paging import audit as audit_mod
from markov_paging.chain import random_chain, sample_sequence
from markov_paging.optdp import opt_expected_cost
from markov_paging.policies import DominatingPolicy, OptReplayPolicy


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=1000)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--T", type=int, default=20)
    ap.add_argument("--ext-mult", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    tallies = {scheme: Counter() for scheme in ("original", "updated")}
    for run in range(args.runs):
        chain = random_chain(args.n, [args.seed, run])
        init = tuple(range(args.k))
        seq = sample_sequence(chain, args.T * args.ext_mult, [args.seed, run, 2])
        _, table = opt_expected_cost(chain, args.k, args.T, init)
        # one replay per policy serves both schemes
        victims = audit_mod.replay_pair(
            seq, DominatingPolicy(), OptReplayPolicy(table), args.k, init, (args.seed, run), args.T, chain
        )
        for scheme in ("original", "updated"):
            rep = audit_mod.ledger(
                seq, *victims, args.k, init, scheme, args.T, args.T * args.ext_mult, chain
            )
            t = tallies[scheme]
            t["runs"] += 1
            t["structural"] += bool(rep.violations)
            t["accounting"] += not audit_mod.check_accounting(rep).ok
            t["ambiguous_savior"] += any(rec.ambiguous_savior for rec in rep.steps)
            if scheme == "updated":
                check = audit_mod.step_delta_check(rep)
                t["delta_mismatch"] += bool(check.bookkeeping)
                t["potential_claim"] += bool(check.claim)
                t["credit"] += not audit_mod.credit_check(rep).ok

    print("scheme,runs,structural,accounting,delta_mismatch,potential_claim,credit,ambiguous_savior")
    for scheme, t in tallies.items():
        print(
            f"{scheme},{t['runs']},{t['structural']},{t['accounting']},"
            f"{t['delta_mismatch']},{t['potential_claim']},{t['credit']},{t['ambiguous_savior']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
