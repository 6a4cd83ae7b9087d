"""Paging under Markov-chain request models.

Core pieces: validated chains and request sampling (:mod:`.chain`), pairwise
precedence probabilities from pinned linear systems (:mod:`.alpha`), eviction
policies including the dominating-distribution family and the median rule
(:mod:`.policies`), the exact finite-horizon optimal policy (:mod:`.optdp`),
Monte Carlo and exact cost measurement (:mod:`.engine`), charging-scheme
auditors (:mod:`.audit`), closed-form adversarial instances
(:mod:`.lowerbound`), and estimation with certified degradation
(:mod:`.learn`).
"""

from .alpha import AlphaTable, SingularSystem, alpha_pair, alpha_table, gamma
from .chain import (
    MarkovChain,
    NonStochasticRow,
    build_lb_chain,
    chain_hash,
    load_chain,
    random_chain,
    sample_sequence,
    save_chain,
    validate_chain,
)
from .engine import CostEstimate, exact_cost, ratio_report, simulate
from .optdp import BudgetExceeded, OptTable, opt_action, opt_expected_cost
from .policies import (
    AdversarialDominatingPolicy,
    DominatingPolicy,
    FarthestInFuture,
    Infeasible,
    MedianPolicy,
    Policy,
    adversarial_dominating,
    dominating_distribution,
    median_index,
    parse_policy,
)

__all__ = [
    "AlphaTable",
    "SingularSystem",
    "alpha_pair",
    "alpha_table",
    "gamma",
    "MarkovChain",
    "NonStochasticRow",
    "build_lb_chain",
    "chain_hash",
    "load_chain",
    "random_chain",
    "sample_sequence",
    "save_chain",
    "validate_chain",
    "CostEstimate",
    "exact_cost",
    "ratio_report",
    "simulate",
    "BudgetExceeded",
    "OptTable",
    "opt_action",
    "opt_expected_cost",
    "AdversarialDominatingPolicy",
    "DominatingPolicy",
    "FarthestInFuture",
    "Infeasible",
    "MedianPolicy",
    "Policy",
    "adversarial_dominating",
    "dominating_distribution",
    "median_index",
    "parse_policy",
]
