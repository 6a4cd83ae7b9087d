"""Command-line frontend: reproducible experiments with CSV outputs.

Subcommands: alpha | simulate | opt | ratio | audit | lowerbound | learn.
Exit codes: 0 success; 1 a check failed (audit violations, or a ledger with
no admissible savior); 2 a usage or domain error (bad flags or inputs, a
singular or out-of-range precedence solve, an exceeded DP budget, a file
that cannot be read or written).
Seeds are mandatory wherever randomness is drawn and must be non-negative;
identical invocations produce byte-identical CSV. Each mode reads the flags
``READS`` lists for it; any other flag given on the command line is a usage
error, and so are a second chain source and ``--seed`` given to ``alpha`` or
``opt`` with a chain that is not drawn from it. A chain source given on the
command line is the one used, whatever ``--config`` sets.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, InvalidOperation

from . import alpha as alpha_mod
from . import audit as audit_mod
from . import engine, learn, lowerbound
from .chain import build_lb_chain, chain_hash, load_chain, load_trace, random_chain, sample_sequence
from .optdp import BudgetExceeded, check_horizon, opt_expected_cost, save_opt_table
from .policies import OptReplayPolicy, parse_policy


def _add_chain_args(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("chain source")
    src.add_argument("--chain", help="chain file (JSON: n, transition, optional init)")
    src.add_argument("--n", type=int, help="random chain on n pages derived from --seed")
    src.add_argument("--lb-eps", type=float, help="3-page adversarial chain: eps")
    src.add_argument("--lb-eps1", type=float, help="3-page adversarial chain: eps1")


def _resolve_chain(args, seed_default: int = 0):
    if args.chain:
        return load_chain(args.chain)
    if args.lb_eps is not None:
        if args.lb_eps1 is None:
            raise UsageError("--lb-eps requires --lb-eps1")
        return build_lb_chain(args.lb_eps, args.lb_eps1)
    if args.n is not None:
        seed = getattr(args, "seed", None)
        if seed is None:
            seed = seed_default
        return random_chain(args.n, [seed, 999])
    raise UsageError("no chain source: pass --chain, --n, or --lb-eps/--lb-eps1")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints one ``error:`` line, not the usage block
        raise UsageError(message)


def _parse_init_cache(text, k):
    if text is None:
        return tuple(range(k))
    return tuple(int(x) for x in text.split(","))


def _parse_int(text) -> int:
    """Exact integer from '12' or an integral '1e8'-style value; else a usage error."""
    try:
        value = Decimal(text.strip())
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    if value.copy_abs() >= 2**63:  # counts are stored as int64
        raise argparse.ArgumentTypeError(f"{text!r} is out of the 64-bit integer range")
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(value)


def _parse_seed(text) -> int:
    """A non-negative ``_parse_int`` value, as numpy's seeding needs; else a
    usage error."""
    value = _parse_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative; seeds must be >= 0")
    return value


def _read_config(path) -> dict:
    """The ``--config`` file's flag values, keyed by destination name."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"--config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"--config {path}: expected a JSON object, got {type(doc).__name__}")
    return {k.replace("-", "_"): v for k, v in doc.items()}


def _config_defaults(parser, overrides) -> dict:
    """Config values converted as ``parser`` converts the same flags.

    argparse converts only string defaults, so a JSON number would otherwise
    skip the option's ``type``; switches keep their JSON booleans.
    """
    actions = {a.dest: a for a in parser._actions}
    out = dict(overrides)
    for key, value in overrides.items():
        action = actions.get(key)
        if action is None or action.nargs == 0 or value is None:
            continue
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            out[key] = action.type(text) if action.type is not None else text
        except (argparse.ArgumentTypeError, ValueError, TypeError) as exc:
            raise UsageError(f"--config {key}: {exc}") from None
    return out


def _emit(lines, output) -> None:
    payload = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _make_policy(name, chain, k, T, init_cache, budget):
    if name == "opt-dp":
        _, table = opt_expected_cost(chain, k, T, init_cache, budget=budget, record_actions=True)
        return OptReplayPolicy(table)
    return parse_policy(name)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="markov-paging",
        description="Eviction-policy experiments under Markov-chain request models.",
    )
    parser.add_argument("--config", help="JSON file of default flag values (flags override)")
    parser.add_argument("--output", help="write CSV here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.sub_map = {}

    p = parser.sub_map["alpha"] = sub.add_parser(
        "alpha", help="precedence probabilities alpha(p<q|s)"
    )
    _add_chain_args(p)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--pair", help="only this ordered pair, as 'p,q'")
    p.add_argument("--gamma", action="store_true", help="emit worst pair conditioning instead")
    p.add_argument("--save-table", help="also dump the table (npz) here")

    p = parser.sub_map["simulate"] = sub.add_parser("simulate", help="Monte Carlo policy cost")
    _add_chain_args(p)
    p.add_argument("--policy")
    p.add_argument("--k", type=int)
    p.add_argument("--T", type=_parse_int)
    p.add_argument("--init-cache")
    p.add_argument("--trials", type=_parse_int, default=10_000)
    p.add_argument("--seed", type=_parse_seed)
    p.add_argument("--budget", type=_parse_int, default=10**8)

    p = parser.sub_map["opt"] = sub.add_parser("opt", help="exact finite-horizon optimal cost")
    _add_chain_args(p)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--k", type=int)
    p.add_argument("--T", type=_parse_int)
    p.add_argument("--init-cache")
    p.add_argument("--budget", type=_parse_int, default=10**8)
    p.add_argument("--save-table", help="persist the replayable table (npz) here")

    p = parser.sub_map["ratio"] = sub.add_parser("ratio", help="policy cost ratios against a baseline")
    _add_chain_args(p)
    p.add_argument("--policies", help="comma-separated policy names")
    p.add_argument("--baseline", default="opt-dp")
    p.add_argument("--k", type=int)
    p.add_argument("--T", type=_parse_int)
    p.add_argument("--init-cache")
    p.add_argument("--trials", type=_parse_int, default=10_000)
    p.add_argument("--seed", type=_parse_seed)
    p.add_argument("--budget", type=_parse_int, default=10**8)

    p = parser.sub_map["audit"] = sub.add_parser("audit", help="charging-scheme audit battery")
    _add_chain_args(p)
    p.add_argument("--scheme", choices=("original", "updated"))
    p.add_argument("--trials", type=_parse_int, default=100, help="audited runs")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--T", type=_parse_int, default=20)
    p.add_argument("--ext-mult", type=int, default=10, help="resolve horizon multiplier")
    p.add_argument("--algo", default="dominating")
    p.add_argument("--ref", default="opt-dp")
    p.add_argument("--seed", type=_parse_seed)
    p.add_argument("--budget", type=_parse_int, default=10**8)
    p.add_argument("--trace-out", help="write the last run's step trace CSV here")

    p = parser.sub_map["lowerbound"] = sub.add_parser("lowerbound", help="closed-form adversarial-instance search")
    p.add_argument("--eps", help="comma-separated eps grid")
    p.add_argument("--eps1-frac", help="comma-separated eps1/eps grid")
    p.add_argument("--T", help="comma-separated horizon grid")

    p = parser.sub_map["learn"] = sub.add_parser("learn", help="estimate the chain and certify the policy")
    _add_chain_args(p)
    p.add_argument("--trace", help="newline-delimited page trace (skips sampling; --n sets the page count)")
    p.add_argument("--m", type=_parse_int, default=100_000, help="training samples")
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--delta-inf", type=float, help="assumed matrix error when no truth")
    p.add_argument("--k", type=int)
    p.add_argument("--T", type=_parse_int)
    p.add_argument("--init-cache")
    p.add_argument("--trials", type=_parse_int, default=2_000)
    p.add_argument("--seed", type=_parse_seed)
    p.add_argument("--budget", type=_parse_int, default=10**8)

    return parser


def _cmd_alpha(args) -> tuple[list[str], int]:
    chain = _resolve_chain(args)
    if args.gamma:
        return ["gamma", f"{alpha_mod.gamma(chain)!r}"], 0
    lines = ["p,q,s,value"]
    if args.pair:
        p, q = (int(x) for x in args.pair.split(","))
        vec = alpha_mod.alpha_pair(chain, p, q)
        for s in range(chain.n):
            lines.append(f"{p},{q},{s},{float(vec[s])!r}")
        return lines, 0
    table = alpha_mod.alpha_table(chain)
    if args.save_table:
        alpha_mod.save_table(table, args.save_table)
    for p in range(chain.n):
        for q in range(chain.n):
            for s in range(chain.n):
                lines.append(f"{p},{q},{s},{float(table.values[p, q, s])!r}")
    return lines, 0


def _cmd_simulate(args) -> tuple[list[str], int]:
    chain = _resolve_chain(args)
    init_cache = _parse_init_cache(args.init_cache, args.k)
    policy = _make_policy(args.policy, chain, args.k, args.T, init_cache, args.budget)
    est = engine.simulate(policy, chain, args.k, args.T, init_cache, args.trials, args.seed)
    lines = [
        "policy,mean,ci,trials,mode,chain_hash,k,T,seed",
        f"{policy.name},{est.mean!r},{est.half_width!r},{est.trials},{est.mode},"
        f"{chain_hash(chain)},{args.k},{args.T},{args.seed}",
    ]
    return lines, 0


def _cmd_opt(args) -> tuple[list[str], int]:
    chain = _resolve_chain(args)
    init_cache = _parse_init_cache(args.init_cache, args.k)
    value, table = opt_expected_cost(
        chain, args.k, args.T, init_cache, budget=args.budget,
        record_actions=bool(args.save_table),
    )
    if args.save_table:
        save_opt_table(table, args.save_table)
    lines = [
        "chain_hash,n,k,T,expected_cost",
        f"{chain_hash(chain)},{chain.n},{args.k},{args.T},{value!r}",
    ]
    return lines, 0


def _cmd_ratio(args) -> tuple[list[str], int]:
    chain = _resolve_chain(args)
    init_cache = _parse_init_cache(args.init_cache, args.k)
    names = [x for x in args.policies.split(",") if x]
    if not names:
        raise UsageError(f"--policies {args.policies!r} names no policy")
    policies = [_make_policy(nm, chain, args.k, args.T, init_cache, args.budget) for nm in names]
    baseline = args.baseline
    if baseline != "opt-dp":
        baseline = _make_policy(baseline, chain, args.k, args.T, init_cache, args.budget)
    rows = engine.ratio_report(
        chain, args.k, args.T, policies, baseline, args.trials, args.seed, init_cache,
        budget=args.budget,
    )
    return engine.report_csv_lines(rows), 0


def _cmd_audit(args) -> tuple[list[str], int]:
    if args.trials < 1:
        raise UsageError("trials must be >= 1")
    if args.ext_mult < 1:
        raise UsageError(f"--ext-mult must be >= 1, got {args.ext_mult}")
    k, T = args.k, args.T
    check_horizon(T)
    t_ext = T * args.ext_mult
    fixed_chain = None
    if args.chain or args.lb_eps is not None:
        fixed_chain = _resolve_chain(args)
    elif args.n is None:
        raise UsageError("audit needs --chain, --lb-eps, or --n")
    lines = [
        "run,chain_hash,a_misses,ref_misses,beta,I,D,O,U,phi_min,accounting_ok,delta_ok,violations"
    ]
    failures = 0
    last_report = None
    for run in range(args.trials):
        chain = fixed_chain if fixed_chain is not None else random_chain(args.n, [args.seed, run, 11])
        init_cache = tuple(range(k))
        seq = sample_sequence(chain, t_ext, [args.seed, run, 2])
        alg = _make_policy(args.algo, chain, k, T, init_cache, args.budget)
        ref = _make_policy(args.ref, chain, k, T, init_cache, args.budget)
        report = audit_mod.run_audit(
            seq, alg, ref, k, init_cache, args.scheme, [args.seed, run], T, t_ext, chain=chain
        )
        acct = audit_mod.check_accounting(report)
        delta_ok = True
        if args.scheme == "updated":
            # the potential claim Phi >= 0 is refuted (audit module docstring): its
            # failures are findings, not failed checks
            delta_ok = (
                not audit_mod.step_delta_check(report).bookkeeping
                and audit_mod.credit_check(report).ok
            )
        phi_min = min(report.phi_trace) if report.steps else 0
        bad = bool(report.violations) or not acct.ok or not delta_ok
        failures += bad
        lines.append(
            f"{run},{chain_hash(chain)},{report.a_misses},{report.ref_misses},"
            f"{report.resolved_saviors},{report.first_time_misses},"
            f"{report.doubly_charged_requests},{report.open_charges},"
            f"{report.uncharged_reentries},{phi_min},{int(acct.ok)},{int(delta_ok)},"
            f"{len(report.violations)}"
        )
        last_report = report
    if args.trace_out and last_report is not None:
        _emit(audit_mod.trace_csv_lines(last_report), args.trace_out)
    return lines, (1 if failures else 0)


def _cmd_lowerbound(args) -> tuple[list[str], int]:
    eps_grid = [float(x) for x in args.eps.split(",")]
    frac_grid = [float(x) for x in args.eps1_frac.split(",")]
    t_grid = [_parse_int(x) for x in args.T.split(",")]
    result = lowerbound.search(eps_grid, frac_grid, t_grid)
    lines = ["kind,eps,eps1,T,cost_dom,cost_ref,ratio"]
    for eps, eps1, T, cd, cr, ratio in result.rows:
        lines.append(f"point,{eps!r},{eps1!r},{T},{cd!r},{cr!r},{round(ratio, 4)!r}")
    bp = result.best_params
    lines.append(
        f"best,{bp.eps!r},{bp.eps1!r},{bp.T},,,{round(result.best_ratio, 4)!r}"
    )
    return lines, 0


def _cmd_learn(args) -> tuple[list[str], int]:
    if args.trace:
        trace = load_trace(args.trace)
        est = learn.estimate_transition(trace, n=args.n, smoothing=args.smoothing)
        policy, factor, bundle = learn.approx_dominating_policy(est, delta_inf=args.delta_inf)
        measured = ""
    else:
        if args.m < 2:  # a trace needs one transition
            raise UsageError(f"--m must be >= 2, got {args.m}")
        truth = _resolve_chain(args)
        trace = sample_sequence(truth, args.m, [args.seed, 3])
        est = learn.estimate_transition(trace, n=truth.n, smoothing=args.smoothing, truth=truth)
        policy, factor, bundle = learn.approx_dominating_policy(est, true_chain=truth)
        init_cache = _parse_init_cache(args.init_cache, args.k)
        opt_value, _ = opt_expected_cost(
            truth, args.k, args.T, init_cache, budget=args.budget, record_actions=False
        )
        sim = engine.simulate(policy, truth, args.k, args.T, init_cache, args.trials, [args.seed, 4])
        measured = repr(sim.mean / opt_value) if opt_value > 0 else "inf"
    delta = est.linf_error if est.linf_error is not None else args.delta_inf
    lines = [
        "m,delta_inf,gamma,eps_bound,certified_factor,measured_ratio",
        f"{est.sample_count},{delta!r},{bundle.gamma_used!r},{bundle.eps_bound!r},"
        f"{factor!r},{measured}",
    ]
    return lines, 0


# The chain sources by flag, in the order ``_resolve_chain`` tries them
CHAIN_SOURCES = {"--chain": ("chain",), "--lb-eps": ("lb_eps", "lb_eps1"), "--n": ("n",)}
CHAIN_SOURCE = tuple(dest for dests in CHAIN_SOURCES.values() for dest in dests)

# The flags each mode reads: those it requires, then the others. ``learn
# --trace`` estimates the chain from the trace (``--n`` sets its page count)
# and runs no policy; plain ``learn`` has a true chain, so no ``--delta-inf``.
# ``alpha --gamma`` prints one number and ``alpha --pair`` one pair, so
# neither saves the table.
READS = {
    "alpha": ((), (*CHAIN_SOURCE, "seed", "save_table")),
    "alpha --gamma": ((), (*CHAIN_SOURCE, "seed", "gamma")),
    "alpha --pair": ((), (*CHAIN_SOURCE, "seed", "pair")),
    "simulate": (("policy", "k", "T", "seed"), (*CHAIN_SOURCE, "init_cache", "trials", "budget")),
    "opt": (("k", "T"), (*CHAIN_SOURCE, "seed", "init_cache", "budget", "save_table")),
    "ratio": (("policies", "k", "T", "seed"), (*CHAIN_SOURCE, "baseline", "init_cache", "trials", "budget")),
    "audit": (
        ("scheme", "seed"),
        (*CHAIN_SOURCE, "trials", "k", "T", "ext_mult", "algo", "ref", "budget", "trace_out"),
    ),
    "lowerbound": (("eps", "eps1_frac", "T"), ()),
    "learn": (("k", "T", "seed"), (*CHAIN_SOURCE, "m", "smoothing", "init_cache", "trials", "budget")),
    "learn --trace": (("trace", "delta_inf"), ("n", "smoothing")),
}


# The flags that select a mode of their command, tried in order
MODE_FLAGS = {"alpha": ("gamma", "pair"), "learn": ("trace",)}

# Modes that read --seed only to draw the --n random chain
SEED_FOR_N_ONLY = ("alpha", "alpha --gamma", "alpha --pair", "opt")


def _mode(args) -> str:
    for flag in MODE_FLAGS.get(args.command, ()):
        if getattr(args, flag):
            return f"{args.command} --{flag}"
    return args.command


def _given(argv) -> set[str]:
    """The flags set on the command line, by destination name.

    A second parser with every default suppressed keeps only those, so a
    flag given at its default value counts and a ``--config`` value does not.
    """
    probe = build_parser()
    for p in (probe, *probe.sub_map.values()):
        for action in p._actions:
            action.default = argparse.SUPPRESS
    return set(vars(probe.parse_args(argv)))


def _flags(dests) -> str:
    return ", ".join("--" + f.replace("_", "-") for f in dests)


def _chain_source(args, given) -> str | None:
    """The flag of the chain source the mode uses, with every other source
    cleared from ``args``: the source given on the command line, else the
    first one ``--config`` sets."""
    on_line = [f for f, dests in CHAIN_SOURCES.items() if given.intersection(dests)]
    in_args = [f for f, dests in CHAIN_SOURCES.items() if getattr(args, dests[0]) is not None]
    source = (on_line or in_args or [None])[0]
    for flag, dests in CHAIN_SOURCES.items():
        if flag != source:
            for dest in dests:
                setattr(args, dest, None)
    return source


def _check_flags(parser, args, argv) -> None:
    """``UsageError`` for a required flag that is missing, or a flag given
    on the command line that the mode does not read. A second chain source
    is one such flag; the one a mode uses is the only one left in ``args``."""
    mode = _mode(args)
    required, optional = READS[mode]
    missing = [f for f in required if getattr(args, f, None) is None]
    if missing:
        raise UsageError(f"{mode} requires {_flags(missing)}")
    given = _given(argv)
    read, label = required + optional, mode
    if "chain" in read:
        source = _chain_source(args, given)
        other = [d for f, dests in CHAIN_SOURCES.items() if f != source for d in dests]
        if mode in SEED_FOR_N_ONLY and source != "--n":
            other.append("seed")
        read = tuple(f for f in read if f not in other)
        if given.intersection(other):
            label = f"{mode} with {source}"
    unread = [
        a.dest for a in parser.sub_map[args.command]._actions
        if a.dest in given and a.dest not in read
    ]
    if unread:
        raise UsageError(f"{label} does not read {_flags(unread)}")


COMMANDS = {
    "alpha": _cmd_alpha,
    "simulate": _cmd_simulate,
    "opt": _cmd_opt,
    "ratio": _cmd_ratio,
    "audit": _cmd_audit,
    "lowerbound": _cmd_lowerbound,
    "learn": _cmd_learn,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns, _ = parser.parse_known_args(argv)
        if getattr(ns, "config", None):
            overrides = _read_config(ns.config)
            for p in (parser, parser.sub_map[ns.command]):
                p.set_defaults(**_config_defaults(p, overrides))
        args = parser.parse_args(argv)
        _check_flags(parser, args, argv)
        lines, code = COMMANDS[args.command](args)
        _emit(lines, args.output)
    except (
        ValueError,  # UsageError, SingularSystem, malformed JSON and domain errors
        KeyError,
        OSError,  # a file that is missing, a directory, or not readable
        argparse.ArgumentTypeError,
        BudgetExceeded,
        alpha_mod.SolutionOutOfRange,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except audit_mod.NoEligibleSavior as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
