"""Command-line frontend: reproducible experiments with CSV outputs.

Subcommands: alpha | simulate | opt | ratio | audit | lowerbound | learn.
Exit codes: 0 success; 1 a check failed (audit violations, or a ledger with
no admissible savior); 2 a usage or domain error (bad flags or inputs, a
singular or out-of-range precedence solve, an exceeded DP budget, a file
that cannot be read or written).
Seeds are mandatory wherever randomness is drawn and must be non-negative;
identical invocations produce byte-identical CSV.

``READS`` lists the flags each mode reads, and each subcommand declares the
flags its modes read. ``FLAGS`` states each flag's parser settings once, and
``COMMAND_FLAGS`` the few that differ by subcommand. A flag given on the
command line that the mode does not read is a usage error, and so are a
second chain source, half of the ``--lb-eps``/``--lb-eps1`` pair and
``--seed`` given to ``alpha`` or ``opt`` with a chain that is not drawn from
it. The command line is parsed once, with every default suppressed, so the
parsed flags are exactly those given; each flag then takes its default, its
``--config`` value and its command-line value, the last one set winning. A
config value is a default, never a given flag, and a chain source given on
the command line is the one used, whatever ``--config`` sets. A config key
must name some subcommand's flag, or ``output``; flags never match by prefix.
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


def _resolve_chain(args):
    """The chain from the one source ``_chain_source`` left in ``args``."""
    if args.chain:
        return load_chain(args.chain)
    if args.lb_eps is not None:
        return build_lb_chain(args.lb_eps, args.lb_eps1)
    if args.n is not None:
        return random_chain(args.n, [args.seed, 999])
    raise UsageError("no chain source: pass --chain, --n, or --lb-eps/--lb-eps1")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints one ``error:`` line, not the usage block
        raise UsageError(message)


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


def _parse_float(text) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None


def _comma_list(parse):
    """A flag type: a comma-separated list of ``parse`` values."""
    return lambda text: [parse(x) for x in text.split(",")]


def _parse_pages(text) -> tuple[int, ...]:
    """Pages from 'p,q,...'; else a usage error."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of pages") from None


def _parse_pair(text) -> tuple[int, int]:
    """One ordered pair of pages from 'p,q'; else a usage error."""
    pair = _parse_pages(text)
    if len(pair) != 2:
        raise argparse.ArgumentTypeError(f"{text!r} is not one pair 'p,q'")
    return pair


def _read_config(path) -> dict:
    """The ``--config`` file's flag values, keyed by destination name."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"--config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"--config {path}: expected a JSON object, got {type(doc).__name__}")
    unknown = [key for key in doc if key.replace("-", "_") not in (*FLAGS, "output")]
    if unknown:
        raise UsageError(f"--config {path}: {unknown[0]!r} names no flag")
    return {k.replace("-", "_"): v for k, v in doc.items()}


def _config_value(key, value, settings):
    """A config value converted as the flag with ``settings`` converts its text.

    A JSON number goes through the flag's ``type`` as its JSON text, so for an
    integer flag ``1e8`` is exact and ``1.7`` is rejected; a switch keeps its
    JSON value.
    """
    if settings.get("action") == "store_true":
        return value
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        return settings.get("type", str)(text)
    except (argparse.ArgumentTypeError, ValueError, TypeError) as exc:
        raise UsageError(f"--config {key}: {exc}") from None


def _emit(lines, output) -> None:
    payload = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _init_cache(args) -> tuple[int, ...]:
    return args.init_cache or tuple(range(args.k))


def _make_policy(name, chain, k, T, init_cache, budget):
    if name == "opt-dp":
        _, table = opt_expected_cost(chain, k, T, init_cache, budget=budget, record_actions=True)
        return OptReplayPolicy(table)
    return parse_policy(name)


def _cmd_alpha(args) -> tuple[list[str], int]:
    """precedence probabilities alpha(p<q|s)"""
    chain = _resolve_chain(args)
    if args.gamma:
        return ["gamma", f"{alpha_mod.gamma(chain)!r}"], 0
    lines = ["p,q,s,value"]
    if args.pair:
        p, q = args.pair
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
    """Monte Carlo policy cost"""
    chain = _resolve_chain(args)
    init_cache = _init_cache(args)
    policy = _make_policy(args.policy, chain, args.k, args.T, init_cache, args.budget)
    est = engine.simulate(policy, chain, args.k, args.T, init_cache, args.trials, args.seed)
    lines = [
        "policy,mean,ci,trials,mode,chain_hash,k,T,seed",
        f"{policy.name},{est.mean!r},{est.half_width!r},{est.trials},{est.mode},"
        f"{chain_hash(chain)},{args.k},{args.T},{args.seed}",
    ]
    return lines, 0


def _cmd_opt(args) -> tuple[list[str], int]:
    """exact finite-horizon optimal cost"""
    chain = _resolve_chain(args)
    init_cache = _init_cache(args)
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
    """policy cost ratios against a baseline"""
    chain = _resolve_chain(args)
    init_cache = _init_cache(args)
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
    """charging-scheme audit battery"""
    if args.trials < 1:
        raise UsageError("trials must be >= 1")
    if args.ext_mult < 1:
        raise UsageError(f"--ext-mult must be >= 1, got {args.ext_mult}")
    k, T = args.k, args.T
    check_horizon(T)
    t_ext = T * args.ext_mult
    fixed_chain = _resolve_chain(args) if args.n is None else None  # --n draws one per run
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
    """closed-form adversarial-instance search"""
    result = lowerbound.search(args.eps, args.eps1_frac, args.T)
    lines = ["kind,eps,eps1,T,cost_dom,cost_ref,ratio"]
    for eps, eps1, T, cd, cr, ratio in result.rows:
        lines.append(f"point,{eps!r},{eps1!r},{T},{cd!r},{cr!r},{round(ratio, 4)!r}")
    bp = result.best_params
    lines.append(f"best,{bp.eps!r},{bp.eps1!r},{bp.T},,,{round(result.best_ratio, 4)!r}")
    return lines, 0


def _cmd_learn(args) -> tuple[list[str], int]:
    """estimate the chain and certify the policy"""
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
        init_cache = _init_cache(args)
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


# The chain sources by flag, in the order ``_chain_source`` prefers them
CHAIN_SOURCES = {"--chain": ("chain",), "--lb-eps": ("lb_eps", "lb_eps1"), "--n": ("n",)}
CHAIN_SOURCE = tuple(dest for dests in CHAIN_SOURCES.values() for dest in dests)

# The flags each mode reads: those it requires, then the others. A mode
# 'command --flag' is the one its command runs when that flag is set, and a
# mode that reads ``seed`` without requiring it reads it only to draw the
# ``--n`` chain. ``learn --trace`` estimates the chain from the trace (``--n``
# sets its page count) and runs no policy; plain ``learn`` has a true chain,
# so no ``--delta-inf``. ``alpha --gamma`` prints one number and ``alpha
# --pair`` one pair, so neither saves the table.
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

# Each flag's parser settings by destination name, in the order in which
# error messages list flags
FLAGS = {
    "chain": dict(help="chain file (JSON: n, transition, optional init)"),
    "n": dict(type=int, help="random chain on n pages derived from --seed"),
    "lb_eps": dict(type=float, help="3-page adversarial chain: eps"),
    "lb_eps1": dict(type=float, help="3-page adversarial chain: eps1"),
    "trace": dict(help="newline-delimited page trace (skips sampling; --n sets the page count)"),
    "m": dict(type=_parse_int, default=100_000, help="training samples"),
    "smoothing": dict(type=float, default=1.0),
    "delta_inf": dict(type=float, help="assumed matrix error when no truth"),
    "policy": dict(),
    "policies": dict(help="comma-separated policy names"),
    "baseline": dict(default="opt-dp"),
    "scheme": dict(choices=("original", "updated")),
    "k": dict(type=int),
    "T": dict(type=_parse_int),
    "init_cache": dict(type=_parse_pages),
    "trials": dict(type=_parse_int, default=10_000),
    "ext_mult": dict(type=int, default=10, help="resolve horizon multiplier"),
    "algo": dict(default="dominating"),
    "ref": dict(default="opt-dp"),
    "seed": dict(type=_parse_seed),
    "budget": dict(type=_parse_int, default=10**8),
    "trace_out": dict(help="write the last run's step trace CSV here"),
    "pair": dict(type=_parse_pair, help="only this ordered pair, as 'p,q'"),
    "gamma": dict(action="store_true", help="emit worst pair conditioning instead"),
    "save_table": dict(help="also write the table (npz) here"),
    "eps": dict(type=_comma_list(_parse_float), help="comma-separated eps grid"),
    "eps1_frac": dict(type=_comma_list(_parse_float), help="comma-separated eps1/eps grid"),
}

# The settings that differ by subcommand
COMMAND_FLAGS = {
    "alpha": {"seed": dict(default=0)},
    "opt": {"seed": dict(default=0)},
    "audit": {"trials": dict(default=100, help="audited runs"), "k": dict(default=2), "T": dict(default=20)},
    "lowerbound": {"T": dict(type=_comma_list(_parse_int), help="comma-separated horizon grid")},
    "learn": {"trials": dict(default=2_000)},
}


def _settings(command) -> dict[str, dict]:
    """The settings of each flag ``command`` declares: those its modes read."""
    read = {f for mode, (required, optional) in READS.items() if mode.split()[0] == command
            for f in required + optional}
    differ = COMMAND_FLAGS.get(command, {})
    return {dest: {**FLAGS[dest], **differ.get(dest, {})} for dest in FLAGS if dest in read}


def _flags(dests) -> str:
    return ", ".join("--" + f.replace("_", "-") for f in dests)


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand's parser; a flag not on the command line is left out
    of the parse."""
    parser = _Parser(
        prog="markov-paging",
        description="Eviction-policy experiments under Markov-chain request models.",
        argument_default=argparse.SUPPRESS,
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="JSON file of default flag values (flags override)")
    parser.add_argument("--output", help="write CSV here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for dest, settings in _settings(command).items():
            settings = {key: value for key, value in settings.items() if key != "default"}
            p.add_argument(_flags([dest]), **settings)
    return parser


def _parse(argv) -> tuple[argparse.Namespace, set[str]]:
    """The flag values, and the flags given on the command line.

    Each flag takes its default, then its ``--config`` value, then its
    command-line value. A JSON null in the config leaves the default.
    """
    given = vars(build_parser().parse_args(argv))
    settings = _settings(given["command"])
    values = {"output": None, **{dest: s.get("default") for dest, s in settings.items()}}
    if given.get("config"):
        for key, value in _read_config(given["config"]).items():
            if value is not None:
                values[key] = _config_value(key, value, settings.get(key, {}))
    values.update(given)
    return argparse.Namespace(**values), given.keys() & settings.keys()


def _mode(args) -> str:
    for mode in READS:
        command, _, flag = mode.partition(" --")
        if command == args.command and flag and getattr(args, flag):
            return mode
    return args.command


def _chain_source(args, given) -> str | None:
    """The flag of the chain source the mode uses, with every other source
    cleared from ``args``: the source given on the command line, else the
    first one ``--config`` sets, else None. ``UsageError`` if half of the
    ``--lb-eps``/``--lb-eps1`` pair is missing."""
    on_line = [f for f, dests in CHAIN_SOURCES.items() if given.intersection(dests)]
    in_args = [f for f, dests in CHAIN_SOURCES.items() if getattr(args, dests[0]) is not None]
    source = (on_line or in_args or [None])[0]
    if source == "--lb-eps" and args.lb_eps is None:
        raise UsageError("--lb-eps1 requires --lb-eps")
    if source == "--lb-eps" and args.lb_eps1 is None:
        raise UsageError("--lb-eps requires --lb-eps1")
    for flag, dests in CHAIN_SOURCES.items():
        if flag != source:
            for dest in dests:
                setattr(args, dest, None)
    return source


def _check_flags(args, given) -> None:
    """``UsageError`` for a required flag that is missing, or a flag given
    on the command line that the mode does not read. A second chain source
    is one such flag; the one a mode uses is the only one left in ``args``."""
    mode = _mode(args)
    required, optional = READS[mode]
    missing = [f for f in required if getattr(args, f) is None]
    if missing:
        raise UsageError(f"{mode} requires {_flags(missing)}")
    read, label = required + optional, mode
    if "chain" in read and (source := _chain_source(args, given)):  # None: _resolve_chain reports it
        other = [d for f, dests in CHAIN_SOURCES.items() if f != source for d in dests]
        if "seed" in optional and source != "--n":
            other.append("seed")
        read = tuple(f for f in read if f not in other)
        if given.intersection(other):
            label = f"{mode} with {source}"
    unread = [f for f in FLAGS if f in given and f not in read]
    if unread:
        raise UsageError(f"{label} does not read {_flags(unread)}")


# The subcommands; each one's docstring is its line in ``--help``
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
    try:
        args, given = _parse(argv)
        _check_flags(args, given)
        lines, code = COMMANDS[args.command](args)
        _emit(lines, args.output)
    except (
        ValueError,  # UsageError, SingularSystem, malformed JSON and domain errors
        KeyError,
        OSError,  # a file that is missing, a directory, or not readable
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
