import argparse
import json
import re

import numpy as np
import pytest

from markov_paging import alpha as alpha_mod
from markov_paging import audit as audit_mod
from markov_paging.chain import random_chain, save_chain, validate_chain
from markov_paging.cli import _parse_int, main

from .conftest import corrupt_alpha_table


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(["--output", str(out), *args])
    return code, out.read_text() if out.exists() else ""


def test_lowerbound_reported_point(tmp_path):
    code, text = run_cli(
        ["lowerbound", "--eps", "1e-5", "--eps1-frac", "0.7069", "--T", "1e8"],
        tmp_path,
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "kind,eps,eps1,T,cost_dom,cost_ref,ratio"
    best = lines[-1].split(",")
    assert best[0] == "best"
    assert float(best[-1]) >= 1.5907


def test_ratio_subcommand_columns(tmp_path):
    code, text = run_cli(
        [
            "ratio", "--policies", "dominating,median", "--baseline", "opt-dp",
            "--n", "4", "--k", "2", "--T", "30", "--trials", "300", "--seed", "5",
        ],
        tmp_path,
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].split(",")[:7] == [
        "policy", "mean", "ci", "baseline_mean", "baseline_ci", "ratio_low", "ratio_high",
    ]
    assert len(lines) == 3
    assert lines[1].startswith("dominating,") and lines[2].startswith("median,")


@pytest.mark.parametrize(
    "args",
    [
        ["alpha", "--n", "3", "--seed", "0"],
        ["alpha", "--lb-eps", "0.1", "--lb-eps1", "0.05", "--pair", "1,0"],
        ["alpha", "--n", "3", "--seed", "0", "--gamma"],
        ["simulate", "--policy", "dominating", "--n", "3", "--k", "2", "--T", "20",
         "--trials", "200", "--seed", "1"],
        ["opt", "--n", "3", "--k", "2", "--T", "10"],
        ["ratio", "--policies", "random", "--n", "3", "--k", "2", "--T", "10",
         "--trials", "100", "--seed", "2"],
        ["audit", "--scheme", "original", "--n", "4", "--k", "2", "--T", "10",
         "--trials", "5", "--seed", "3"],
        ["lowerbound", "--eps", "1e-3,1e-4", "--eps1-frac", "0.5,0.7", "--T", "1e4"],
        ["learn", "--n", "3", "--m", "5000", "--k", "2", "--T", "10",
         "--trials", "100", "--seed", "4"],
    ],
    ids=lambda a: a[0] + ("-" + a[1].lstrip("-") if len(a) > 1 else ""),
)
def test_byte_identical_reruns(args, tmp_path):
    code1, text1 = run_cli(args, tmp_path, "a.csv")
    code2, text2 = run_cli(args, tmp_path, "b.csv")
    assert code1 == code2
    assert text1 == text2
    assert text1.strip()


def test_audit_clean_battery_exits_zero(tmp_path):
    code, text = run_cli(
        ["audit", "--scheme", "original", "--n", "4", "--k", "2", "--T", "15",
         "--trials", "10", "--seed", "6"],
        tmp_path,
    )
    assert code == 0
    assert all(line.split(",")[-1] == "0" for line in text.strip().splitlines()[1:])


def test_audit_with_injected_ledger_bug_fails(tmp_path, monkeypatch):
    real = audit_mod._structural_checks

    def broken(scheme, t, charge, a_cache, seen, violations):
        real(scheme, t, charge, a_cache, seen, violations)
        if t == 3:
            violations.append(f"t={t}: injected ledger fault")

    monkeypatch.setattr(audit_mod, "_structural_checks", broken)
    code, text = run_cli(
        ["audit", "--scheme", "updated", "--n", "4", "--k", "2", "--T", "10",
         "--trials", "3", "--seed", "7"],
        tmp_path,
    )
    assert code == 1
    assert any(line.split(",")[-1] != "0" for line in text.strip().splitlines()[1:])


@pytest.mark.parametrize("check", ["step_delta_check", "credit_check"])
def test_audit_delta_ok_fails_on_ledger_errors(check, tmp_path, monkeypatch):
    real = getattr(audit_mod, check)

    def broken(report):
        found = real(report)
        bad = ["t=1: injected bookkeeping fault"]
        return audit_mod.DeltaCheck(ok=False, failures=found.failures + bad, bookkeeping=bad)

    monkeypatch.setattr(audit_mod, check, broken)
    code, text = run_cli(
        ["audit", "--scheme", "updated", "--n", "4", "--k", "2", "--T", "10",
         "--trials", "2", "--seed", "7"],
        tmp_path,
    )
    assert code == 1
    assert [line.split(",")[11] for line in text.strip().splitlines()[1:]] == ["0", "0"]


def test_chain_file_source(tmp_path):
    chain = random_chain(3, 12)
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    code, text = run_cli(
        ["opt", "--chain", str(path), "--k", "2", "--T", "5"], tmp_path
    )
    assert code == 0
    assert text.splitlines()[0] == "chain_hash,n,k,T,expected_cost"


@pytest.mark.parametrize(
    "args",
    [["opt", "--k", "2", "--T", "10"], ["simulate", "--policy", "lru", "--k", "2", "--T", "10", "--trials", "5", "--seed", "1"]],
)
def test_nan_chain_file_is_usage_error(args, tmp_path, capsys):
    # Python's JSON reader accepts NaN, so a chain file can carry one
    path = tmp_path / "nan.json"
    path.write_text('{"n": 2, "transition": [[NaN, 1.0], [0.5, 0.5]]}')
    code, err = _error_exit([args[0], "--chain", str(path), *args[1:]], capsys)
    assert code == 2
    assert "[0, 1]" in err


def test_audit_needs_a_trial(capsys):
    code, err = _error_exit(["audit", "--scheme", "updated", "--n", "4", "--k", "2", "--T", "5", "--trials", "-1", "--seed", "1"], capsys)
    assert code == 2 and "trials must be >= 1" in err
    assert _error_exit(["audit", "--scheme", "updated", "--n", "4", "--k", "2", "--T", "5", "--trials", "0", "--seed", "1"], capsys)[0] == 2


@pytest.mark.parametrize("mult", ["0", "-1"])
def test_audit_ext_mult_below_one_is_named(mult, capsys):
    code, err = _error_exit(["audit", "--scheme", "updated", "--n", "4", "--k", "2", "--T", "5",
                             "--trials", "2", "--seed", "1", "--ext-mult", mult], capsys)
    assert code == 2
    assert err == f"error: --ext-mult must be >= 1, got {mult}\n"


def test_usage_error_exit_codes(tmp_path, capsys):
    # --seed is mandatory for anything that draws randomness
    assert main(["simulate", "--policy", "dominating", "--n", "3", "--k", "2", "--T", "5"]) == 2
    capsys.readouterr()
    code, err = _error_exit(["no-such-command"], capsys)
    assert code == 2
    assert err.startswith("error: argument command: invalid choice: 'no-such-command'")


@pytest.mark.parametrize(
    "args,message",
    [
        (["opt", "--n", "4", "--k", "2", "--T", "1.5"], "argument --T: '1.5' is not an integer"),
        (["opt", "--n", "4", "--k", "2.0", "--T", "1"], "argument --k: invalid int value: '2.0'"),
        (["opt", "--n", "4", "--k", "2", "--T", "1", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ],
)
def test_parser_errors_print_one_line(args, message, capsys):
    assert _error_exit(args, capsys) == (2, f"error: {message}\n")


@pytest.mark.parametrize("m", ["-5", "0", "1"])
def test_learn_m_below_two_is_named(m, capsys):
    code, err = _error_exit(["learn", "--n", "4", "--k", "2", "--T", "5", "--seed", "1", "--m", m], capsys)
    assert code == 2
    assert err == f"error: --m must be >= 2, got {m}\n"


@pytest.mark.parametrize("names", [",", ",,"])
def test_ratio_without_policies_is_usage_error(names, capsys):
    code, err = _error_exit(["ratio", "--policies", names, "--n", "4", "--k", "2", "--T", "5",
                             "--seed", "1"], capsys)
    assert code == 2
    assert err == f"error: --policies {names!r} names no policy\n"


def test_domain_error_is_usage_error(tmp_path):
    code = main(["lowerbound", "--eps", "0.2", "--eps1-frac", "1.0", "--T", "10"])
    assert code == 2


def test_trace_page_out_of_range_is_usage_error(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("0\n1\n-1\n0\n1\n")
    code = main(["learn", "--trace", str(trace), "--delta-inf", "0.01"])
    assert code == 2
    assert "trace page -1 is outside 0..1" in capsys.readouterr().err


LEARN_TRACE_CASES = {
    "trace-only": ([], 0, ""),
    "unused-k-T-seed": (["--k", "1", "--T", "5", "--seed", "0"], 2, "learn --trace does not read --k, --T, --seed"),
    "page-beyond-n": (["--n", "2"], 2, "trace page 2 is outside 0..1"),
    "chain-file": (["--chain", "{chain}"], 2, "learn --trace does not read --chain"),
    "lb-chain": (["--lb-eps", "0.1", "--lb-eps1", "0.05"], 2, "learn --trace does not read --lb-eps, --lb-eps1"),
    # a flag counts when given, also at its default value
    **{
        f"unread{flag}": ([flag, value], 2, f"error: learn --trace does not read {flag}\n")
        for flag, value in [("--m", "100000"), ("--trials", "2000"), ("--budget", "1000"),
                            ("--init-cache", "0,9"), ("--k", "2"), ("--T", "5"), ("--seed", "1")]
    },
}


@pytest.mark.parametrize("extra,code,message", LEARN_TRACE_CASES.values(), ids=LEARN_TRACE_CASES.keys())
def test_learn_trace_flags(extra, code, message, tmp_path, capsys):
    # --trace estimates the chain from the trace alone: --n sets its page
    # count, and a chain source or --k/--T/--seed is a usage error
    trace = tmp_path / "t.txt"
    trace.write_text("0\n1\n2\n0\n2\n1\n")
    save_chain(random_chain(3, 0), tmp_path / "c.json")
    extra = [a.format(chain=tmp_path / "c.json") for a in extra]
    assert main(["learn", "--trace", str(trace), "--delta-inf", "0.01", *extra]) == code
    out = capsys.readouterr()
    assert message in out.err
    assert bool(out.out) == (code == 0)


def test_learn_without_trace_rejects_delta_inf(tmp_path, capsys):
    args = ["learn", "--n", "3", "--m", "1000", "--k", "2", "--T", "5", "--trials", "10", "--seed", "1"]
    code, err = _error_exit([*args, "--delta-inf", "0.5"], capsys)
    assert code == 2
    assert err == "error: learn does not read --delta-inf\n"
    assert run_cli(args, tmp_path)[0] == 0


def test_learn_trace_needs_delta_inf(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("0\n1\n0\n")
    code, err = _error_exit(["learn", "--trace", str(trace)], capsys)
    assert code == 2
    assert err == "error: learn --trace requires --delta-inf\n"


def test_config_values_are_not_given_flags(tmp_path):
    # a config file holds defaults for every subcommand, so a value that the
    # mode does not read is left unread, not rejected
    trace = tmp_path / "t.txt"
    trace.write_text("0\n1\n2\n0\n2\n1\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "T": 5, "seed": 1, "delta_inf": 0.01}))
    code, text = run_cli(["--config", str(cfg), "learn", "--trace", str(trace)], tmp_path)
    assert code == 0 and text.startswith("m,delta_inf,")


def test_learn_trace_n_sets_page_count(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("0\n1\n2\n0\n2\n1\n")
    args = ["learn", "--trace", str(trace), "--delta-inf", "0.01"]
    code3, three = run_cli([*args, "--n", "3"], tmp_path, "a.csv")
    code9, nine = run_cli([*args, "--n", "9"], tmp_path, "b.csv")
    assert (code3, code9) == (0, 0)
    assert three == run_cli(args, tmp_path, "c.csv")[1]  # n defaults to the largest page + 1
    assert nine != three  # pages 3..8 are never visited, but the estimate has them


# Each mode that reads a chain source, with the flags it needs besides
CHAIN_SOURCE_MODES = {
    "alpha": ["alpha"],
    "alpha --gamma": ["alpha", "--gamma"],
    "simulate": ["simulate", "--policy", "lru", "--k", "2", "--T", "5", "--trials", "5", "--seed", "1"],
    "opt": ["opt", "--k", "2", "--T", "5"],
    "ratio": ["ratio", "--policies", "lru", "--k", "2", "--T", "5", "--trials", "5", "--seed", "1"],
    "audit": ["audit", "--scheme", "original", "--T", "5", "--trials", "2", "--seed", "1"],
    "learn": ["learn", "--m", "50000", "--k", "2", "--T", "5", "--trials", "5", "--seed", "1"],
}
CHAIN_SOURCES = {
    "--chain": (["--chain", "{chain}"], {"chain": "{chain}"}),
    "--lb-eps": (["--lb-eps", "0.1", "--lb-eps1", "0.05"], {"lb_eps": 0.1, "lb_eps1": 0.05}),
    "--n": (["--n", "6"], {"n": 6}),
}
SOURCE_PAIRS = [("--chain", "--n", "--n"), ("--lb-eps", "--n", "--n"), ("--chain", "--lb-eps", "--lb-eps, --lb-eps1")]


def _source_args(tmp_path, source):
    save_chain(random_chain(4, 0), tmp_path / "c.json")
    flags, config = CHAIN_SOURCES[source]
    chain = str(tmp_path / "c.json")
    return [a.format(chain=chain) for a in flags], {k: v.format(chain=chain) if isinstance(v, str) else v
                                                    for k, v in config.items()}


@pytest.mark.parametrize("first,second,unread", SOURCE_PAIRS, ids=[f"{a}{b}" for a, b, _ in SOURCE_PAIRS])
@pytest.mark.parametrize("mode", CHAIN_SOURCE_MODES)
def test_second_chain_source_is_usage_error(mode, first, second, unread, tmp_path, capsys):
    # a mode reads one chain source; a second one given with it would be dropped
    args = [*CHAIN_SOURCE_MODES[mode], *_source_args(tmp_path, first)[0], *_source_args(tmp_path, second)[0]]
    code, err = _error_exit(args, capsys)
    assert code == 2
    assert err == f"error: {mode} with {first} does not read {unread}\n"


@pytest.mark.parametrize("given", CHAIN_SOURCES)
@pytest.mark.parametrize("mode", CHAIN_SOURCE_MODES)
def test_chain_source_on_command_line_wins_over_config(mode, given, tmp_path):
    # every other source in the config file stays an unread default
    flags = _source_args(tmp_path, given)[0]
    config = {}
    for other in CHAIN_SOURCES:
        if other != given:
            config.update(_source_args(tmp_path, other)[1])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    args = [*CHAIN_SOURCE_MODES[mode], *flags]
    code, text = run_cli(["--config", str(cfg), *args], tmp_path, "a.csv")
    assert code == 0 and text == run_cli(args, tmp_path, "b.csv")[1]
    # with no source on the command line the config's is read
    cfg.write_text(json.dumps(_source_args(tmp_path, given)[1]))
    assert run_cli(["--config", str(cfg), *CHAIN_SOURCE_MODES[mode]], tmp_path, "c.csv") == (0, text)


def test_learn_trace_n_is_no_chain_source(tmp_path):
    # --n counts the trace's pages, so a config chain source beside it is unread
    trace = tmp_path / "t.txt"
    trace.write_text("0\n1\n2\n0\n2\n1\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lb_eps": 0.1, "lb_eps1": 0.05, "chain": str(tmp_path / "none.json")}))
    args = ["learn", "--trace", str(trace), "--delta-inf", "0.01", "--n", "5"]
    code, text = run_cli(["--config", str(cfg), *args], tmp_path, "a.csv")
    assert code == 0 and text == run_cli(args, tmp_path, "b.csv")[1]


def test_missing_chain_source(tmp_path):
    code = main(["opt", "--k", "2", "--T", "5"])
    assert code == 2


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": "1e-5", "eps1_frac": "0.7069", "T": "1e8"}))
    out = tmp_path / "o.csv"
    code = main(["--config", str(cfg), "--output", str(out), "lowerbound"])
    assert code == 0
    assert float(out.read_text().strip().splitlines()[-1].split(",")[-1]) >= 1.5907
    # flag overrides the config value
    code = main(["--config", str(cfg), "--output", str(out), "lowerbound", "--eps1-frac", "0.5"])
    assert code == 0
    assert float(out.read_text().strip().splitlines()[-1].split(",")[-1]) <= 1.51


def _error_exit(args, capsys):
    code = main(args)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
    return code, err


def test_lowerbound_names_the_singular_pair(capsys):
    # at eps <= 1e-12 the adversarial rule's precedence solve is refused
    code, err = _error_exit(["lowerbound", "--eps", "1e-12", "--eps1-frac", "0.7", "--T", "10"], capsys)
    assert code == 2 and err.startswith("error: singular precedence system for pair (1, 2)")


@pytest.mark.parametrize("command", [["simulate", "--policy", "lru"], ["ratio", "--policies", "lru", "--baseline", "fifo"]])
def test_full_cache_is_usage_error_for_history_rules(command, capsys):
    code, err = _error_exit([*command, "--n", "4", "--k", "4", "--T", "5", "--seed", "1"], capsys)
    assert code == 2 and err == "error: need 0 < k < n, got k=4, n=4\n"


def test_budget_exceeded_is_domain_error(capsys):
    code, err = _error_exit(["opt", "--n", "12", "--k", "6", "--T", "1000", "--budget", "1000"], capsys)
    assert code == 2
    assert "budget is 1000" in err


def test_singular_chain_is_domain_error(tmp_path, capsys):
    path = tmp_path / "reducible.json"
    save_chain(validate_chain(np.eye(3)), path)
    code, err = _error_exit(["alpha", "--chain", str(path)], capsys)
    assert code == 2
    assert "pair (0, 1)" in err


@pytest.mark.parametrize("policy,target", [("dominating", ""), ("dominating-adversarial:1", ", target 0")])
def test_infeasible_lp_names_its_pair(policy, target, monkeypatch, capsys):
    # two blocks admit no distribution; the first in cache-rank order is named
    table = corrupt_alpha_table()
    monkeypatch.setattr(alpha_mod, "alpha_table", lambda chain: table)
    code, err = _error_exit(["simulate", "--policy", policy, "--n", "4", "--k", "3", "--T", "10",
                             "--trials", "5", "--seed", "1"], capsys)
    assert code == 2
    assert err.startswith(f"error: cache (0, 2, 3), request 1{target}: ")


@pytest.mark.parametrize("command", [
    ["simulate", "--trials", "5", "--seed", "1", "--policy"],
    ["ratio", "--trials", "5", "--seed", "1", "--policies"],
    ["audit", "--scheme", "original", "--trials", "1", "--seed", "1", "--algo"],
])
def test_adversarial_target_outside_chain_is_domain_error(command, capsys):
    # page 7 is never resident on 4 pages, so the rule could never target it
    code, err = _error_exit([*command, "dominating-adversarial:7", "--n", "4", "--k", "2", "--T", "5"], capsys)
    assert code == 2
    assert err == "error: target page 7 is not among the chain's pages 0..3\n"


def test_solution_out_of_range_is_domain_error(monkeypatch, capsys):
    monkeypatch.setattr(alpha_mod, "CLAMP_TOL", -1.0)  # every solution now fails the range guard
    code, err = _error_exit(["alpha", "--n", "3", "--seed", "0"], capsys)
    assert code == 2
    assert "leaves [0,1]" in err


def test_no_eligible_savior_is_failed_check(monkeypatch, capsys):
    def no_savior(a_minus, ref_after, charge, t):
        raise audit_mod.NoEligibleSavior(f"t={t}: no admissible savior among []")

    monkeypatch.setattr(audit_mod, "_select_savior", no_savior)
    code, err = _error_exit(["audit", "--scheme", "updated", "--n", "4", "--k", "2", "--T", "20",
                             "--trials", "5", "--seed", "3"], capsys)
    assert code == 1
    assert "no admissible savior" in err


@pytest.mark.parametrize("text,value", [("12", 12), ("1e8", 10**8), ("2.5E1", 25),
                                        ("9007199254740993", 2**53 + 1)])
def test_integer_flags_parse_exactly(text, value):
    assert _parse_int(text) == value


@pytest.mark.parametrize("text", ["1.7", "1e-3", "abc", "nan", "inf", "1e30"])
def test_integer_flags_reject_non_integers(text, capsys):
    with pytest.raises(argparse.ArgumentTypeError) as why:
        _parse_int(text)
    code, err = _error_exit(["opt", "--n", "3", "--k", "2", "--T", text], capsys)
    assert code == 2
    assert err == f"error: argument --T: {why.value}\n"
    # each entry of the lowerbound horizon grid is parsed the same way
    code, err = _error_exit(["lowerbound", "--eps", "1e-3", "--eps1-frac", "0.7", "--T", f"10,{text}"], capsys)
    assert code == 2
    assert err == f"error: argument --T: {why.value}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--policy", "lru", "--trials", "10", "--seed", "1"],
        ["simulate", "--policy", "dominating", "--trials", "10", "--seed", "1"],
        ["opt"],
    ],
)
@pytest.mark.parametrize("cache", ["0,9", "0,0"])
def test_bad_init_cache_is_usage_error(args, cache, capsys):
    code, err = _error_exit([*args, "--n", "4", "--k", "2", "--T", "10", "--init-cache", cache], capsys)
    assert code == 2
    assert f"k=2 distinct pages in 0..3, got ({cache.replace(',', ', ')})" in err


def test_config_numbers_parsed_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 1.7}))
    code, err = _error_exit(["--config", str(cfg), "opt", "--n", "3", "--k", "2"], capsys)
    assert code == 2
    assert "--config T: '1.7' is not an integer" in err
    # an integral number is accepted exactly, also for the lowerbound grid
    cfg.write_text(json.dumps({"T": 1e8, "eps": 1e-5, "eps1_frac": 0.7069}))
    out = tmp_path / "o.csv"
    assert main(["--config", str(cfg), "--output", str(out), "lowerbound"]) == 0
    assert out.read_text().splitlines()[-1].split(",")[3] == "100000000"
    code, err = _error_exit(["--config", str(cfg), "opt", "--n", "3", "--k", "2", "--budget", "1000"], capsys)
    assert code == 2
    assert "DP needs 900000000 state-steps" in err  # T is exactly 10**8


LB_GRID = {"--eps": "1e-3", "--eps1-frac": "0.7", "--T": "10"}


@pytest.mark.parametrize(
    "flag,text,message",
    [("--eps", "1e-3,abc", "'abc' is not a number"), ("--eps1-frac", "0.5,", "'' is not a number"),
     ("--T", "10,1.5", "'1.5' is not an integer")],
)
def test_lowerbound_grid_entry_names_its_flag(flag, text, message, tmp_path, capsys):
    args = {**LB_GRID, flag: text}
    code, err = _error_exit(["lowerbound", *(x for item in args.items() for x in item)], capsys)
    assert code == 2 and err == f"error: argument {flag}: {message}\n"
    # a config value goes through the same type
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:].replace("-", "_"): text}))
    del args[flag]
    code, err = _error_exit(["--config", str(cfg), "lowerbound", *(x for item in args.items() for x in item)], capsys)
    assert code == 2 and err == f"error: --config {flag[2:].replace('-', '_')}: {message}\n"


def test_flag_prefix_is_not_the_flag(tmp_path, capsys):
    # --trace is a prefix of audit's --trace-out: taken as that flag, it had
    # the run overwrite the named trace file with its step trace CSV
    trace = tmp_path / "t.txt"
    trace.write_text("0\n1\n2\n")
    code, err = _error_exit(["audit", "--scheme", "updated", "--n", "4", "--k", "2", "--T", "5", "--trials", "1",
                             "--seed", "1", "--trace", str(trace)], capsys)
    assert code == 2 and err == f"error: unrecognized arguments: --trace {trace}\n"
    assert trace.read_text() == "0\n1\n2\n"
    saved = tmp_path / "x"
    code, err = _error_exit(["alpha", "--n", "3", "--sav", str(saved)], capsys)
    assert code == 2 and err == f"error: unrecognized arguments: --sav {saved}\n"
    assert not any(tmp_path.glob("x*"))
    # the top-level parser matches whole flags too
    code = main(["--out", str(saved), "alpha", "--n", "3"])
    assert code == 2 and not any(tmp_path.glob("x*"))


def test_config_key_must_name_a_flag(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"sed": 1}))
    code, err = _error_exit(["--config", str(cfg), "opt", "--n", "4", "--k", "2", "--T", "5"], capsys)
    assert code == 2 and err == f"error: --config {cfg}: 'sed' names no flag\n"
    # a flag of another subcommand is a default that opt does not read
    cfg.write_text(json.dumps({"scheme": "updated", "eps1-frac": "0.5"}))
    plain = run_cli(["opt", "--n", "4", "--k", "2", "--T", "5"], tmp_path, "a.csv")
    assert plain[0] == 0
    assert run_cli(["--config", str(cfg), "opt", "--n", "4", "--k", "2", "--T", "5"], tmp_path, "b.csv") == plain


def test_config_switch_stays_boolean(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": True}))
    out = tmp_path / "o.csv"
    assert main(["--config", str(cfg), "--output", str(out), "alpha", "--n", "3"]) == 0
    assert out.read_text().splitlines()[0] == "gamma"


HORIZON_CASES = [
    (["simulate", "--policy", "dominating", "--trials", "10", "--seed", "1"], "mean", "0.0"),
    (["simulate", "--policy", "lru", "--trials", "10", "--seed", "1"], "mean", "0.0"),
    (["opt"], "expected_cost", "0.0"),
    (["ratio", "--policies", "lru,fifo,dominating", "--trials", "10", "--seed", "1"], "mean", "0.0"),
    (["learn", "--trials", "10", "--seed", "1"], "measured_ratio", "inf"),
    (["audit", "--scheme", "updated", "--trials", "2", "--seed", "1"], "a_misses", "0"),
]


@pytest.mark.parametrize("args,column,zero", HORIZON_CASES, ids=["simulate-dominating", "simulate-lru", "opt", "ratio", "learn", "audit"])
def test_horizon_rule(args, column, zero, tmp_path, capsys):
    """T = 0 costs nothing on every path; a negative T is a usage error."""
    code, text = run_cli([*args, "--n", "4", "--k", "2", "--T", "0"], tmp_path)
    header, *rows = (line.split(",") for line in text.strip().splitlines())
    assert code == 0 and rows
    assert all(row[header.index(column)] == zero for row in rows)
    code, err = _error_exit([*args, "--n", "4", "--k", "2", "--T", "-2"], capsys)
    assert code == 2 and "T must be >= 0, got -2" in err


ALPHA_MODE_CASES = {
    "gamma-pair-save": (["--gamma", "--pair", "0,1", "--save-table", "{table}"], "alpha --gamma does not read --pair, --save-table"),
    "gamma-save": (["--gamma", "--save-table", "{table}"], "alpha --gamma does not read --save-table"),
    "pair-save": (["--pair", "0,1", "--save-table", "{table}"], "alpha --pair does not read --save-table"),
}


@pytest.mark.parametrize("extra,message", ALPHA_MODE_CASES.values(), ids=ALPHA_MODE_CASES.keys())
def test_alpha_modes_reject_flags_they_do_not_read(extra, message, tmp_path, capsys):
    """``--gamma`` prints only gamma and ``--pair`` only its pair, so the
    flags they would ignore are usage errors and no table is written."""
    table = tmp_path / "t.npz"
    extra = [x.format(table=table) for x in extra]
    code, err = _error_exit(["alpha", "--n", "3", "--seed", "0", *extra], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert not table.exists()


def test_alpha_save_table_alone_writes_the_table(tmp_path):
    table = tmp_path / "t.npz"
    assert run_cli(["alpha", "--n", "3", "--seed", "0", "--save-table", str(table)], tmp_path)[0] == 0
    assert table.exists()


SEEDED_COMMANDS = {
    "alpha": ["alpha", "--n", "3"],
    "simulate": ["simulate", "--policy", "lru", "--n", "4", "--k", "2", "--T", "10"],
    "opt": ["opt", "--n", "3", "--k", "2", "--T", "5"],
    "ratio": ["ratio", "--policies", "lru", "--n", "4", "--k", "2", "--T", "10"],
    "audit": ["audit", "--scheme", "updated", "--n", "4"],
    "learn": ["learn", "--n", "3", "--k", "2", "--T", "5"],
}


@pytest.mark.parametrize("args", SEEDED_COMMANDS.values(), ids=SEEDED_COMMANDS.keys())
def test_negative_seed_is_usage_error_naming_the_flag(args, capsys):
    code, err = _error_exit([*args, "--seed", "-1"], capsys)
    assert code == 2
    assert err == "error: argument --seed: '-1' is negative; seeds must be >= 0\n"


def test_negative_config_seed_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -4}))
    code, err = _error_exit(["--config", str(cfg), *SEEDED_COMMANDS["simulate"]], capsys)
    assert code == 2
    assert err == "error: --config seed: '-4' is negative; seeds must be >= 0\n"


SEED_WITHOUT_N = {
    "opt-lb": (["opt", "--lb-eps", "0.1", "--lb-eps1", "0.05", "--k", "2", "--T", "5"], "opt with --lb-eps"),
    "opt-chain": (["opt", "--chain", "{chain}", "--k", "2", "--T", "5"], "opt with --chain"),
    "alpha": (["alpha", "--chain", "{chain}"], "alpha with --chain"),
    "alpha-gamma": (["alpha", "--lb-eps", "0.1", "--lb-eps1", "0.05", "--gamma"], "alpha --gamma with --lb-eps"),
    "alpha-pair": (["alpha", "--chain", "{chain}", "--pair", "0,1"], "alpha --pair with --chain"),
}


@pytest.mark.parametrize("args,mode", SEED_WITHOUT_N.values(), ids=SEED_WITHOUT_N.keys())
def test_seed_without_random_chain_is_usage_error(args, mode, tmp_path, capsys):
    """``opt`` and ``alpha`` draw nothing but the ``--n`` chain, so a seed
    given with another chain source would be ignored; a config seed is a
    default like any other and stays unread."""
    save_chain(random_chain(3, 0), tmp_path / "c.json")
    args = [a.format(chain=tmp_path / "c.json") for a in args]
    code, err = _error_exit([*args, "--seed", "7"], capsys)
    assert code == 2
    assert err == f"error: {mode} does not read --seed\n"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    assert run_cli(["--config", str(cfg), *args], tmp_path, "a.csv") == run_cli(args, tmp_path, "b.csv")
    assert run_cli(args, tmp_path)[0] == 0


def test_seed_with_random_chain_is_read(tmp_path):
    args = ["opt", "--n", "4", "--k", "2", "--T", "5"]
    first = run_cli([*args, "--seed", "1"], tmp_path, "a.csv")
    second = run_cli([*args, "--seed", "2"], tmp_path, "b.csv")
    assert first[0] == second[0] == 0 and first[1] != second[1]


CONFIG_FILES = {
    "missing": (None, "No such file or directory"),
    "malformed": ("{bad", "--config {path}: Expecting property name"),
    "list": ("[1, 2]", "--config {path}: expected a JSON object, got list"),
}


@pytest.mark.parametrize("text,message", CONFIG_FILES.values(), ids=CONFIG_FILES.keys())
def test_unreadable_config_is_usage_error(text, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    code, err = _error_exit(["--config", str(path), "lowerbound", "--eps", "0.1", "--eps1-frac", "0.6", "--T", "5"], capsys)
    assert code == 2
    assert message.format(path=path) in err


@pytest.mark.parametrize(
    "doc,message",
    [("[1, 2]", "chain file must hold a JSON object, got list"),
     ('{"n": 2, "transition": 5}', "chain file's transition must be a list of rows"),
     ('{"n": 2, "transition": [1, 2]}', "chain file's transition must be a list of rows"),
     ('{"n": [2], "transition": [[0.5, 0.5], [0.5, 0.5]]}', "chain file's n must be an integer, got list"),
     ('{"n": 2.7, "transition": [[0.5, 0.5], [0.5, 0.5]]}', "chain file's n must be an integer, got float"),
     ('{"transition": [[0.5, 0.5], [0.5, 0.5]]}', "chain file has no 'n' field"),
     ('{"n": 2, "transition": [[0.5, 0.5], [0.5, 0.5]], "init": {"a": 1}}', "init entries must be numbers")],
    ids=["list", "scalar-transition", "flat-transition", "list-n", "float-n", "no-n", "object-init"],
)
def test_malformed_chain_file_is_usage_error(doc, message, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(doc)
    code, err = _error_exit(["opt", "--chain", str(path), "--k", "1", "--T", "2"], capsys)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [["opt", "--chain", "{dir}", "--k", "1", "--T", "2"],
     ["learn", "--trace", "{dir}", "--delta-inf", "0.1"],
     ["--output", "{dir}", "opt", "--n", "3", "--k", "1", "--T", "2"]],
    ids=["chain", "learn-trace", "output"],
)
def test_directory_in_place_of_a_file_is_usage_error(args, tmp_path, capsys):
    code, err = _error_exit([a.format(dir=tmp_path) for a in args], capsys)
    assert code == 2
    assert "Is a directory" in err


@pytest.mark.parametrize(
    "args,message",
    [(["opt", "--lb-eps1", "0.05", "--n", "4", "--k", "2", "--T", "5"], "--lb-eps1 requires --lb-eps"),
     (["opt", "--lb-eps1", "0.05", "--k", "2", "--T", "5"], "--lb-eps1 requires --lb-eps"),
     (["opt", "--lb-eps", "0.1", "--k", "2", "--T", "5"], "--lb-eps requires --lb-eps1")],
    ids=["lb-eps1-with-n", "lb-eps1-alone", "lb-eps-alone"],
)
def test_half_an_lb_pair_is_named(args, message, tmp_path, capsys):
    # half of the --lb-eps/--lb-eps1 pair is neither a chain source nor a
    # second one; a config value completes the pair like any default
    assert _error_exit(args, capsys) == (2, f"error: {message}\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lb_eps": 0.1, "lb_eps1": 0.05}))
    if "--n" not in args:
        assert run_cli(["--config", str(cfg), *args], tmp_path)[0] == 0


@pytest.mark.parametrize("delta,message", [("nan", "must be nonnegative"), ("-1", "must be nonnegative"),
                                           ("inf", "bound inapplicable")])
def test_learn_trace_rejects_a_non_finite_delta_inf(delta, message, tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("0\n1\n2\n0\n2\n1\n")
    code, err = _error_exit(["learn", "--trace", str(trace), "--delta-inf", delta], capsys)
    assert code == 2 and message in err


MALFORMED_PAGES = {
    "pair-of-three": (["alpha", "--n", "3", "--pair", "1,0,2"], "pair", "'1,0,2' is not one pair 'p,q'"),
    "pair-of-words": (["alpha", "--n", "3", "--pair", "a,b"], "pair", "'a,b' is not a comma-separated list of pages"),
    "init-cache-of-words": (["opt", "--n", "4", "--k", "2", "--T", "5", "--init-cache", "a,b"], "init_cache",
                            "'a,b' is not a comma-separated list of pages"),
}


@pytest.mark.parametrize("args,dest,message", MALFORMED_PAGES.values(), ids=MALFORMED_PAGES.keys())
def test_malformed_pages_name_their_flag(args, dest, message, tmp_path, capsys):
    code, err = _error_exit(args, capsys)
    assert (code, err) == (2, f"error: argument --{dest.replace('_', '-')}: {message}\n")
    # a config value goes through the same parser
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({dest: args[-1]}))
    code, err = _error_exit(["--config", str(cfg), *args[:-2]], capsys)
    assert (code, err) == (2, f"error: --config {dest}: {message}\n")


# The flags each mode reads, stated apart from the CLI's own table; "lb_eps"
# stands for the --lb-eps/--lb-eps1 pair
MODE_READS = {
    "alpha": {"chain", "n", "lb_eps", "seed", "save_table"},
    "alpha --gamma": {"chain", "n", "lb_eps", "seed", "gamma"},
    "alpha --pair": {"chain", "n", "lb_eps", "seed", "pair"},
    "simulate": {"chain", "n", "lb_eps", "policy", "k", "T", "seed", "init_cache", "trials", "budget"},
    "opt": {"chain", "n", "lb_eps", "k", "T", "seed", "init_cache", "budget", "save_table"},
    "ratio": {"chain", "n", "lb_eps", "policies", "baseline", "k", "T", "seed", "init_cache", "trials", "budget"},
    "audit": {"chain", "n", "lb_eps", "scheme", "seed", "trials", "k", "T", "ext_mult", "algo", "ref", "budget",
              "trace_out"},
    "lowerbound": {"eps", "eps1_frac", "T"},
    "learn": {"chain", "n", "lb_eps", "k", "T", "seed", "m", "smoothing", "init_cache", "trials", "budget"},
    "learn --trace": {"trace", "delta_inf", "n", "smoothing"},
}
# Each mode's minimal command; every chain source in it is --n
MINIMAL_COMMANDS = {
    "alpha": ["alpha", "--n", "4"],
    "alpha --gamma": ["alpha", "--n", "4", "--gamma"],
    "alpha --pair": ["alpha", "--n", "4", "--pair", "1,0"],
    "simulate": ["simulate", "--policy", "lru", "--n", "4", "--k", "2", "--T", "5", "--trials", "5", "--seed", "1"],
    "opt": ["opt", "--n", "4", "--k", "2", "--T", "5"],
    "ratio": ["ratio", "--policies", "lru", "--n", "4", "--k", "2", "--T", "5", "--trials", "5", "--seed", "1"],
    "audit": ["audit", "--scheme", "original", "--n", "4", "--T", "5", "--trials", "2", "--seed", "1"],
    "lowerbound": ["lowerbound", "--eps", "1e-3", "--eps1-frac", "0.7", "--T", "10"],
    "learn": ["learn", "--n", "4", "--m", "50000", "--k", "2", "--T", "5", "--trials", "5", "--seed", "1"],
    "learn --trace": ["learn", "--trace", "{tmp}/t.txt", "--delta-inf", "0.01"],
}
# One valid value for each flag
FLAG_VALUES = {
    "chain": ["--chain", "{tmp}/c.json"],
    "n": ["--n", "4"],
    "lb_eps": ["--lb-eps", "0.1", "--lb-eps1", "0.05"],
    "trace": ["--trace", "{tmp}/t.txt"],
    "m": ["--m", "50000"],
    "smoothing": ["--smoothing", "0.5"],
    "delta_inf": ["--delta-inf", "0.01"],
    "policy": ["--policy", "fifo"],
    "policies": ["--policies", "fifo"],
    "baseline": ["--baseline", "lru"],
    "scheme": ["--scheme", "original"],
    "k": ["--k", "2"],
    "T": ["--T", "5"],
    "init_cache": ["--init-cache", "0,1"],
    "trials": ["--trials", "3"],
    "ext_mult": ["--ext-mult", "2"],
    "algo": ["--algo", "median"],
    "ref": ["--ref", "opt-dp"],
    "seed": ["--seed", "2"],
    "budget": ["--budget", "1e8"],
    "trace_out": ["--trace-out", "{tmp}/trace.csv"],
    "pair": ["--pair", "0,1"],
    "gamma": ["--gamma"],
    "save_table": ["--save-table", "{tmp}/table.npz"],
    "eps": ["--eps", "1e-4"],
    "eps1_frac": ["--eps1-frac", "0.6"],
}
# The flags that select a mode of their command
MODE_SWITCHES = {"gamma": "alpha --gamma", "pair": "alpha --pair", "trace": "learn --trace"}


def _command_flags(command):
    return set().union(*(read for mode, read in MODE_READS.items() if mode.split()[0] == command))


FLAG_CASES = [
    (mode, flag)
    for mode, argv in MINIMAL_COMMANDS.items()
    for flag in sorted(_command_flags(argv[0]))
    if MODE_SWITCHES.get(flag, mode) == mode
]


@pytest.mark.parametrize("mode,flag", FLAG_CASES, ids=[f"{m.replace(' --', '-')}:{f}" for m, f in FLAG_CASES])
def test_mode_reads_exactly_its_flags(mode, flag, tmp_path, capsys):
    """A mode's minimal command runs with one more flag that the mode reads,
    and names the mode and the flag for one it does not read. A chain
    source replaces the command's own."""
    save_chain(random_chain(4, 0), tmp_path / "c.json")
    (tmp_path / "t.txt").write_text("0\n1\n2\n0\n2\n1\n")
    argv = MINIMAL_COMMANDS[mode]
    if flag in ("chain", "n", "lb_eps") and "--n" in argv:
        at = argv.index("--n")
        argv = argv[:at] + argv[at + 2:]
    argv = [a.format(tmp=tmp_path) for a in [*argv, *FLAG_VALUES[flag]]]
    code = main(["--output", str(tmp_path / "out.csv"), *argv])
    err = capsys.readouterr().err
    if flag in MODE_READS[mode]:
        assert (code, err) == (0, "")
    else:
        names = ", ".join(a for a in FLAG_VALUES[flag] if a.startswith("--"))
        assert (code, err) == (2, f"error: {mode} does not read {names}\n")


@pytest.mark.parametrize("command", ["alpha", "simulate", "opt", "ratio", "audit", "lowerbound", "learn"])
def test_help_lists_exactly_the_command_flags(command, capsys):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    listed = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out)) - {"--help"}
    assert listed == {a for f in _command_flags(command) for a in FLAG_VALUES[f] if a.startswith("--")}


def test_config_null_leaves_the_default(tmp_path):
    # a null seed falls back to opt's seed 0, and a null trials count to 10,000
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": None, "trials": None}))
    for args in (["opt", "--n", "4", "--k", "2", "--T", "5"],
                 ["simulate", "--policy", "lru", "--n", "4", "--k", "2", "--T", "5", "--seed", "1"]):
        code, text = run_cli(["--config", str(cfg), *args], tmp_path, "a.csv")
        assert code == 0 and text == run_cli(args, tmp_path, "b.csv")[1]
