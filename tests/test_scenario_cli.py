import argparse
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import mevscope.cli
from mevscope import (REGISTRY, Account, MethodDef, ScenarioError, SearchBudget,
                      StrippingReport, Wallet, global_mev, verify_stripping)
from mevscope.cli import (EXIT_CLOSED_STDOUT, EXIT_INTERNAL, EXIT_SCENARIO, EXIT_USAGE,
                          build_parser, main)
from mevscope.scenario import (build_state, load_bundled, load_scenario, parse_scenario,
                               scenario_path)

from helpers import M


def _path(name: str) -> str:
    return str(scenario_path(name))


class TestLoader:
    def test_bundled_pool_chain_builds_the_expected_state(self):
        scn = load_bundled("two_amms.scn")
        state, delta = build_state(scn)
        assert state.user_wallet(M) == Wallet({"T0": 3})
        assert state.contract_state(Account.contract("AMM1")).wallet \
            == Wallet({"T0": 6, "T1": 6})
        assert state.contract_state(Account.contract("AMM2")).wallet \
            == Wallet({"T1": 4, "T2": 9})
        assert state.adversary == frozenset({M})
        assert delta == frozenset({Account.contract("AMM2")})
        # setup funding leaves the deployer where the scenario declared it
        assert state.user_wallet(Account.user("A")) == Wallet()
        from mevscope import check_well_formed
        assert check_well_formed(state)

    def test_dependency_must_be_deployed_first(self):
        doc = {
            "tokens": [{"symbol": "ETH"}, {"symbol": "T"}],
            "users": [{"name": "M", "adversary": True}],
            "deployments": [
                {"contract": "bet", "name": "Bet",
                 "args": {"oracle": "AMM", "token": "T", "rate": 2, "deadline": 5},
                 "fund": {"ETH": 1}},
            ],
        }
        with pytest.raises(ScenarioError, match="not deployed yet"):
            build_state(parse_scenario(json.dumps(doc)))

    def test_empty_file_is_a_parse_error(self):
        with pytest.raises(ScenarioError, match="empty"):
            parse_scenario("")

    def test_parse_error_carries_position(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("{nope")

    def test_unknown_catalog_name(self):
        doc = {"tokens": [], "users": [],
               "deployments": [{"contract": "nope", "name": "X"}]}
        with pytest.raises(ScenarioError, match="unknown catalog name"):
            parse_scenario(json.dumps(doc))

    def test_duplicate_instance_names(self):
        doc = {"tokens": [{"symbol": "T"}], "users": [],
               "deployments": [
                   {"contract": "cell", "name": "X"},
                   {"contract": "cell", "name": "X"}]}
        with pytest.raises(ScenarioError, match="duplicate instance names"):
            parse_scenario(json.dumps(doc))

    def test_negative_amounts_rejected(self):
        doc = {"tokens": [{"symbol": "T"}],
               "users": [{"name": "M", "wallet": {"T": -1}}],
               "deployments": []}
        with pytest.raises(ScenarioError, match="non-negative"):
            parse_scenario(json.dumps(doc))

    def test_bad_split_rejected(self):
        doc = {"tokens": [], "users": [], "deployments": [], "split": 2}
        with pytest.raises(ScenarioError, match="split"):
            parse_scenario(json.dumps(doc))

    def test_rational_prices(self):
        doc = {"tokens": [{"symbol": "T", "price": "3/2"}], "users": [],
               "deployments": []}
        scn = parse_scenario(json.dumps(doc))
        from fractions import Fraction
        assert dict(scn.prices().prices)["T"] == Fraction(3, 2)


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestCli:
    def test_lmev_reports_the_witness(self):
        code, out = run_cli("lmev", _path("two_amms.scn"), "--observed", "AMM2")
        assert code == 0
        assert "lmev = 1" in out
        assert "M:AMM1.swap(?3:T0, 0)" in out

    def test_restricted_lmev(self):
        code, out = run_cli("lmev", _path("two_amms.scn"),
                            "--observed", "AMM2", "--restrict", "AMM2")
        assert code == 0 and "lmev = 0" in out

    def test_verdict_exit_codes(self):
        code, _ = run_cli("nonint", _path("bet_on_amm_oracle.scn"))
        assert code == 1
        code, _ = run_cli("nonint", _path("airdrop_beside_amm.scn"))
        assert code == 0
        code, _ = run_cli("richnonint", _path("cell_gated_vault.scn"))
        assert code == 1

    def test_epsilon_flag(self):
        code, out = run_cli("epsilon", _path("mutex_vaults.scn"), "--eps", "0")
        assert code == 0 and "holds" in out
        code, _ = run_cli("epsilon", _path("airdrop_beside_amm.scn"), "--eps", "0")
        assert code == 1
        code, _ = run_cli("epsilon", _path("mutex_vaults.scn"), "--eps", "-1")
        assert code == 10
        code, _ = run_cli("epsilon", _path("mutex_vaults.scn"), "--eps", "1/0")
        assert code == 10

    def test_strip_check_statuses(self):
        code, out = run_cli("strip-check", _path("faucet_forwarder.scn"),
                            "--observed", "C0", "--restrict", "C1")
        assert code == 2 and "hypothesis-not-met" in out
        code, out = run_cli("strip-check", _path("bet_on_amm_oracle.scn"))
        assert code == 0 and "verified" in out

    def test_table2_matches_expectations(self):
        code, out = run_cli("table2")
        assert code == 0
        assert "all rows match" in out

    def test_examples_all_pass(self):
        code, out = run_cli("examples")
        assert code == 0
        assert "FAIL" not in out

    def test_battery_passes(self):
        code, out = run_cli("battery")
        assert code == 0 and "FAIL" not in out

    def test_json_reports_are_deterministic(self):
        a = run_cli("nonint", _path("bet_on_amm_oracle.scn"), "--format", "json")
        b = run_cli("nonint", _path("bet_on_amm_oracle.scn"), "--format", "json")
        assert a == b
        doc = json.loads(a[1])
        assert doc["result"]["verdict"] == "violated"
        assert doc["result"]["unrestricted"] == "10"
        assert doc["result"]["restricted"] == "0"
        assert doc["exit_code"] == 1

    def test_json_value_report_fields(self):
        code, out = run_cli("lmev", _path("two_amms.scn"), "--observed", "AMM2",
                            "--format", "json")
        doc = json.loads(out)
        assert set(doc) >= {"command", "scenario", "budget", "observed",
                            "restriction", "value", "witness", "complete"}
        assert doc["value"] == "1"

    @pytest.mark.parametrize("command, scenario, flag, value", (
        ("lmev", "two_amms.scn", "--observed", "NOPE"),
        ("lmev", "two_amms.scn", "--observed", ""),
        ("lmev", "two_amms.scn", "--restrict", ""),
        ("mev", "airdrop_beside_amm.scn", "--depth", "1200"),
        ("mev", "two_amms.scn", "--grid", "0"),
    ), ids=("undeployed", "empty-observed", "empty-restrict", "depth-over-bound",
            "grid-zero"))
    def test_usage_error_exit_code(self, command, scenario, flag, value):
        code, _ = run_cli(command, _path(scenario), flag, value)
        assert code == 10

    def test_a_verdict_on_an_empty_fragment_is_a_usage_error(self, tmp_path, capsys):
        """A split that leaves no deployment in the fragment gives a verdict
        command nothing to decide."""
        path = tmp_path / "no_fragment.scn"
        path.write_text(json.dumps(_amended({"split": 2})))
        assert run_cli("nonint", str(path))[0] == 10
        assert "scenario has an empty fragment after the split" in capsys.readouterr().err

    def test_scenario_error_exit_code(self, tmp_path):
        bad = tmp_path / "broken.scn"
        bad.write_text("{")
        code, _ = run_cli("nonint", str(bad))
        assert code == 11


# every command of the README's "Command line" section, with its flags
README_COMMANDS = (
    ("lmev", "relay_chain.scn", "--observed", "C2", "--restrict", "C2"),
    ("rlmev", "relay_chain.scn", "--observed", "C2", "--restrict", "C2"),
    ("mev", "relay_chain.scn"),
    ("nonint", "relay_chain.scn"),
    ("richnonint", "relay_chain.scn"),
    ("epsilon", "relay_chain.scn", "--eps", "0"),
    ("strip-check", "relay_chain.scn", "--observed", "C2", "--restrict", "C2"),
    ("table2",),
    ("battery", "--seed", "1"),
    ("examples",),
)


def _commands(parser) -> dict:
    """Command name -> subparser of a parser from ``build_parser``."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_the_readme_command_block_lists_every_subcommand():
    """The parser's subcommands are exactly the ``mevscope X`` lines of the
    README's "Command line" block, and ``README_COMMANDS`` runs each."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    documented = re.findall(r"^mevscope (\S+)", block, re.M)
    assert sorted(documented) == sorted(_commands(build_parser()))
    assert sorted(argv[0] for argv in README_COMMANDS) == sorted(documented)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda a: a[0])
def test_a_single_command_parser_matches_the_full_one(argv):
    """``build_parser(name)``, which ``main`` uses, holds only that command's
    subparser; its help and the namespace it parses (with the same handler)
    equal the full parser's."""
    name = argv[0]
    argv = [_path(a) if a.endswith(".scn") else a for a in argv]
    full, single = build_parser(), build_parser(name)
    assert list(_commands(single)) == [name]
    assert _commands(single)[name].format_help() == _commands(full)[name].format_help()
    full_ns, single_ns = (vars(p.parse_args(argv)) for p in (full, single))
    assert full_ns.pop("run").__code__ is single_ns.pop("run").__code__
    assert full_ns == single_ns


def test_the_top_level_help_and_usage_errors_list_every_command(capsys):
    full = build_parser()
    assert main([]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "usage error: the following arguments are required: command\n")
    assert main(["bogus"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument command: invalid choice: 'bogus' (choose from ")
    assert re.findall(r"[\w-]+", err.split("choose from", 1)[1]) == list(_commands(full))
    for argv, parser in ((["--help"], full), (["lmev", "--help"], _commands(full)["lmev"])):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == parser.format_help()


def test_a_command_builds_two_parsers(monkeypatch):
    """The top-level parser and the invoked command's subparser: a one-shot
    process that built all ten spent more on argparse than on a typical
    query."""
    built = []
    init = mevscope.cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(mevscope.cli._Parser, "__init__", counting_init)
    assert run_cli("lmev", _path("two_amms.scn"), "--format", "json")[0] == 0
    assert built == ["mevscope", "mevscope lmev"]


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda a: a[0])
def test_every_readme_command_runs(argv, fmt):
    argv = [_path(a) if a.endswith(".scn") else a for a in argv]
    code, out = run_cli(*argv, "--format", fmt)
    assert code in (0, 1, 2, 3)
    if fmt == "text":
        assert out.strip()
        return
    doc = json.loads(out)
    assert doc["command"] == argv[0] and doc["exit_code"] == code
    if argv[0] == "mev":
        scn = load_bundled("relay_chain.scn")
        state, _ = build_state(scn)
        res = global_mev(state, scn.prices(), SearchBudget())
        assert doc["value"] == str(res.value) == "100"
        assert doc["witness"] == [tx.label() for tx in res.witness]
        assert doc["complete"] == res.complete


@pytest.mark.parametrize("argv", (
    ("examples", "--depth", "3"),
    ("table2", "--seed", "1"),
    ("nonint", "relay_chain.scn", "--seed", "1"),
    ("mev", "relay_chain.scn", "--observed", "C2"),
), ids=("examples-depth", "table2-seed", "nonint-seed", "mev-observed"))
def test_commands_reject_flags_they_do_not_read(argv):
    argv = [_path(a) if a.endswith(".scn") else a for a in argv]
    assert run_cli(*argv)[0] == EXIT_USAGE


def test_strip_check_applies_the_scenario_ceiling(tmp_path, monkeypatch):
    doc = json.loads(scenario_path("faucet_forwarder.scn").read_text())
    doc["ceiling"] = 6
    path = tmp_path / "ceiling.scn"
    path.write_text(json.dumps(doc))
    seen = []

    def capture(state, observed, restriction, prices, budget):
        seen.append(budget)
        return StrippingReport("verified", "captured")

    monkeypatch.setattr(mevscope.cli, "verify_stripping", capture)
    assert run_cli("strip-check", str(path), "--exhaustive")[0] == 0
    assert [b.ceiling for b in seen] == [6]


def test_a_crash_exits_with_the_internal_error_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(mevscope.cli, "nonint", boom)
    assert main(["nonint", _path("relay_chain.scn")]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "boom" in err
    assert err.count("\n") == 1


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_is_not_an_internal_error(capsys):
    for fmt in ("json", "text"):
        with redirect_stdout(_ClosedStdout()):
            code = main(["rlmev", _path("two_amms.scn"), "--format", fmt])
        assert code == EXIT_CLOSED_STDOUT
        assert capsys.readouterr().err == ""


def test_a_reader_that_closes_first_sees_the_closed_stdout_code():
    """The command line, with a pipe whose read end is closed before the
    process starts: the exit flush raises nothing more and stderr stays
    empty."""
    src = str(Path(mevscope.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mevscope.cli", "rlmev", _path("two_amms.scn"),
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_CLOSED_STDOUT, b"")


@pytest.mark.parametrize("amend, error", (
    (lambda code: dataclasses.replace(code, height_thresholds=()),
     "Bet compares the block height with 1001, which its height_thresholds does not list"),
    (lambda code: dataclasses.replace(code, methods={
        **code.methods, "close": MethodDef(lambda c: c.require(c.height_reached(1000)))}),
     "Bet compares the block height with 1000, which its height_thresholds does not list"),
), ids=("no-threshold", "undeclared-threshold"))
def test_a_height_read_the_thresholds_do_not_cover_exits_internal(amend, error,
                                                                   monkeypatch, capsys):
    """The Bet declares the one threshold ``deadline + 1``: a Bet that
    declares none, or compares the height with another one, is a contract
    bug, since the search's memo keeps only how far each declared threshold
    is."""
    bet = REGISTRY["bet"]

    def build(name, **params):
        return amend(bet.build(name, **params))

    monkeypatch.setitem(REGISTRY, "bet", dataclasses.replace(bet, build=build))
    code, out = run_cli("lmev", _path("bet_on_amm_oracle.scn"))
    assert code == EXIT_INTERNAL and out == ""
    assert error in capsys.readouterr().err


def test_a_lying_sender_agnostic_flag_is_a_strip_check_mismatch(monkeypatch):
    """C0 pays only C1 yet claims to be sender-agnostic: the hypothesis
    check passes, so stripping C1 away shows as a value mismatch."""
    faucet = REGISTRY["gated_faucet"]

    def build(name, **params):
        return dataclasses.replace(faucet.build(name, **params), sender_agnostic=True)

    monkeypatch.setitem(REGISTRY, "gated_faucet", dataclasses.replace(faucet, build=build))
    scn = load_bundled("gated_faucet_pair.scn")
    state, _ = build_state(scn)
    rep = verify_stripping(state, {Account.contract("C0")}, None, scn.prices(), SearchBudget())
    assert rep.status == "mismatch"
    assert (rep.full_value, rep.stripped_value) == (5, 0)
    code, out = run_cli("strip-check", _path("gated_faucet_pair.scn"), "--observed", "C0")
    assert code == 1 and "strip-check: mismatch" in out


def test_equal_deployments_share_one_code():
    """A catalog entry builds one code per instance name and checked
    parameters: a scenario built twice deploys the same code objects, a
    default spelled out is the same parameter, and a deployment that
    differs in one parameter or in its name gets its own code."""
    scn = load_bundled("bet_on_amm_oracle.scn")
    first, _ = build_state(scn)
    second, _ = build_state(scn)
    assert first.order == second.order
    assert all(first.codes[a] is second.codes[a] for a in first.order)
    bet = REGISTRY["bet"]
    args = {"oracle": "AMM", "token": "T", "rate": 2, "deadline": 5}
    code = bet.make("Bet", **args)
    assert bet.make("Bet", **args, pot_token="ETH") is code
    assert bet.make("Bet", **{**args, "deadline": 6}) is not code
    assert bet.make("Bet2", **args) is not code


@pytest.mark.parametrize("name", ("compositions/row7_lp_arbitrage.scn",
                                  "compositions/row8_flash_loan_arbitrage.scn"))
def test_exhaustive_mev_on_the_lending_pool_rows_runs(name):
    """``--exhaustive`` proposes ``redeem(0)`` for an origin without a
    position; the pool reads that position as zero instead of crashing."""
    assert run_cli("mev", _path(name), "--exhaustive", "--depth", "1")[0] in (0, 1, 2, 3)


def _named(tokens=("T", "ETH"), user="M", contract="cell", instance="X", by="M"):
    return {"tokens": [{"symbol": t} for t in tokens],
            "users": [{"name": user, "adversary": True}],
            "deployments": [{"contract": contract, "name": instance, "by": by}]}


@pytest.mark.parametrize("field, doc", (
    ("symbol", _named(tokens=("T", 5))),
    ("name", _named(user=7)),
    ("name", _named(user="")),
    ("name", _named(instance=["X"])),
    ("contract", _named(contract=["cell"])),
    ("by", _named(by=3)),
), ids=("int-symbol", "int-user", "empty-user", "list-instance", "list-contract", "int-by"))
def test_malformed_names_are_scenario_errors(field, doc, tmp_path):
    with pytest.raises(ScenarioError, match=f"{field} must be a non-empty string"):
        parse_scenario(json.dumps(doc))
    path = tmp_path / "named.scn"
    path.write_text(json.dumps(doc))
    assert run_cli("mev", str(path))[0] == EXIT_SCENARIO


def test_an_overlong_integer_literal_is_a_scenario_error(tmp_path):
    """A 5,000-digit ``split`` exceeds CPython's integer string conversion
    limit inside ``json.loads``; the loader reports it as a scenario error.
    Malformed JSON keeps its line and column."""
    doc = json.loads(scenario_path("two_amms.scn").read_text())
    text = json.dumps(doc).replace('"split": 1', '"split": ' + "9" * 5000)
    assert "9" * 5000 in text
    path = tmp_path / "long_split.scn"
    path.write_text(text)
    with pytest.raises(ScenarioError, match="long_split.scn: "):
        load_scenario(path)
    code, out = run_cli("lmev", str(path))
    assert code == EXIT_SCENARIO, out
    with pytest.raises(ScenarioError, match="parse error at line 1, column 12"):
        parse_scenario('{"split": 1')


def _with_arg(name, index, arg, value):
    doc = json.loads(scenario_path(name).read_text())
    doc["deployments"][index]["args"][arg] = value
    return doc


@pytest.mark.parametrize("arg, doc", (
    ("oracle", _with_arg("compositions/row7_lp_arbitrage.scn", 2, "oracle", "")),
    ("expected_sender", _with_arg("gated_faucet_pair.scn", 0, "expected_sender", "")),
), ids=("empty-user-arg", "empty-str-arg"))
def test_empty_deployment_names_are_scenario_errors(arg, doc, tmp_path):
    """An empty ``user`` argument would crash in ``Account.user``; an empty
    ``str`` one would build a faucet that can never open."""
    with pytest.raises(ScenarioError, match=f"{arg} must be a non-empty string"):
        build_state(parse_scenario(json.dumps(doc)))
    path = tmp_path / "empty.scn"
    path.write_text(json.dumps(doc))
    assert run_cli("mev", str(path))[0] == EXIT_SCENARIO


@pytest.mark.parametrize("arg, doc", (
    ("amount", _with_arg("faucet_forwarder.scn", 0, "amount", -1)),
    ("amount", _with_arg("cell_gate.scn", 1, "amount", -1)),
    ("amount_out", _with_arg("relay_chain.scn", 1, "amount_out", -1)),
), ids=("faucet", "gated-drop", "relay"))
def test_negative_int_deployment_args_are_scenario_errors(arg, doc, tmp_path):
    """No catalog ``int`` parameter means anything below 0; a negative one
    would build a contract whose first payout crashes the search."""
    with pytest.raises(ScenarioError, match=f"{arg} must be a non-negative int"):
        build_state(parse_scenario(json.dumps(doc)))
    path = tmp_path / "negative.scn"
    path.write_text(json.dumps(doc))
    assert run_cli("mev", str(path))[0] == EXIT_SCENARIO


def test_a_top_level_oracle_user_is_an_unknown_field(tmp_path):
    """The lending pool's accruing user is its own ``oracle`` argument; a
    scenario-wide ``oracle_user`` is not a field."""
    doc = json.loads(scenario_path("compositions/row7_lp_arbitrage.scn").read_text())
    doc["oracle_user"] = "Oracle"
    with pytest.raises(ScenarioError, match=r"unknown fields \['oracle_user'\]"):
        parse_scenario(json.dumps(doc))
    path = tmp_path / "oracle_user.scn"
    path.write_text(json.dumps(doc))
    assert run_cli("mev", str(path))[0] == EXIT_SCENARIO


def _amended(fields, part=None, index=0, drop=()):
    """``two_amms.scn`` with ``fields`` set and the keys ``drop`` deleted in
    the top level, or in entry ``index`` of the list ``part``."""
    doc = json.loads(scenario_path("two_amms.scn").read_text())
    target = doc if part is None else doc[part][index]
    target.update(fields)
    for key in drop:
        del target[key]
    return doc


def _replaced(part, index, value):
    """``two_amms.scn`` with entry ``index`` of the list ``part`` replaced."""
    doc = json.loads(scenario_path("two_amms.scn").read_text())
    doc[part][index] = value
    return doc


def _second(contract, args, fund=None):
    """``two_amms.scn`` with its second deployment made of ``contract``."""
    return _amended({"contract": contract, "args": args, "fund": fund or {}},
                    "deployments", 1)


_MALFORMED = (
    ("adversary must be a boolean", _amended({"adversary": "false"}, "users"),
     "string-adversary"),
    ("adversary must be a boolean", _amended({"adversary": [1]}, "users"), "list-adversary"),
    ("tokens must be a list", _amended({"tokens": 5}), "int-tokens"),
    ("users must be a list", _amended({"users": {"name": "M"}}), "object-users"),
    ("deployments must be a list", _amended({"deployments": None}), "null-deployments"),
    ("split must be an int", _amended({"split": True}), "bool-split"),
    ("block_height must be a non-negative int", _amended({"block_height": True}),
     "bool-block-height"),
    ("ceiling must be a positive int", _amended({"ceiling": True}), "bool-ceiling"),
    (r"tokens\[0\]: unknown fields \['prize'\]", _amended({"prize": 2}, "tokens"),
     "unknown-token-field"),
    (r"users\[0\]: unknown fields \['adversery'\]", _amended({"adversery": True}, "users"),
     "unknown-user-field"),
    (r"deployments\[1\]: unknown fields \['fnud'\]",
     _amended({"fnud": {}}, "deployments", 1), "unknown-deployment-field"),
    ("top level must be an object", [], "list-top-level"),
    (r"tokens\[0\]: expected an object with a symbol",
     _amended({}, "tokens", drop=("symbol",)), "token-without-symbol"),
    ("expected a number, got a boolean", _amended({"price": True}, "tokens"), "bool-price"),
    ("bad rational '1/0'", _amended({"price": "1/0"}, "tokens"), "zero-denominator-price"),
    ("expected int or 'p/q' string", _amended({"price": [1]}, "tokens"), "list-price"),
    ("price must be positive", _amended({"price": 0}, "tokens"), "zero-price"),
    ("duplicate token symbols", _amended({"symbol": "T0"}, "tokens", 1), "duplicate-symbols"),
    (r"users\[1\]: expected an object with a name", _replaced("users", 1, {}),
     "user-without-name"),
    ("wallet must be an object", _amended({"wallet": [1]}, "users"), "list-wallet"),
    (r"users\[0\]: unknown token 'T9'", _amended({"wallet": {"T9": 1}}, "users"),
     "wallet-unknown-token"),
    ("duplicate user names", _amended({"name": "M"}, "users", 1), "duplicate-users"),
    (r"deployments\[1\]: expected an object", _replaced("deployments", 1, 5),
     "int-deployment"),
    (r"missing fields \['contract', 'name'\]",
     _amended({}, "deployments", 1, drop=("contract", "name")), "nameless-deployment"),
    ("args must be an object", _amended({"args": ["T1", "T2"]}, "deployments", 1),
     "list-args"),
    ("instance names collide with user names", _amended({"name": "A"}, "deployments", 1),
     "instance-named-like-user"),
    ("rate must be an int", _second("exchange", {"tout": "T2", "tin": "T1", "rate": "2"}),
     "string-int-parameter"),
    ("t0 must be a string", _second("amm", {"t0": 1, "t1": "T2"}), "int-token-parameter"),
    ("unknown token 'T9'", _second("amm", {"t0": "T9", "t1": "T2"}), "unknown-token-parameter"),
    ("constructor of 'AMM2' aborted",
     _amended({"fund": {"T0": 1, "T1": 4, "T2": 9}}, "deployments", 1), "aborting-constructor"),
    ("amm: the two pool tokens must differ", _second("amm", {"t0": "T1", "t1": "T1"}),
     "amm-one-token"),
    ("exchange: tin and tout must differ",
     _second("exchange", {"tout": "T2", "tin": "T2", "rate": 2}), "exchange-one-token"),
    ("exchange: rate must be a positive int",
     _second("exchange", {"tout": "T2", "tin": "T1", "rate": 0}), "exchange-zero-rate"),
    ("lending_pool: rliq and imul must exceed 1",
     _second("lending_pool", {"token": "T1", "rliq": 1}, {"T1": 9}), "lending-pool-rliq-1"),
)


@pytest.mark.parametrize("match, doc", [row[:2] for row in _MALFORMED],
                         ids=[row[2] for row in _MALFORMED])
def test_malformed_fields_are_scenario_errors(match, doc, tmp_path, capsys):
    """A wrongly typed, misspelt, missing or conflicting field must not
    parse or build as some other scenario, nor crash: a truthy non-boolean
    is no adversary flag, JSON ``true`` is no int, a list field must be a
    list, a key no object defines is a typo, and a catalog parameter or a
    constructor that rejects a deployment rejects the scenario."""
    with pytest.raises(ScenarioError, match=match):
        build_state(parse_scenario(json.dumps(doc)))
    path = tmp_path / "malformed.scn"
    path.write_text(json.dumps(doc))
    assert run_cli("mev", str(path))[0] == EXIT_SCENARIO
    assert re.search(match, capsys.readouterr().err)


@pytest.mark.parametrize("match, data", (
    ("cannot read scenario", b"\xff\xfe{}"),
    ("parse error: nested too deeply", b"[" * 100_000 + b"]" * 100_000),
), ids=("not-utf8", "nested-too-deeply"))
def test_unreadable_scenario_files_are_scenario_errors(match, data, tmp_path):
    """Bytes that are not UTF-8, or JSON nested past the parser's recursion
    limit, are a scenario error, not an internal one."""
    path = tmp_path / "unreadable.scn"
    path.write_bytes(data)
    with pytest.raises(ScenarioError, match=match):
        load_scenario(path)
    assert run_cli("mev", str(path))[0] == EXIT_SCENARIO
