"""Command-line driver.

Commands: ``lmev``, ``mev``, ``rlmev`` (value searches), ``nonint``,
``richnonint``, ``epsilon`` (verdicts), ``strip-check``, ``table2`` (the
composition matrix over the bundled scenarios), ``battery`` (structural
properties) and ``examples`` (all golden reproductions).

Exit codes: 0 holds / success, 1 violated / reproduction failure, 2 unknown
or hypothesis-not-met, 3 incomplete value (only ``lmev``, ``rlmev`` and
``mev``, when a memo or escalation cap was hit: verdicts and ``strip-check``
map only their outcome, and ``analysis._noninterference`` drops the
searches' warnings; see ROADMAP item 4), 10 usage error, 11 scenario error,
12 internal error (an unexpected exception, reported as one line on stderr),
141 stdout closed by its reader before the report was written (the code a
shell reports for a process killed by SIGPIPE; nothing is printed).

``main`` builds only the subparser of the command it runs, since building
all ten cost more than a typical query (``build_parser``).  Each handler
returns ``(exit code, fields, lines)``: the command's report fields and its
text lines.  ``main`` alone frames every report with ``command`` and
``exit_code`` and prints it as JSON or as the lines.

Reports are deterministic byte-for-byte for a fixed scenario and flag set:
maps are emitted in sorted order, witnesses are canonically tie-broken and
no volatile data (time, paths, ids) is included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .analysis import (
    Verdict,
    epsilon_composable,
    nonint,
    richnonint,
    verify_stripping,
)
from .battery import structural_battery
from .goldens import GOLDENS
from .ledger import Account
from .scenario import ScenarioError, build_state, bundled, load_scenario
from .search import SearchBudget, global_mev, lmev, rlmev

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_UNKNOWN = 2
EXIT_INCOMPLETE = 3
EXIT_USAGE = 10
EXIT_SCENARIO = 11
EXIT_INTERNAL = 12
EXIT_CLOSED_STDOUT = 141

TABLE2_ROWS = (
    ("row1_amm_amm.scn", "holds", "contract-independent"),
    ("row2_bet_on_amm.scn", "violated", "counterexample"),
    ("row3_bet_on_exchange.scn", "holds", "stable"),
    ("row4_best_swap.scn", "holds", "zero-mev"),
    ("row5_swap_router.scn", "holds", "zero-mev"),
    ("row6_best_swap_router.scn", "holds", "zero-mev"),
    ("row7_lp_arbitrage.scn", "holds", "zero-mev"),
    ("row8_flash_loan_arbitrage.scn", "holds", "zero-mev"),
)

CONDITION_NUMBER = {"zero-mev": 1, "contract-independent": 2, "stable": 3}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _rat(v: Optional[Fraction]):
    return None if v is None else str(v)


def _witness_json(witness):
    return [tx.label() for tx in witness or ()]


def _budget(args, scn=None) -> SearchBudget:
    """The search budget of the flags; under ``--exhaustive`` a scenario's
    ``ceiling`` bounds the enumerated amounts."""
    ceiling = scn.ceiling if scn is not None and args.exhaustive else None
    try:
        return SearchBudget(max_depth=args.depth, grid=args.grid,
                            exhaustive=args.exhaustive, ceiling=ceiling)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _budget_json(budget: SearchBudget, seed: Optional[int] = None) -> dict:
    out = {"depth": budget.max_depth, "grid": budget.grid,
           "exhaustive": budget.exhaustive}
    if seed is not None:
        out["seed"] = seed
    return out


def _verdict_json(v: Verdict) -> dict:
    return {
        "verdict": v.outcome,
        "justification": v.justification,
        "condition": CONDITION_NUMBER.get(v.justification),
        "unrestricted": _rat(v.lhs_value),
        "restricted": _rat(v.rhs_value),
        "witness": _witness_json(v.witness),
        "complete": v.complete,
        "note": v.note,
    }


def _verdict_exit(v: Verdict) -> int:
    if v.holds is True:
        return EXIT_HOLDS
    if v.holds is False:
        return EXIT_VIOLATED
    return EXIT_UNKNOWN


def _emit(report: dict, fmt: str, lines) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _verdict_lines(kind: str, v: Verdict) -> list:
    lines = [f"{kind}: {v.outcome} ({v.justification})"]
    if v.lhs_value is not None:
        lines.append(f"  unrestricted value: {v.lhs_value}")
    if v.rhs_value is not None:
        lines.append(f"  restricted value:   {v.rhs_value}")
    if v.witness:
        lines.append("  witness:")
        lines.extend(f"    {tx.label()}" for tx in v.witness)
    if v.note:
        lines.append(f"  note: {v.note}")
    lines.append(f"  complete: {v.complete}")
    return lines


def _load(args) -> tuple:
    """(scenario, state, fragment, prices, budget) of a scenario command."""
    scn = load_scenario(args.scenario)
    state, delta = build_state(scn)
    return scn, state, delta, scn.prices(), _budget(args, scn)


def _contract_set(state, names, default):
    if names is None:
        return default
    if not all(names):
        raise UsageError("empty contract name")
    accs = frozenset(Account.contract(n) for n in names)
    missing = sorted(a.name for a in accs - state.deployed)
    if missing:
        raise UsageError(f"not deployed in this scenario: {', '.join(missing)}")
    return accs


def _scope(args, state, delta) -> tuple:
    """(observed, restriction) of ``--observed`` / ``--restrict``: the
    fragment after the split and the whole universe (None) by default."""
    return (_contract_set(state, args.observed, delta),
            _contract_set(state, args.restrict, None))


def _names(accs) -> list:
    return sorted(a.name for a in accs)


def _run_value(args, search=None) -> tuple:
    """``search(state, observed, restriction, prices, budget)`` for the local
    values; the whole-state ``mev`` has neither an observed set nor a
    restriction."""
    scn, state, delta, prices, budget = _load(args)
    if search is None:
        observed = restriction = None
        res = global_mev(state, prices, budget)
    else:
        observed, restriction = _scope(args, state, delta)
        res = search(state, observed, restriction, prices, budget)
    fields = {
        "scenario": scn.name,
        "budget": _budget_json(budget),
        "observed": None if observed is None else _names(observed),
        "restriction": "universe" if restriction is None else _names(restriction),
        "value": _rat(res.value),
        "witness": _witness_json(res.witness),
        "complete": res.complete,
        "warning": res.warning,
    }
    lines = [f"{args.command} = {res.value}"]
    if observed is not None:
        lines.append(f"  observed: {', '.join(_names(observed)) or '-'}")
        lines.append("  restriction: " + (", ".join(_names(restriction))
                                          if restriction is not None else "universe"))
    if res.witness:
        lines.append("  witness:")
        lines.extend(f"    {tx.label()}" for tx in res.witness)
    lines.append(f"  complete: {res.complete}")
    if res.warning:
        lines.append(f"  warning: {res.warning}")
    return EXIT_INCOMPLETE if res.warning else EXIT_HOLDS, fields, lines


def _run_verdict(args, decide, extra=()) -> tuple:
    """``decide(state, delta, prices, budget) -> Verdict``; ``extra`` adds
    report fields."""
    scn, state, delta, prices, budget = _load(args)
    if not delta:
        raise UsageError("scenario has an empty fragment after the split")
    v = decide(state, delta, prices, budget)
    fields = {
        "scenario": scn.name,
        "budget": _budget_json(budget),
        "fragment": _names(delta),
        **dict(extra),
        "result": _verdict_json(v),
    }
    return _verdict_exit(v), fields, _verdict_lines(args.command, v)


def _run_epsilon(args) -> tuple:
    def decide(state, delta, prices, budget):
        return epsilon_composable(state, delta, args.eps, prices, budget)

    return _run_verdict(args, decide, {"epsilon": str(args.eps)})


def _run_strip_check(args) -> tuple:
    scn, state, delta, prices, budget = _load(args)
    observed, restriction = _scope(args, state, delta)
    rep = verify_stripping(state, observed, restriction, prices, budget)
    exit_code = {"verified": EXIT_HOLDS, "mismatch": EXIT_VIOLATED,
                 "hypothesis-not-met": EXIT_UNKNOWN}[rep.status]
    fields = {
        "scenario": scn.name,
        "budget": _budget_json(budget),
        "observed": _names(observed),
        "status": rep.status,
        "reason": rep.reason,
        "full_value": _rat(rep.full_value),
        "stripped_value": _rat(rep.stripped_value),
    }
    lines = [
        f"strip-check: {rep.status}",
        f"  reason: {rep.reason}",
        f"  full value:     {rep.full_value}",
        f"  stripped value: {rep.stripped_value}",
    ]
    return exit_code, fields, lines


def _run_table2(args) -> tuple:
    budget = _budget(args)
    rows = []
    lines = ["composition matrix (wealth-independent non-interference)"]
    all_match = True
    for fname, expected, expected_just in TABLE2_ROWS:
        v = richnonint(*bundled(f"compositions/{fname}"), budget)
        match = v.outcome == expected and (
            expected != "holds" or v.justification == expected_just)
        all_match = all_match and match
        mark = "ok" if match else "MISMATCH"
        cond = CONDITION_NUMBER.get(v.justification)
        verdict = "yes" if v.holds else ("NO" if v.holds is False else "unknown")
        lines.append(f"  {fname:32} {verdict:8} "
                     f"{'(' + str(cond) + ')' if cond else '':5} [{mark}]")
        rows.append({
            "scenario": fname,
            "verdict": v.outcome,
            "justification": v.justification,
            "condition": cond,
            "expected": expected,
            "match": match,
        })
    lines.append("all rows match" if all_match else "MISMATCH against expectations")
    return (EXIT_HOLDS if all_match else EXIT_VIOLATED,
            {"budget": _budget_json(budget), "rows": rows}, lines)


def _run_battery(args) -> tuple:
    budget = _budget(args)
    rep = structural_battery(budget, seed=args.seed)
    lines = ["structural-property battery"]
    for r in rep.rows:
        lines.append(f"  [{'PASS' if r.passed else 'FAIL'}] {r.row} ({r.kind}): {r.claim}")
        lines.append(f"         {r.detail}")
    fields = {
        "budget": _budget_json(budget, args.seed),
        "rows": [{"row": r.row, "kind": r.kind, "claim": r.claim,
                  "passed": r.passed, "detail": r.detail} for r in rep.rows],
    }
    return EXIT_HOLDS if rep.passed else EXIT_VIOLATED, fields, lines


def _run_examples(args) -> tuple:
    checks = []
    lines = []
    for fn in GOLDENS:
        for c in fn():
            checks.append({"name": c.name, "ok": c.ok, "detail": c.detail})
            lines.append(f"[{'PASS' if c.ok else 'FAIL'}] {c.name}"
                         + ("" if c.ok else f" ({c.detail})"))
    lines.append(f"{sum(c['ok'] for c in checks)}/{len(checks)} golden checks passed")
    exit_code = EXIT_HOLDS if all(c["ok"] for c in checks) else EXIT_VIOLATED
    return exit_code, {"checks": checks}, lines


def _eps(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None
    if eps < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return eps


def build_parser(only: Optional[str] = None) -> _Parser:
    """The command table.  With ``only`` a command name the parser holds
    that command's subparser alone: ``main`` runs one command, and building
    all ten (about 60 arguments, each making a help formatter) cost more than
    a typical query.  Any other ``only`` gives every subparser, so the
    top-level help and usage errors list every command."""
    parser = _Parser(prog="mevscope",
                     description="extractable-value and composability analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_, run, scenario=True, budget=True, scope=False, **flags):
        if only not in (None, name):
            return
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        if scenario:
            p.add_argument("scenario", help="path to a .scn scenario file")
        if budget:
            p.add_argument("--depth", type=int, default=SearchBudget.max_depth,
                           help="trace length bound")
            p.add_argument("--grid", type=int, default=SearchBudget.grid,
                           help="amount grid resolution")
            p.add_argument("--exhaustive", action="store_true",
                           help="signature-driven exhaustive enumeration (micro states)")
        if scope:
            p.add_argument("--observed", nargs="+", metavar="NAME",
                           help="observed contracts (default: the post-split fragment)")
            p.add_argument("--restrict", nargs="+", metavar="NAME",
                           help="restrict callable contracts (default: universe)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag, kwargs in flags.items():
            p.add_argument("--" + flag, **kwargs)

    # Each handler names the library function it runs inside its body, so
    # the name is looked up in this module when the command runs: a wrapper
    # patched over ``mevscope.cli.nonint`` (say) then sees every call.
    command("lmev", "local extractable loss of the observed contracts",
            lambda args: _run_value(args, lmev), scope=True)
    command("rlmev", "wealthy-adversary local extractable loss",
            lambda args: _run_value(args, rlmev), scope=True)
    command("mev", "whole-state extractable value", _run_value)
    command("nonint", "non-interference at the given adversary wealth",
            lambda args: _run_verdict(args, nonint))
    command("richnonint", "wealth-independent non-interference",
            lambda args: _run_verdict(args, richnonint))
    command("epsilon", "whole-state growth criterion", _run_epsilon, eps=dict(
        type=_eps, required=True, help="tolerated growth factor (rational)"))
    command("strip-check", "dependency-stripping preservation check", _run_strip_check,
            scope=True)
    command("table2", "run the bundled composition matrix", _run_table2, scenario=False)
    command("battery", "run the structural-property battery", _run_battery,
            scenario=False, seed=dict(type=int, default=0,
                                      help="seed for randomized parts"))
    command("examples", "run every golden reproduction", _run_examples, scenario=False,
            budget=False)
    return parser if sub.choices else build_parser()


def _drop_stdout() -> None:
    """Point the stdout file descriptor at the null device, so that the
    interpreter's exit flush of what is still buffered for a reader that
    has gone does not raise again (the "Note on SIGPIPE" of Python's
    ``signal`` docs).  A stdout without a descriptor is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        exit_code, fields, lines = args.run(args)
        _emit({"command": args.command, **fields, "exit_code": exit_code}, args.format, lines)
        # a closed pipe shows here, not in the interpreter's exit flush
        sys.stdout.flush()
        return exit_code
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_CLOSED_STDOUT
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    except Exception as e:
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
