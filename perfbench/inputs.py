"""The benchmark's workloads, as data generated from a seed.

``make_inputs(workload, seed)`` returns the list of queries one pass of the
workload runs.  It imports nothing from mevscope: the program under test
only ever sees the generated inputs.  Each query is a dict with a ``key``
(the name its expected answer is stored under) and an ``op``:

- ``lmev``, ``rlmev``, ``nonint``, ``richnonint``, ``strip-check``: a
  library call on a scenario, with the fragment after the split as the
  observed set and the whole universe callable.  The scenario is either a
  bundled file (``scenario``) or an inline document (``scn`` + ``name``).
  ``depth``, ``grid`` and ``exhaustive`` give the search budget.
- ``cli``: ``mevscope.cli.main(argv)``; ``argv`` names bundled scenarios by
  their path under ``src/mevscope/scenarios``.

Two optional keys shape the timing: ``isolate`` (collect the heap before the
query, outside the timed region) and ``repeat`` (see ``worker.run_pass``).
"""

from __future__ import annotations

import random

import micro

WORKLOADS = ("deep-oracle", "ladder-pools", "micro-exhaustive", "cli-sweep")

BUNDLED = (
    "airdrop_beside_amm.scn", "airdrop_feeds_exchange.scn", "bet_on_amm_oracle.scn",
    "cell_gate.scn", "cell_gate_proxy.scn", "cell_gated_vault.scn",
    "exchange_round_trip.scn", "faucet_forwarder.scn", "gated_faucet_pair.scn",
    "mutex_vaults.scn", "once_cell_droppers.scn", "relay_chain.scn", "two_amms.scn",
    "compositions/row1_amm_amm.scn", "compositions/row2_bet_on_amm.scn",
    "compositions/row3_bet_on_exchange.scn", "compositions/row4_best_swap.scn",
    "compositions/row5_swap_router.scn", "compositions/row6_best_swap_router.scn",
    "compositions/row7_lp_arbitrage.scn", "compositions/row8_flash_loan_arbitrage.scn",
)

# every scenario command the README advertises, with its extra flags
CLI_SCENARIO_COMMANDS = (
    ("lmev",), ("rlmev",), ("mev",), ("nonint",), ("richnonint",),
    ("epsilon", "--eps", "0"), ("strip-check",),
)
CLI_DEPTH = 3
# most cli-sweep queries take milliseconds, so one run of each per pass is
# too few samples for a steady tail; each runs up to this many times
CLI_REPEAT = 5


def _lib(op, scenario, depth=4, grid=8):
    # isolated: the garbage a long search leaves made the next query's time
    # depend on it (``nonint --grid 16`` took 1.15 s after ``richnonint
    # --depth 5`` and its ``nonint --depth 6``, 0.6 s on a clean heap)
    flags = "".join(f" --{k} {v}" for k, v, d in (("depth", depth, 4), ("grid", grid, 8))
                    if v != d)
    return {"key": f"{op} {scenario}{flags}", "op": op, "scenario": scenario,
            "depth": depth, "grid": grid, "exhaustive": False, "isolate": True}


def _deep_oracle():
    return [_lib("richnonint", "bet_on_amm_oracle.scn", depth=5),
            _lib("nonint", "bet_on_amm_oracle.scn", depth=6),
            _lib("nonint", "bet_on_amm_oracle.scn", grid=16)]


def _ladder_pools():
    return [_lib("rlmev", "two_amms.scn"), _lib("strip-check", "two_amms.scn")]


def _micro_exhaustive(rng):
    queries = []
    for key, family, text, depth in micro.stream(rng.randrange(2**32)):
        for op in ("lmev", "nonint"):
            queries.append({"key": f"{key} {op}", "op": op, "name": key, "scn": text,
                            "family": family, "depth": depth, "grid": 8,
                            "exhaustive": True})
    return queries


def _cli(*argv):
    shown = [a.split("/")[-1] if a.endswith(".scn") else a for a in argv]
    return {"key": " ".join(a for a in shown if a not in ("--format", "json")),
            "op": "cli", "argv": list(argv), "isolate": True, "repeat": CLI_REPEAT}


def _cli_sweep(seed):
    queries = [_cli(cmd[0], f"src/mevscope/scenarios/{scn}", *cmd[1:],
                    "--depth", str(CLI_DEPTH), "--format", "json")
               for cmd in CLI_SCENARIO_COMMANDS for scn in BUNDLED]
    queries += [_cli("examples", "--format", "json"), _cli("table2", "--format", "json")]
    battery = _cli("battery", "--seed", str(seed), "--format", "json")
    battery["key"] = "battery"          # one expected answer for every seed
    queries.append(battery)
    return queries


def make_inputs(workload: str, seed: int) -> list:
    """The queries of one pass.  Only ``micro-exhaustive`` is shuffled.  The
    other workloads keep a fixed order, because their queries' times and the
    process's peak memory depend on which queries ran before: ``nonint
    --depth 6`` measured up to a fifth slower after ``richnonint --depth 5``,
    and the peak memory of ``cli-sweep`` varied by 15% across orders."""
    if workload == "deep-oracle":
        return _deep_oracle()
    if workload == "ladder-pools":
        return _ladder_pools()
    if workload == "cli-sweep":
        return _cli_sweep(seed)
    rng = random.Random(seed)
    queries = _micro_exhaustive(rng)
    rng.shuffle(queries)
    return queries
