"""Golden reproduction checks over the bundled scenarios.

Each check loads a bundled scenario, runs the relevant analyses and compares
exact values, witnesses and verdicts against frozen expectations.  The CLI
``examples`` command and the acceptance suite both run this registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from .analysis import epsilon_composable, nonint, richnonint, without_contracts
from .ledger import Account, Wallet
from .scenario import Scenario, build_state, load_scenario
from .search import SearchBudget, global_mev, lmev, rlmev
from .vm import Transaction, execute_trace

DEFAULT_BUDGET = SearchBudget(max_depth=4, grid=8)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def scenario_path(name: str):
    return resources.files("mevscope").joinpath("scenarios", name)


def load_bundled(name: str) -> Scenario:
    with resources.as_file(scenario_path(name)) as p:
        return load_scenario(p)


def _check(name: str, got, want) -> Check:
    return Check(name, got == want, f"got {got}, want {want}")


def _verdict_check(name: str, verdict, outcome: str,
                   lhs=None, rhs=None, justification: Optional[str] = None) -> list:
    out = [_check(f"{name}: verdict", verdict.outcome, outcome)]
    if lhs is not None:
        out.append(_check(f"{name}: unrestricted value", verdict.lhs_value, lhs))
    if rhs is not None:
        out.append(_check(f"{name}: restricted value", verdict.rhs_value, rhs))
    if justification is not None:
        out.append(_check(f"{name}: justification", verdict.justification, justification))
    return out


def golden_two_pool_chain(budget=DEFAULT_BUDGET) -> list:
    """A poor adversary must route through the first pool to damage the
    second; confined to the second pool alone it extracts nothing."""
    state, _ = build_state(load_bundled("two_amms.scn"))
    prices = load_bundled("two_amms.scn").prices()
    pool2 = Account.contract("AMM2")
    M = Account.user("M")
    unrestricted = lmev(state, {pool2}, None, prices, budget)
    restricted = lmev(state, {pool2}, {pool2}, prices, budget)
    expected_witness = (
        Transaction(M, Account.contract("AMM1"), "swap", (0,), Wallet({"T0": 3})),
        Transaction(M, pool2, "swap", (0,), Wallet({"T1": 2})),
    )
    return [
        _check("two_pool_chain: unrestricted value", unrestricted.value, Fraction(1)),
        _check("two_pool_chain: witness", unrestricted.witness, expected_witness),
        _check("two_pool_chain: restricted value", restricted.value, Fraction(0)),
        _check("two_pool_chain: restricted witness", restricted.witness, ()),
    ]


def golden_airdrop_beside_amm(budget=DEFAULT_BUDGET) -> list:
    """Intended extractable value does not interfere, but breaks the
    whole-state growth criterion."""
    scn = load_bundled("airdrop_beside_amm.scn")
    state, delta = build_state(scn)
    prices = scn.prices()
    drop = Account.contract("Drop")
    u = lmev(state, {drop}, None, prices, budget)
    r = lmev(state, {drop}, {drop}, prices, budget)
    out = [
        _check("airdrop_beside_amm: unrestricted value", u.value, Fraction(5)),
        _check("airdrop_beside_amm: restricted value", r.value, Fraction(5)),
    ]
    out += _verdict_check("airdrop_beside_amm: nonint",
                          nonint(state, delta, prices, budget), "holds",
                          justification="contract-independent")
    out += _verdict_check("airdrop_beside_amm: epsilon(0)",
                          epsilon_composable(state, delta, Fraction(0), prices, budget),
                          "violated", lhs=Fraction(5), rhs=Fraction(0))
    return out


def golden_bet_oracle_pump(budget=DEFAULT_BUDGET) -> list:
    """Pumping the pool rate lets the adversary win the bet; confined to the
    bet contract the pot is unreachable."""
    scn = load_bundled("bet_on_amm_oracle.scn")
    state, delta = build_state(scn)
    prices = scn.prices()
    verdict = nonint(state, delta, prices, budget)
    out = _verdict_check("bet_oracle_pump: nonint", verdict, "violated",
                         lhs=Fraction(10), rhs=Fraction(0))
    end = execute_trace(state, verdict.witness or ()).state
    out.append(_check("bet_oracle_pump: attacker ends with the pot banked",
                      end.user_wallet(Account.user("M")), Wallet({"ETH": 320})))
    M = Account.user("M")
    canonical_trace = (
        Transaction(M, Account.contract("Bet"), "bet", (), Wallet({"ETH": 10})),
        Transaction(M, Account.contract("AMM"), "swap", (0,), Wallet({"ETH": 300})),
        Transaction(M, Account.contract("Bet"), "win"),
        Transaction(M, Account.contract("AMM"), "swap", (0,), Wallet({"T": 200})),
    )
    replay = execute_trace(state, canonical_trace)
    out.append(_check("bet_oracle_pump: canonical four-step replay valid",
                      replay.valid, True))
    out.append(_check("bet_oracle_pump: canonical replay endpoint",
                      replay.state.user_wallet(M), Wallet({"ETH": 320})))
    return out


def golden_airdrop_feeds_exchange(budget=DEFAULT_BUDGET) -> list:
    """Token flow alone (no call dependency) already breaks non-interference.

    The attack drains the exchange's whole 10:ETH; its net wealth loss is 9
    because the swap also pays 1:T in.
    """
    scn = load_bundled("airdrop_feeds_exchange.scn")
    state, delta = build_state(scn)
    verdict = nonint(state, delta, scn.prices(), budget)
    out = _verdict_check("airdrop_feeds_exchange: nonint", verdict, "violated",
                         lhs=Fraction(9), rhs=Fraction(0))
    end = execute_trace(state, verdict.witness or ()).state
    out.append(_check("airdrop_feeds_exchange: exchange fully drained of ETH",
                      end.contract_state(Account.contract("Exchange")).wallet.get("ETH"),
                      0))
    return out


def golden_mutex_vaults(budget=DEFAULT_BUDGET) -> list:
    """Mutually exclusive extraction: the whole-state value is unchanged by
    the new contract, yet non-interference fails."""
    scn = load_bundled("mutex_vaults.scn")
    state, delta = build_state(scn)
    prices = scn.prices()
    baseline = without_contracts(state, delta)
    mev_before = global_mev(baseline, prices, budget)
    mev_after = global_mev(state, prices, budget)
    M = Account.user("M")
    out = [
        _check("mutex_vaults: whole-state value before", mev_before.value, Fraction(1)),
        _check("mutex_vaults: whole-state value after", mev_after.value, Fraction(1)),
        _check("mutex_vaults: baseline witness",
               mev_before.witness,
               (Transaction(M, Account.contract("C1"), "f1"),)),
    ]
    out += _verdict_check("mutex_vaults: epsilon(0)",
                          epsilon_composable(state, delta, Fraction(0), prices, budget),
                          "holds", lhs=Fraction(1), rhs=Fraction(1))
    out += _verdict_check("mutex_vaults: nonint",
                          nonint(state, delta, prices, budget), "violated",
                          lhs=Fraction(1), rhs=Fraction(0))
    return out


def golden_relay_chain(budget=DEFAULT_BUDGET) -> list:
    """Widening the observed set can lower the loss figure: draining the last
    relay feeds the middle one."""
    scn = load_bundled("relay_chain.scn")
    state, _ = build_state(scn)
    prices = scn.prices()
    c1, c2 = Account.contract("C1"), Account.contract("C2")
    last = lmev(state, {c2}, None, prices, budget)
    both = lmev(state, {c1, c2}, None, prices, budget)
    return [
        _check("relay_chain: last relay alone", last.value, Fraction(99)),
        _check("relay_chain: middle and last", both.value, Fraction(95)),
    ]


def golden_exchange_round_trip() -> list:
    """Zero extractable value from the new exchange certifies
    non-interference even though the whole-state value grows."""
    scn = load_bundled("exchange_round_trip.scn")
    state, delta = build_state(scn)
    prices = scn.prices()
    budget = DEFAULT_BUDGET
    xbudget = SearchBudget(max_depth=4, grid=8, exhaustive=True)
    baseline = without_contracts(state, delta)
    out = [
        _check("exchange_round_trip: whole-state value before",
               global_mev(baseline, prices, budget).value, Fraction(0)),
        _check("exchange_round_trip: whole-state value after",
               global_mev(state, prices, budget).value, Fraction(1)),
    ]
    out += _verdict_check("exchange_round_trip: nonint",
                          nonint(state, delta, prices, xbudget), "holds",
                          justification="zero-mev")
    out += _verdict_check("exchange_round_trip: epsilon(0)",
                          epsilon_composable(state, delta, Fraction(0), prices, budget),
                          "violated", lhs=Fraction(1), rhs=Fraction(0))
    return out


def golden_cell_gated_vault(budget=DEFAULT_BUDGET) -> list:
    """A penniless adversary cannot pay to open the gate, so interference
    only shows against wealthy adversaries."""
    scn = load_bundled("cell_gated_vault.scn")
    state, delta = build_state(scn)
    prices = scn.prices()
    out = _verdict_check("cell_gated_vault: nonint",
                         nonint(state, delta, prices, budget), "holds")
    out += _verdict_check("cell_gated_vault: richnonint",
                          richnonint(state, delta, prices, budget), "violated",
                          lhs=Fraction(100), rhs=Fraction(0))
    return out


def golden_once_cell_droppers(budget=DEFAULT_BUDGET) -> list:
    """Each dropper alone is non-interfering; deployed together the shared
    cell lets the two branch payouts combine."""
    scn = load_bundled("once_cell_droppers.scn")
    state, _ = build_state(scn)
    prices = scn.prices()
    d1, d2 = Account.contract("Drop1"), Account.contract("Drop2")
    out = []
    for keep, drop, tag in ((d1, d2, "first"), (d2, d1, "second")):
        alone = without_contracts(state, {drop})
        out += _verdict_check(f"once_cell_droppers: {tag} alone",
                              richnonint(alone, {keep}, prices, budget), "holds",
                              justification="direct-search")
        out.append(_check(f"once_cell_droppers: {tag} alone value",
                          rlmev(alone, {keep}, None, prices, budget).value,
                          Fraction(3)))
    pair_u = rlmev(state, {d1, d2}, None, prices, budget)
    pair_r = rlmev(state, {d1, d2}, {d1, d2}, prices, budget)
    out.append(_check("once_cell_droppers: pair unrestricted", pair_u.value, Fraction(4)))
    out.append(_check("once_cell_droppers: pair restricted", pair_r.value, Fraction(3)))
    out += _verdict_check("once_cell_droppers: pair",
                          richnonint(state, {d1, d2}, prices, budget), "violated",
                          lhs=Fraction(4), rhs=Fraction(3))
    return out


GOLDENS: tuple = (
    ("two_pool_chain", golden_two_pool_chain),
    ("airdrop_beside_amm", golden_airdrop_beside_amm),
    ("bet_oracle_pump", golden_bet_oracle_pump),
    ("airdrop_feeds_exchange", golden_airdrop_feeds_exchange),
    ("mutex_vaults", golden_mutex_vaults),
    ("relay_chain", golden_relay_chain),
    ("exchange_round_trip", golden_exchange_round_trip),
    ("cell_gated_vault", golden_cell_gated_vault),
    ("once_cell_droppers", golden_once_cell_droppers),
)
