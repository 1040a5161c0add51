"""Golden reproduction checks over the bundled scenarios.

Each check loads its bundled scenario once (``scenario.bundled``), runs the
relevant analyses at the default ``SearchBudget`` and compares exact values,
witnesses and verdicts against frozen expectations.  The CLI ``examples``
command runs every function in ``GOLDENS``; the acceptance suite runs each
one as a test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .analysis import epsilon_composable, nonint, richnonint, without_contracts
from .ledger import Account, Wallet
from .scenario import bundled
from .search import SearchBudget, global_mev, lmev, rlmev
from .vm import Transaction, execute_trace

BUDGET = SearchBudget()


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


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


def golden_two_pool_chain() -> list:
    """A poor adversary must route through the first pool to damage the
    second; confined to the second pool alone it extracts nothing."""
    state, _, prices = bundled("two_amms.scn")
    pool2 = Account.contract("AMM2")
    M = Account.user("M")
    unrestricted = lmev(state, {pool2}, None, prices, BUDGET)
    restricted = lmev(state, {pool2}, {pool2}, prices, BUDGET)
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


def golden_airdrop_beside_amm() -> list:
    """Intended extractable value does not interfere, but breaks the
    whole-state growth criterion."""
    state, delta, prices = bundled("airdrop_beside_amm.scn")
    drop = Account.contract("Drop")
    u = lmev(state, {drop}, None, prices, BUDGET)
    r = lmev(state, {drop}, {drop}, prices, BUDGET)
    out = [
        _check("airdrop_beside_amm: unrestricted value", u.value, Fraction(5)),
        _check("airdrop_beside_amm: restricted value", r.value, Fraction(5)),
    ]
    out += _verdict_check("airdrop_beside_amm: nonint",
                          nonint(state, delta, prices, BUDGET), "holds",
                          justification="contract-independent")
    out += _verdict_check("airdrop_beside_amm: epsilon(0)",
                          epsilon_composable(state, delta, Fraction(0), prices, BUDGET),
                          "violated", lhs=Fraction(5), rhs=Fraction(0))
    return out


def golden_bet_oracle_pump() -> list:
    """Pumping the pool rate lets the adversary win the bet; confined to the
    bet contract the pot is unreachable."""
    state, delta, prices = bundled("bet_on_amm_oracle.scn")
    M = Account.user("M")
    verdict = nonint(state, delta, prices, BUDGET)
    out = _verdict_check("bet_oracle_pump: nonint", verdict, "violated",
                         lhs=Fraction(10), rhs=Fraction(0))
    end = execute_trace(state, verdict.witness or ()).state
    out.append(_check("bet_oracle_pump: attacker ends with the pot banked",
                      end.user_wallet(M), Wallet({"ETH": 320})))
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


def golden_airdrop_feeds_exchange() -> list:
    """Token flow alone (no call dependency) already breaks non-interference.

    The attack drains the exchange's whole 10:ETH; its net wealth loss is 9
    because the swap also pays 1:T in.
    """
    state, delta, prices = bundled("airdrop_feeds_exchange.scn")
    verdict = nonint(state, delta, prices, BUDGET)
    out = _verdict_check("airdrop_feeds_exchange: nonint", verdict, "violated",
                         lhs=Fraction(9), rhs=Fraction(0))
    end = execute_trace(state, verdict.witness or ()).state
    out.append(_check("airdrop_feeds_exchange: exchange fully drained of ETH",
                      end.contract_state(Account.contract("Exchange")).wallet.get("ETH"),
                      0))
    return out


def golden_mutex_vaults() -> list:
    """Mutually exclusive extraction: the whole-state value is unchanged by
    the new contract, yet non-interference fails."""
    state, delta, prices = bundled("mutex_vaults.scn")
    baseline = without_contracts(state, delta)
    mev_before = global_mev(baseline, prices, BUDGET)
    mev_after = global_mev(state, prices, BUDGET)
    M = Account.user("M")
    out = [
        _check("mutex_vaults: whole-state value before", mev_before.value, Fraction(1)),
        _check("mutex_vaults: whole-state value after", mev_after.value, Fraction(1)),
        _check("mutex_vaults: baseline witness",
               mev_before.witness,
               (Transaction(M, Account.contract("C1"), "f1"),)),
    ]
    out += _verdict_check("mutex_vaults: epsilon(0)",
                          epsilon_composable(state, delta, Fraction(0), prices, BUDGET),
                          "holds", lhs=Fraction(1), rhs=Fraction(1))
    out += _verdict_check("mutex_vaults: nonint",
                          nonint(state, delta, prices, BUDGET), "violated",
                          lhs=Fraction(1), rhs=Fraction(0))
    return out


def golden_relay_chain() -> list:
    """Widening the observed set can lower the loss figure: draining the last
    relay feeds the middle one."""
    state, _, prices = bundled("relay_chain.scn")
    c1, c2 = Account.contract("C1"), Account.contract("C2")
    last = lmev(state, {c2}, None, prices, BUDGET)
    both = lmev(state, {c1, c2}, None, prices, BUDGET)
    return [
        _check("relay_chain: last relay alone", last.value, Fraction(99)),
        _check("relay_chain: middle and last", both.value, Fraction(95)),
    ]


def golden_exchange_round_trip() -> list:
    """Zero extractable value from the new exchange certifies
    non-interference even though the whole-state value grows."""
    state, delta, prices = bundled("exchange_round_trip.scn")
    baseline = without_contracts(state, delta)
    out = [
        _check("exchange_round_trip: whole-state value before",
               global_mev(baseline, prices, BUDGET).value, Fraction(0)),
        _check("exchange_round_trip: whole-state value after",
               global_mev(state, prices, BUDGET).value, Fraction(1)),
    ]
    out += _verdict_check("exchange_round_trip: nonint",
                          nonint(state, delta, prices, SearchBudget(exhaustive=True)),
                          "holds", justification="zero-mev")
    out += _verdict_check("exchange_round_trip: epsilon(0)",
                          epsilon_composable(state, delta, Fraction(0), prices, BUDGET),
                          "violated", lhs=Fraction(1), rhs=Fraction(0))
    return out


def golden_cell_gated_vault() -> list:
    """A penniless adversary cannot pay to open the gate, so interference
    only shows against wealthy adversaries."""
    state, delta, prices = bundled("cell_gated_vault.scn")
    out = _verdict_check("cell_gated_vault: nonint",
                         nonint(state, delta, prices, BUDGET), "holds")
    out += _verdict_check("cell_gated_vault: richnonint",
                          richnonint(state, delta, prices, BUDGET), "violated",
                          lhs=Fraction(100), rhs=Fraction(0))
    return out


def golden_once_cell_droppers() -> list:
    """Each dropper alone is non-interfering; deployed together the shared
    cell lets the two branch payouts combine."""
    state, _, prices = bundled("once_cell_droppers.scn")
    d1, d2 = Account.contract("Drop1"), Account.contract("Drop2")
    out = []
    for keep, drop, tag in ((d1, d2, "first"), (d2, d1, "second")):
        alone = without_contracts(state, {drop})
        out += _verdict_check(f"once_cell_droppers: {tag} alone",
                              richnonint(alone, {keep}, prices, BUDGET), "holds",
                              justification="direct-search")
        out.append(_check(f"once_cell_droppers: {tag} alone value",
                          rlmev(alone, {keep}, None, prices, BUDGET).value,
                          Fraction(3)))
    pair_u = rlmev(state, {d1, d2}, None, prices, BUDGET)
    pair_r = rlmev(state, {d1, d2}, {d1, d2}, prices, BUDGET)
    out.append(_check("once_cell_droppers: pair unrestricted", pair_u.value, Fraction(4)))
    out.append(_check("once_cell_droppers: pair restricted", pair_r.value, Fraction(3)))
    out += _verdict_check("once_cell_droppers: pair",
                          richnonint(state, {d1, d2}, prices, BUDGET), "violated",
                          lhs=Fraction(4), rhs=Fraction(3))
    return out


GOLDENS: tuple = (
    golden_two_pool_chain,
    golden_airdrop_beside_amm,
    golden_bet_oracle_pump,
    golden_airdrop_feeds_exchange,
    golden_mutex_vaults,
    golden_relay_chain,
    golden_exchange_round_trip,
    golden_cell_gated_vault,
    golden_once_cell_droppers,
)
