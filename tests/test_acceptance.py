"""Acceptance suite: golden reproductions and randomized property gates.

One test per criterion; each prints a pass line so a verbose run reads as a
checklist.  Budgets default to depth 4 / grid 8 unless a criterion states
otherwise; values are exact rationals compared with equality.
"""

import random
from dataclasses import replace

from mevscope import (
    Account,
    BlockchainState,
    SearchBudget,
    Wallet,
    adversary_moves,
    execute,
    lmev,
    rlmev,
    structural_battery,
    total_supply,
    verify_stripping,
    wealth,
)
from mevscope import analysis
from mevscope.cli import main as cli_main
from mevscope.goldens import (
    golden_airdrop_feeds_exchange,
    golden_bet_oracle_pump,
    golden_cell_gated_vault,
    golden_exchange_round_trip,
    golden_mutex_vaults,
    golden_once_cell_droppers,
    golden_relay_chain,
    golden_two_pool_chain,
)
from mevscope.scenario import build_state, bundled, load_bundled
from mevscope.search import ESCALATION_CAP, rich_state
from mevscope.vm import TICK_METHOD

import helpers
from helpers import LIGHT_FAMILIES, M, random_micro, random_observed, uniform_prices
from model_checks import sender_agnostic_witness

BUDGET = SearchBudget(max_depth=4, grid=8)


def _assert_checks(checks):
    failed = [c for c in checks if not c.ok]
    assert not failed, "; ".join(f"{c.name}: {c.detail}" for c in failed)


def test_two_pool_chain_values_and_witness():
    _assert_checks(golden_two_pool_chain())
    print("[PASS] two-pool chain: unrestricted 1 with the two-swap witness, restricted 0")


def test_bet_oracle_pump_interference():
    _assert_checks(golden_bet_oracle_pump())
    print("[PASS] bet over pool oracle: violated 10 vs 0, attacker banks 320:ETH")


def test_relay_chain_observed_set_values():
    _assert_checks(golden_relay_chain())
    print("[PASS] relay chain: observed {last} -> 99, observed {middle,last} -> 95")


def test_airdrop_feeds_exchange_token_flow():
    _assert_checks(golden_airdrop_feeds_exchange())
    print("[PASS] airdrop feeding an exchange: violated, the exchange is fully drained")


def test_mutex_vaults_flat_global_value_but_interfering():
    _assert_checks(golden_mutex_vaults())
    print("[PASS] mutex vaults: whole-state value 1 -> 1, 0-growth holds, "
          "non-interference violated 1 vs 0")


def test_exchange_round_trip_zero_mev_certificate():
    _assert_checks(golden_exchange_round_trip())
    print("[PASS] exchange round trip: whole-state value 0 -> 1, new exchange "
          "has zero extractable value, non-interference holds")


def test_cell_gated_vault_wealth_dependence():
    _assert_checks(golden_cell_gated_vault())
    print("[PASS] paid cell gate: holds at the empty wallet, wealthy-adversary "
          "check violated 100 vs 0")


def test_once_cell_droppers_union_failure():
    _assert_checks(golden_once_cell_droppers())
    print("[PASS] once-cell droppers: singles hold at 3, pair violated 4 vs 3")


def test_composition_matrix_reproduces():
    assert cli_main(["table2"]) == 0
    print("[PASS] composition matrix: all 8 rows with the expected condition numbers")


def test_a_witness_that_needs_ticks():
    """The adversary owns a 1 ETH bet beside a 2/2 ETH-T pool, at height 0
    with the deadline at 1: only ``close`` pays the bet out, once the
    height passes the deadline, so the witness waits two blocks first
    (tick, tick, close).  A tick changes no wealth and no state but the
    height.  In generator and exhaustive mode, at depths 3 and 4, ``lmev``
    returns value 1 with that witness (``test_differential.py`` checks it
    against the oracles)."""
    state = helpers.micro_bet(2, 1, deployer=M)
    prices = uniform_prices(("ETH", "T"))
    bet = {Account.contract("Bet")}
    for depth in (3, 4):
        for exhaustive in (False, True):
            budget = SearchBudget(max_depth=depth, exhaustive=exhaustive, ceiling=3)
            engine = lmev(state, bet, None, prices, budget)
            assert engine.value == 1, (depth, exhaustive)
            assert [tx.method for tx in engine.witness] == [TICK_METHOD, TICK_METHOD, "close"]
    print("[PASS] a witness that needs ticks: (tick, tick, close) in both modes "
          "at depths 3 and 4")


def _reference_rlmev(state, observed, restriction, prices, budget):
    """``rlmev`` as the plain loop of full ``lmev`` searches: the first rung
    whose value does not rise is the plateau."""
    obs = frozenset(observed) & state.deployed
    upper = wealth(tuple(sorted(obs)), state, prices)
    ladder, prev, scale = [], None, 1
    for _ in range(ESCALATION_CAP + 1):
        rich = rich_state(state, prices.tokens(), budget, scale)
        res = replace(lmev(rich, obs, restriction, prices, budget), adversary_wallet=rich.users)
        ladder.append((scale, res.value))
        if res.value == upper:
            return replace(res, ladder=tuple(ladder))
        if prev is not None and res.value == prev.value:
            return replace(prev, ladder=tuple(ladder))
        prev, scale = res, scale * 2
    return replace(prev, complete=False, warning="escalation cap reached without a plateau",
                   ladder=tuple(ladder))


def test_rlmev_matches_a_ladder_of_full_searches(monkeypatch):
    """``rlmev`` gives the same value, witness, completeness, warning, ladder
    and adversary wallet as a ladder of full searches: every bundled
    scenario at depths 3 and 4, every state ``verify_stripping`` searches at
    depth 3 (each scenario whole and stripped, the universe and the fragment
    callable), and 60 micro states (seed 20), half of them searched
    exhaustively."""
    rungs = {1: 0, 2: 0}

    def checked(*args):
        got = rlmev(*args)
        assert got == _reference_rlmev(*args), args
        rungs[min(len(got.ladder), 2)] += 1
        return got

    monkeypatch.setattr(analysis, "rlmev", checked)
    for name in helpers.BUNDLED_SCENARIOS:
        state, delta, prices = bundled(name)
        for depth in (3, 4):
            checked(state, delta, None, prices, SearchBudget(max_depth=depth))
        for restriction in (None, delta):
            verify_stripping(state, delta, restriction, prices, SearchBudget(max_depth=3))
    rng = random.Random(20)
    for _ in range(60):
        state, prices, ceiling = random_micro(rng)
        checked(state, random_observed(rng, state), None, prices,
                SearchBudget(max_depth=rng.choice((2, 3)), grid=4,
                             exhaustive=rng.random() < 0.5, ceiling=ceiling))
    assert all(rungs.values())
    print(f"[PASS] rlmev ladder: {sum(rungs.values())} rlmev calls match a ladder of full "
          f"searches (by rungs, 1 / 2+: {rungs[1]} / {rungs[2]})")


def test_randomized_search_property_suite():
    rng = random.Random(4321)
    samples = 0
    checked = {"border": 0, "restriction": 0, "garbage": 0, "bounds": 0,
               "bystander": 0, "rich": 0, "ladder": 0, "direction": 0}
    while samples < 1000:
        state, prices, _ = random_micro(rng, LIGHT_FAMILIES)
        budget = SearchBudget(max_depth=rng.choice((1, 2)), grid=4)
        observed = random_observed(rng, state)
        sub = frozenset(rng.sample(sorted(state.order),
                                   rng.randint(1, len(state.order))))

        unrestricted = lmev(state, observed, None, prices, budget).value
        restricted = lmev(state, observed, sub, prices, budget).value

        # empty observed / empty restriction are exactly zero
        assert lmev(state, set(), None, prices, budget).value == 0
        assert lmev(state, observed, frozenset(), prices, budget).value == 0
        checked["border"] += 1

        # a wider restriction never extracts less
        assert restricted <= unrestricted
        checked["restriction"] += 1
        checked["direction"] += 1

        # undeployed accounts in either set change nothing
        ghost = Account.contract("__ghost__")
        assert lmev(state, observed | {ghost}, None, prices, budget).value == unrestricted
        assert lmev(state, observed, sub | {ghost}, prices, budget).value == restricted
        checked["garbage"] += 1

        # clamped below at zero, bounded by the observed wealth
        assert 0 <= unrestricted <= wealth(tuple(sorted(observed)), state, prices)
        checked["bounds"] += 1

        # wallets of users outside the adversary are irrelevant
        users = dict(state.users)
        users[Account.user("bystander")] = Wallet(
            {t: rng.randint(0, 5) for t in prices.tokens()})
        assert lmev(state.with_users(users), observed, None, prices,
                    budget).value == unrestricted
        checked["bystander"] += 1

        # pointwise-richer adversaries never extract less
        users = dict(state.users)
        users[M] = state.user_wallet(M) + Wallet(
            {t: rng.randint(0, 3) for t in prices.tokens()})
        assert lmev(state.with_users(users), observed, None, prices,
                    budget).value >= unrestricted
        checked["rich"] += 1

        # the wealth-escalation ladder is monotone non-decreasing
        if samples % 5 == 0:
            ladder = rlmev(state, observed, None, prices, budget).ladder
            values = [v for _, v in ladder]
            assert all(a <= b for a, b in zip(values, values[1:]))
            checked["ladder"] += 1

        samples += 1
    assert all(checked.values())
    print(f"[PASS] search properties: {samples} randomized samples, "
          "zero violations across all eight properties")


def test_stripping_and_structural_laws():
    # stripping preserves the wealthy-adversary value whenever the boundary
    # hypothesis is met, on every bundled composition scenario
    verified = 0
    for name in ("two_amms.scn", "bet_on_amm_oracle.scn", "cell_gate.scn",
                 "cell_gate_proxy.scn", "once_cell_droppers.scn",
                 "compositions/row1_amm_amm.scn", "compositions/row3_bet_on_exchange.scn",
                 "compositions/row4_best_swap.scn", "compositions/row5_swap_router.scn",
                 "compositions/row6_best_swap_router.scn"):
        state, delta, prices = bundled(name)
        rep = verify_stripping(state, delta or state.deployed, None, prices, BUDGET)
        assert rep.status == "verified", (name, rep)
        verified += 1

    # the forwarder scenario fails the hypothesis, and stripping does change
    # the value there (5 against 0)
    state, _ = build_state(load_bundled("faucet_forwarder.scn"))
    rep = verify_stripping(state, {Account.contract("C0")}, {Account.contract("C1")},
                           uniform_prices(("T",)), BUDGET)
    assert rep.status == "hypothesis-not-met"
    assert (rep.full_value, rep.stripped_value) == (5, 0)

    # closure laws hold and the counterexample rows falsify the naive rules
    report = structural_battery(BUDGET)
    assert report.passed, [r for r in report.rows if not r.passed]
    assert {r.kind for r in report.rows} == {"law", "counterexample"}
    print(f"[PASS] stripping and structural laws: verified on {verified} scenarios, "
          "hypothesis failure reported with the 5-vs-0 gap, "
          f"battery {len(report.rows)} rows green")


def _invariant_state_pool(rng):
    pool = []
    for name in ("two_amms.scn", "bet_on_amm_oracle.scn",
                 "compositions/row4_best_swap.scn",
                 "compositions/row5_swap_router.scn",
                 "compositions/row7_lp_arbitrage.scn",
                 "compositions/row8_flash_loan_arbitrage.scn"):
        state, _, prices = bundled(name)
        pool.append((state, prices))
    for _ in range(12):
        state, prices, _ = random_micro(rng)
        pool.append((state, prices))
    return pool


def test_vm_invariants_on_randomized_transactions():
    rng = random.Random(2024)
    pool = _invariant_state_pool(rng)
    wrappers = {Account.contract(n) for n in ("Wrap", "Best", "Router", "Arb")}
    executed = 0
    while executed < 10_000:
        idx = rng.randrange(len(pool))
        state, prices = pool[idx]
        moves = adversary_moves(state, None, SearchBudget(max_depth=2, grid=4))
        if not moves:
            continue
        tx = moves[rng.randrange(len(moves))]
        first = execute(state, tx)
        again = execute(state, tx)
        assert first == again                       # determinism
        nxt = first.state
        rebuilt = BlockchainState(nxt.users, nxt.contracts, nxt.order, nxt.codes,
                                  nxt.height, nxt.adversary)
        assert nxt == rebuilt                       # the executor's states are canonical
        assert nxt.core_key() == rebuilt.core_key()
        assert (nxt.users, nxt.contracts) == (rebuilt.users, rebuilt.contracts)
        supply = total_supply(state)
        assert total_supply(first.state) == supply  # per-token conservation
        if not first.valid:
            assert first.state == state.with_height(state.height + 1)  # rollback
        else:
            for acc in state.order:
                code = state.codes[acc]
                wallet = first.state.contract_state(acc).wallet
                if acc in wrappers:
                    assert not wallet               # wrappers keep no balance
                if code.move_generator is not None and "swap" in code.methods \
                        and acc.name.startswith("AMM"):
                    w0 = state.contract_state(acc).wallet
                    t0, t1 = state.codes[acc].intok_decl and sorted(code.intok_decl) \
                        or (None, None)
                    if t0 and t1:
                        before = w0.get(t0) * w0.get(t1)
                        after = wallet.get(t0) * wallet.get(t1)
                        assert after >= before      # constant product never drops
            # walk the pool forward now and then to vary the states
            if rng.random() < 0.25:
                pool[idx] = (first.state, prices)
        executed += 1

    # sender-agnostic spot checks across the flagged catalog
    state, _ = build_state(load_bundled("compositions/row4_best_swap.scn"))
    for callee, method, args, attached in (
            (Account.contract("AMM1"), "swap", (0,), Wallet({"T0": 1})),
            (Account.contract("AMM1"), "getRate", ("T0",), Wallet()),
            (Account.contract("Best"), "swap", (0,), Wallet({"T0": 1})),
    ):
        assert sender_agnostic_witness(state, callee, method, args, attached) is None
    bet_state, _ = build_state(load_bundled("bet_on_amm_oracle.scn"))
    assert sender_agnostic_witness(bet_state, Account.contract("Bet"), "bet", (),
                                   Wallet({"ETH": 10})) is None
    gated, _ = build_state(load_bundled("gated_faucet_pair.scn"))
    assert sender_agnostic_witness(gated, Account.contract("C0"), "f") is not None
    print(f"[PASS] executor invariants: {executed} randomized transactions, "
          "deterministic, conserving, rolling back; sender-agnostic flags verified")
