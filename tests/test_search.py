import io
import random

from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import math

from mevscope import (
    REGISTRY,
    Account,
    SearchBudget,
    Transaction,
    Wallet,
    adversary_moves,
    build_state,
    deploy,
    execute,
    global_mev,
    lmev,
    nonint,
    rlmev,
    stability_probe,
    total_supply,
    universal_moves,
    wealth,
    wealth_units,
)
from mevscope import search
from mevscope.cli import main as cli_main
from mevscope.scenario import bundled, load_bundled, scenario_path
from mevscope.vm import TICK_METHOD, execute_delta

from helpers import (BUNDLED_SCENARIOS, MICRO_FAMILIES, M, A, B, N, bet_state, build, micro_bet,
                     random_micro, prices_of, random_observed, tip_jar_state, two_adversary_pools,
                     two_pool_state, uniform_prices)
from model_checks import gain

BUDGET = SearchBudget(max_depth=4, grid=8)
PRICES3 = uniform_prices(("T0", "T1", "T2"))
AMM1, AMM2 = Account.contract("AMM1"), Account.contract("AMM2")


class TestAdversaryMoves:
    def test_restriction_filters_targets(self):
        # M holds the first wealthy rung, so it can pay AMM2's swaps
        state = search.rich_state(two_pool_state(), PRICES3.tokens(), BUDGET, 1)
        only = adversary_moves(state, {AMM2}, BUDGET)
        assert only and all(tx.callee == AMM2 for tx in only)
        assert only == tuple(tx for tx in adversary_moves(state, None, BUDGET)
                             if tx.callee == AMM2)

    def test_empty_restriction_means_no_moves(self):
        assert adversary_moves(two_pool_state(), frozenset(), BUDGET) == ()

    def test_universe_contains_the_witness_swaps(self):
        state = two_pool_state()
        moves = adversary_moves(state, None, BUDGET)
        assert Transaction(M, AMM1, "swap", (0,), Wallet({"T0": 3})) in moves

    def test_all_moves_have_adversary_origins(self):
        state = bet_state()
        assert all(tx.origin == M for tx in adversary_moves(state, None, BUDGET))


class TestTwoAdversaryAccounts:
    """The adversary is a set of accounts: M holds nothing and N holds the
    tokens, so a search that signed from M alone would find nothing."""

    def test_generator_witness_is_signed_by_the_account_holding_the_tokens(self):
        state = two_adversary_pools((6, 6), (4, 9), 3)
        res = lmev(state, {AMM2}, None, PRICES3, SearchBudget(max_depth=3))
        assert res.value == 1
        assert [tx.label() for tx in res.witness] == [
            "N:AMM1.swap(?3:T0, 0)", "N:AMM2.swap(?2:T1, 0)"]

    def test_exhaustive_witness_matches_the_oracles(self):
        """Value 1 and the witness signed by N; a differential row checks both."""
        state = two_adversary_pools((2, 2), (1, 4), 2)
        budget = SearchBudget(max_depth=3, exhaustive=True, ceiling=3)
        res = lmev(state, {AMM2}, None, PRICES3, budget)
        assert res.value == 1
        assert [tx.label() for tx in res.witness] == [
            "N:AMM1.swap(?2:T0, 0)", "N:AMM2.swap(?1:T1, 0)"]

    @pytest.mark.parametrize("universal", (False, True), ids=("generators", "exhaustive"))
    def test_every_call_is_sent_from_every_adversary_account(self, universal):
        """Each proposed call comes from both M and N; the tick, proposed
        because the bet reads the height, comes once, from M."""
        state = micro_bet(0, 2, adversary=(M, N))
        budget = SearchBudget(ceiling=2)
        moves = (universal_moves(state, ("ETH", "T"), budget) if universal
                 else adversary_moves(state, None, budget))
        assert [tx.origin for tx in moves if tx.method == TICK_METHOD] == [M]
        origins = {}
        for tx in moves:
            if tx.method != TICK_METHOD:
                origins.setdefault(tx.key()[1:], set()).add(tx.origin)
        assert origins and all(o == {M, N} for o in origins.values())


class TestLmev:
    def test_pool_chain_values_and_witness(self):
        state = two_pool_state()
        res = lmev(state, {AMM2}, None, PRICES3, BUDGET)
        assert res.value == 1
        assert [tx.label() for tx in res.witness] == [
            "M:AMM1.swap(?3:T0, 0)", "M:AMM2.swap(?2:T1, 0)"]
        restricted = lmev(state, {AMM2}, {AMM2}, PRICES3, BUDGET)
        assert restricted.value == 0 and restricted.witness == ()

    def test_witness_replay_reproduces_the_value(self):
        state = two_pool_state()
        res = lmev(state, {AMM2}, None, PRICES3, BUDGET)
        assert -gain([AMM2], state, res.witness, PRICES3) == res.value

    def test_relay_chain_is_not_monotone_in_the_observed_set(self):
        st = build({M: {}}, [
            ("faucet", "C0", {"token": "T0", "amount": 5}, {"T0": 5}),
            ("relay", "C1", {"tin": "T0", "amount_in": 5, "tout": "T1", "amount_out": 1},
             {"T1": 1}),
            ("relay", "C2", {"tin": "T1", "amount_in": 1, "tout": "T2", "amount_out": 100},
             {"T2": 100}),
        ])
        c1, c2 = Account.contract("C1"), Account.contract("C2")
        assert lmev(st, {c2}, None, PRICES3, BUDGET).value == 99
        assert lmev(st, {c1, c2}, None, PRICES3, BUDGET).value == 95

    def test_empty_observed_and_empty_restriction_are_zero(self):
        state = two_pool_state()
        assert lmev(state, set(), None, PRICES3, BUDGET).value == 0
        assert lmev(state, {AMM2}, frozenset(), PRICES3, BUDGET).value == 0

    def test_values_scale_with_exact_prices(self):
        st = build({M: {}}, [("airdrop", "Drop", {"token": "TA"}, {"TA": 5})])
        prices = prices_of({"TA": "3/2"})
        drop = Account.contract("Drop")
        res = lmev(st, {drop}, None, prices, BUDGET)
        assert res.value == Fraction(15, 2) and res.complete
        assert lmev(st, {drop}, {drop}, prices, BUDGET).value == Fraction(15, 2)

    def test_undeployed_accounts_are_ignored(self):
        state = two_pool_state()
        ghost = Account.contract("ghost")
        base = lmev(state, {AMM2}, None, PRICES3, BUDGET)
        assert lmev(state, {AMM2, ghost}, None, PRICES3, BUDGET).value == base.value
        restricted = lmev(state, {AMM2}, {AMM2}, PRICES3, BUDGET)
        assert lmev(state, {AMM2}, {AMM2, ghost}, PRICES3, BUDGET).value == restricted.value

    def test_value_bounded_by_observed_wealth(self):
        state = two_pool_state()
        res = lmev(state, {AMM1, AMM2}, None, PRICES3, BUDGET)
        assert 0 <= res.value <= wealth((AMM1, AMM2), state, PRICES3)

    def test_memoised_and_unmemoised_agree(self, monkeypatch):
        rng = random.Random(23)
        cases = []
        for _ in range(25):
            state, prices, _ = random_micro(rng)
            budget = SearchBudget(max_depth=rng.choice((2, 3)), grid=4)
            cases.append((state, random_observed(rng, state), prices, budget))
        # and on a bundled scenario at the default budget
        cases.append((two_pool_state(), {AMM2}, PRICES3, BUDGET))
        memoised = [lmev(state, obs, None, prices, budget)
                    for state, obs, prices, budget in cases]
        monkeypatch.setattr(search, "MEMO_CAP", 0)   # cap 0 stores nothing: unmemoised
        for (state, obs, prices, budget), a in zip(cases, memoised):
            b = lmev(state, obs, None, prices, budget)
            assert (a.value, a.witness) == (b.value, b.witness)

    def test_memo_cap_keeps_value_and_witness_and_warns(self, monkeypatch):
        for state, obs, prices in ((two_pool_state(), {AMM2}, PRICES3),
                                   (bet_state(), {Account.contract("Bet")},
                                    uniform_prices(("ETH", "T")))):
            full = lmev(state, obs, None, prices, SearchBudget(max_depth=3))
            with monkeypatch.context() as m:
                m.setattr(search, "MEMO_CAP", 1)
                capped = lmev(state, obs, None, prices, SearchBudget(max_depth=3))
            assert (capped.value, capped.witness) == (full.value, full.witness)
            assert full.warning is None
            assert capped.warning == "memo cap exceeded; search ran unmemoised"


def _within(state, budget, depth):
    """``state`` and every distinct state up to ``depth`` generated moves
    away, ticks included (at depth 2, the states the pinned move digests
    walk)."""
    seen = {}

    def visit(s, k):
        seen.setdefault(s.key(), s)
        if k:
            for tx in adversary_moves(s, None, budget):
                res = execute(s, tx)
                if res.valid:
                    visit(res.state, k - 1)

    visit(state, depth)
    return list(seen.values())


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS, ids=lambda n: n.rsplit("/", 1)[-1])
def test_last_ply_deltas_match_execute(name):
    """``execute_delta`` at both kinds of ply against ``execute`` plus
    ``wealth_units``, for every generated move and an unaffordable variant
    of it, with the search's two objective groups among the account groups.
    With ``advance`` the next state is ``execute``'s; without it, the
    changes are the same.  The states are those within two moves of the
    scenario and, with the first rung's wealthy adversary, those within one
    move."""
    root, _, prices = bundled(name)
    units = prices.units
    tok = prices.tokens()[0]
    # the groups of the loss search over every contract
    objective = (root.order, tuple(sorted(root.adversary)))
    for grid in (4, 8):
        budget = SearchBudget(grid=grid)
        rich = search.rich_state(root, prices.tokens(), budget, 1)
        for state in _within(root, budget, 2) + _within(rich, budget, 1):
            for tx in adversary_moves(state, None, budget):
                res = execute(state, tx)
                accounts = sorted(set(state.users) | set(res.state.users) | set(state.order))
                groups = tuple((a,) for a in accounts) + objective
                got = execute_delta(state, tx, groups, units, advance=True)
                assert (got is not None) == res.valid, tx
                if got is not None:
                    changes, nxt = got
                    want = tuple(wealth_units(g, res.state, prices) - wealth_units(g, state, prices)
                                 for g in groups)
                    assert changes == want, tx
                    assert nxt.key() == res.state.key(), tx
                    assert nxt.core_key() == res.state.core_key(), tx
                    assert nxt.users == res.state.users, tx
                    assert execute_delta(state, tx, groups, units) == (changes, None), tx
                else:
                    assert execute_delta(state, tx, groups, units) is None, tx
                short = state.user_wallet(tx.origin).get(tok) + 1
                broke = Transaction(tx.origin, tx.callee, tx.method, tx.args,
                                    tx.attached + Wallet.single(tok, short))
                assert not execute(state, broke).valid
                assert execute_delta(state, broke, groups, units, advance=True) is None
                assert execute_delta(state, broke, groups, units) is None


def test_execute_delta_reads_the_height_the_bet_reads():
    """The Bet reads the height, so ``close`` is invalid at its deadline and
    valid one block later, although the contract states are the same."""
    state = build({A: {}}, [
        ("amm", "AMM", {"t0": "ETH", "t1": "T"}, {"ETH": 600, "T": 600}),
        ("bet", "Bet", {"oracle": "AMM", "token": "T", "rate": 2, "deadline": 0},
         {"ETH": 10}),
    ], adversary=(A,))
    bet = Account.contract("Bet")
    units = uniform_prices(("ETH", "T")).units
    groups = ((bet,), (A,))
    close = Transaction(A, bet, "close")
    later = state.with_height(1)
    assert execute_delta(state, close, groups, units) is None                # at the deadline
    assert execute_delta(later, close, groups, units) == ((-10, 10), None)   # the owner takes the pot


def _loss_bounds(state, prices):
    return {a: state.codes[a].loss_bound(state.contracts[a], prices.units)
            for a in state.order}


def _random_walk(rng, root, prices, budget, universal, steps):
    """``root`` and the states after up to ``steps`` random valid moves."""
    path = [root]
    state = root
    for _ in range(steps):
        moves = list(universal_moves(state, prices.tokens(), budget) if universal
                     else adversary_moves(state, None, budget))
        rng.shuffle(moves)
        for tx in moves:
            res = execute(state, tx)
            if res.valid:
                break
        else:
            break
        state = res.state
        path.append(state)
    return path


def _walk_roots(rng):
    """(state, prices, ceiling) of every bundled scenario, with amounts up
    to 3 for exhaustive moves, and of 40 micro states."""
    roots = []
    for name in BUNDLED_SCENARIOS:
        scn = load_bundled(name)
        roots.append((build_state(scn)[0], scn.prices(), 3))
    return roots + [random_micro(rng) for _ in range(40)]


def test_loss_bounds_hold_on_random_walks():
    """Along random valid move sequences no contract loses more from a
    visited state than that state's ``loss_bound``, and the adversary gains
    no more than the sum of the bounds.  Walks start from every bundled
    scenario (amounts up to 3 for exhaustive moves) and from micro states,
    at the given wealth and with the first rung's wealthy adversary."""
    rng = random.Random(606)
    pairs = reached = 0
    for state, prices, ceiling in _walk_roots(rng):
        budget = SearchBudget(grid=4, ceiling=ceiling)
        rich = search.rich_state(state, prices.tokens(), budget, 1)
        for root in (state, rich):
            adv = tuple(sorted(root.adversary))
            for universal in (False, True):
                path = _random_walk(rng, root, prices, budget, universal, 6)
                for i, here in enumerate(path):
                    bounds = _loss_bounds(here, prices)
                    for later in path[i + 1:]:
                        for acc, bound in bounds.items():
                            loss = (wealth_units((acc,), here, prices)
                                    - wealth_units((acc,), later, prices))
                            assert loss <= bound, (acc, here, later)
                            reached += 0 < loss == bound
                        gained = (wealth_units(adv, later, prices)
                                  - wealth_units(adv, here, prices))
                        assert gained <= sum(bounds.values()), (here, later)
                        pairs += 1
    assert pairs > 1000 and reached


def test_total_supply_is_constant_on_random_walks():
    """The premise of the exhaustive move table's default ceiling: no
    transaction changes the total supply, so ``default_ceiling`` is the same
    at every state a search reaches.  Walks as in the loss-bound test."""
    rng = random.Random(707)
    steps = 0
    for state, prices, ceiling in _walk_roots(rng):
        budget = SearchBudget(grid=4, ceiling=ceiling)
        rich = search.rich_state(state, prices.tokens(), budget, 1)
        for root in (state, rich):
            supply = total_supply(root)
            for universal in (False, True):
                for here in _random_walk(rng, root, prices, budget, universal, 6)[1:]:
                    assert total_supply(here) == supply, here
                    assert search.default_ceiling(here) == search.default_ceiling(root)
                    steps += 1
    assert steps > 500


def test_amm_loss_bound_is_the_no_arbitrage_floor():
    """A pool holding 1 T0 and 4 T1 at equal prices keeps k >= 4, so it is
    worth at least 4 and can lose 1; rational prices scale the floor."""
    state = build({M: {"T0": 1}}, [
        ("amm", "AMM", {"t0": "T0", "t1": "T1"}, {"T0": 1, "T1": 4}),
        ("airdrop", "Drop", {"token": "T2"}, {"T2": 3}),
    ])
    amm, drop = Account.contract("AMM"), Account.contract("Drop")
    assert _loss_bounds(state, PRICES3) == {amm: 1, drop: 3}
    # at prices 2 and 1/2 (4 and 1 units of 1/2) the pair is worth 8, which
    # is already its floor 2*sqrt(k*4*1) = 8: the pool cannot lose
    prices = prices_of({"T0": 2, "T1": Fraction(1, 2), "T2": 1})
    assert _loss_bounds(state, prices) == {amm: 0, drop: 6}
    swapped = execute(state, Transaction(M, amm, "swap", (0,), Wallet({"T0": 1}))).state
    assert swapped.contracts[amm].wallet == Wallet({"T0": 2, "T1": 2})
    assert wealth_units((amm,), state, PRICES3) - wealth_units((amm,), swapped, PRICES3) == 1


def _search_cases():
    """(state, observed, prices, budget): the bundled scenarios at depths
    1-4, observing the fragment, and 40 micro states (seed 77), half of
    them searched exhaustively."""
    cases = []
    for name in BUNDLED_SCENARIOS:
        state, delta, prices = bundled(name)
        for depth in (1, 2, 3, 4):
            cases.append((state, delta, prices, SearchBudget(max_depth=depth)))
    rng = random.Random(77)
    for _ in range(40):
        state, prices, ceiling = random_micro(rng)
        cases.append((state, random_observed(rng, state), prices,
                      SearchBudget(max_depth=rng.choice((2, 3)), grid=4,
                                   exhaustive=rng.random() < 0.5, ceiling=ceiling)))
    return cases


def _four_searches(cases) -> list:
    """(value, witness, complete, warning) of ``lmev``, restricted ``lmev``,
    ``rlmev`` and ``global_mev`` on each case."""
    return [tuple((r.value, r.witness, r.complete, r.warning)
                  for r in (lmev(state, observed, None, prices, budget),
                            lmev(state, observed, observed, prices, budget),
                            rlmev(state, observed, None, prices, budget),
                            global_mev(state, prices, budget)))
            for state, observed, prices, budget in cases]


def _counted_executes(monkeypatch) -> list:
    """``[n]``, ``n`` counting the search's ``execute_delta`` calls from now."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return execute_delta(*args)

    monkeypatch.setattr(search, "execute_delta", counted)
    return calls


def test_bound_cut_keeps_every_result(monkeypatch):
    """With ``_MaxSearch.bounds`` patched to infinity neither cut fires: no
    node's best reaches its bounds (the span cut) and no child's bounds fall
    short of the node's best (the child cut).  Those searches agree with the
    cut ones on value, witness, completeness and warning over the bundled
    scenarios at depths 1-4 and over micro states, and run more executes."""
    cases = _search_cases()
    runs = _counted_executes(monkeypatch)
    cut = _four_searches(cases)
    cut_runs, runs[0] = runs[0], 0
    monkeypatch.setattr(search._MaxSearch, "bounds",
                        lambda self, state, plies: (math.inf, math.inf))
    full = _four_searches(cases)
    assert cut_runs < runs[0]
    for want, got in zip(full, cut):
        assert got == want


def test_results_do_not_depend_on_move_order(monkeypatch):
    """With the moves of every node (generated and exhaustive) in reverse
    move-key order, and then in three seeded random orders, the four
    searches of ``_search_cases`` give the same value, witness,
    completeness and warning as in move-key order: the best-first sort
    breaks ties on position, and the span cut, which skips the moves whose
    key sorts after a one-move best that reaches both node bounds, compares
    move keys, not positions.  Reverse order is the one a stop on position
    gets wrong: the first move it meets that reaches the bounds has the
    largest key."""
    cases = _search_cases()
    want = _four_searches(cases)

    def reordered(enumerate_moves, order):
        return lambda *args: order(enumerate_moves(*args))

    def shuffle(rng):
        return lambda moves: tuple(rng.sample(moves, len(moves)))

    orders = {"reversed": lambda moves: moves[::-1],
              **{f"seed {seed}": shuffle(random.Random(seed)) for seed in (1, 2, 3)}}
    for name, order in orders.items():
        with monkeypatch.context() as m:
            m.setattr(search, "adversary_moves", reordered(search.adversary_moves, order))
            m.setattr(search._MaxSearch, "_exhaustive_moves",
                      reordered(search._MaxSearch._exhaustive_moves, order))
            got = _four_searches(cases)
        for case, a, b in zip(cases, want, got):
            assert b == a, (name, case)


def _cli_run(argv, monkeypatch) -> tuple:
    """``(execute_delta calls, exit code)`` of one CLI query; an argument
    ending in ``.scn`` names a bundled scenario."""
    calls = _counted_executes(monkeypatch)
    argv = [str(scenario_path(a)) if a.endswith(".scn") else a for a in argv]
    with redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    return calls[0], code


@pytest.mark.parametrize("argv, most", (
    (("nonint", "bet_on_amm_oracle.scn", "--depth", "6"), 598),
    (("richnonint", "bet_on_amm_oracle.scn", "--depth", "5"), 3_256),
    (("richnonint", "bet_on_amm_oracle.scn", "--depth", "8"), 3_544),
    (("nonint", "bet_on_amm_oracle.scn", "--grid", "16"), 1_382),
    (("mev", "bet_on_amm_oracle.scn", "--depth", "5"), 556),
), ids=("nonint-depth-6", "richnonint-depth-5", "richnonint-depth-8", "nonint-grid-16",
        "mev-depth-5"))
def test_child_cut_bounds_the_execute_count(argv, most, monkeypatch):
    """The child cut fires early and only payable moves run: these bet
    queries make at most the pinned number of ``execute_delta`` calls.
    Signing every generated call from every adversary account, those the
    origin cannot pay too, they make 1,421, 4,104, 4,473, 3,961 and 1,384.
    They need the children visited best-first, ties on optimistic value
    and gain broken toward the most bound left, and the bet's bound within
    the plies left; with the child cut off (its ``break`` a no-op) they
    make 1,341, 14,868, 15,510, 5,932 and 1,282."""
    assert 0 < _cli_run(argv, monkeypatch)[0] <= most


@pytest.mark.parametrize("argv, most", (
    (("rlmev", "two_amms.scn"), 28),
    (("strip-check", "two_amms.scn"), 32),
    (("rlmev", "two_amms.scn", "--depth", "6"), 28),
), ids=("rlmev", "strip-check", "rlmev-depth-6"))
def test_span_cut_bounds_the_execute_count(argv, most, monkeypatch):
    """The span cut in the move loop fires early: on every rung of these
    ladders a single swap reaches the root's bounds, so no move whose key
    sorts after it runs and no child is searched, and the queries make at
    most the pinned number of ``execute_delta`` calls.  Run every move of a
    node instead and they make 48, 72 and 48; score no one-move trace before
    the first child's subtree is searched, 2,336, 2,484 and 6,510.  With the
    child cut off they still make 28, 32 and 28."""
    assert 0 < _cli_run(argv, monkeypatch)[0] <= most


STRESS_SET = (
    (("richnonint", "bet_on_amm_oracle.scn"), 3_134, 1),
    (("richnonint", "bet_on_amm_oracle.scn", "--depth", "5"), 3_256, 1),
    (("richnonint", "bet_on_amm_oracle.scn", "--depth", "8"), 3_544, 1),
    (("nonint", "bet_on_amm_oracle.scn", "--depth", "6"), 598, 1),
    (("nonint", "bet_on_amm_oracle.scn", "--grid", "16"), 1_382, 1),
    (("mev", "bet_on_amm_oracle.scn", "--depth", "5"), 556, 0),
    (("strip-check", "bet_on_amm_oracle.scn"), 3_078, 0),
    (("rlmev", "two_amms.scn", "--depth", "8"), 28, 0),
    (("strip-check", "two_amms.scn"), 32, 0),
    (("mev", "compositions/row7_lp_arbitrage.scn", "--exhaustive", "--depth", "2"), 2_981, 0),
    (("table2",), 3_134, 0),
    (("examples",), 1_003, 0),
    (("battery", "--seed", "1"), 496, 0),
)


@pytest.mark.parametrize("argv, executes, code", STRESS_SET,
                         ids=["-".join(a.removesuffix(".scn").rsplit("/", 1)[-1].lstrip("-")
                                       for a in argv) for argv, _, _ in STRESS_SET])
def test_stress_set_execute_counts_are_pinned(argv, executes, code, monkeypatch):
    """The stress set's queries make exactly the pinned number of
    ``execute_delta`` calls and exit with the pinned code, so a change to
    the executor's cost per move shows no count moving, and a change to the
    search shows every count it moves."""
    assert _cli_run(argv, monkeypatch) == (executes, code)


def _micro_ladder_executes(exhaustive, depth, monkeypatch) -> int:
    """``execute_delta`` calls of ``rlmev`` on 200 micro states (seed 20), a
    random set of contracts observed and every one callable."""
    calls = _counted_executes(monkeypatch)
    rng = random.Random(20)
    for _ in range(200):
        state, prices, ceiling = random_micro(rng)
        observed = random_observed(rng, state)
        budget = SearchBudget(max_depth=depth, exhaustive=exhaustive, ceiling=ceiling)
        rlmev(state, observed, None, prices, budget)
    return calls[0]


@pytest.mark.parametrize("exhaustive, depth, pinned", (
    (False, 3, 10_331),
    (True, 2, 20_097),
), ids=("generator-depth-3", "exhaustive-depth-2"))
def test_micro_ladder_execute_count_is_pinned(exhaustive, depth, pinned, monkeypatch):
    """Every rung is a full ``lmev`` search: the same 200 ladders make
    exactly the pinned number of executes, so a change to the search's cuts
    or to the ladder's stop shows here as a moved count."""
    assert _micro_ladder_executes(exhaustive, depth, monkeypatch) == pinned


def test_move_table_matches_fresh_enumeration(monkeypatch):
    """The per-search move table against ``universal_moves`` at every node
    an exhaustive search expands: micro states of every family, every
    bundled scenario at depth 3 with amounts up to 3, and the
    ``exchange_round_trip`` non-interference golden, whose exhaustive
    searches take the default ceiling."""
    fresh = universal_moves
    fills = []
    engines = {}
    lookup = search._MaxSearch._exhaustive_moves

    def fill(*args):
        fills.append(args)
        return fresh(*args)

    def checked(self, state):
        moves = lookup(self, state)
        assert moves == fresh(state, self.tokens, self.budget, self.restriction), state
        engines.setdefault(id(self), [self, 0])[1] += 1
        return moves

    monkeypatch.setattr(search, "universal_moves", fill)
    monkeypatch.setattr(search._MaxSearch, "_exhaustive_moves", checked)
    rng = random.Random(909)
    for family in MICRO_FAMILIES * 7:
        state, prices, ceiling = random_micro(rng, (family,))
        observed = random_observed(rng, state)
        budget = SearchBudget(max_depth=rng.choice((2, 3)), exhaustive=True, ceiling=ceiling)
        lmev(state, observed, None, prices, budget)
        lmev(state, observed, observed, prices, budget)
        global_mev(state, prices, budget)
    budget = SearchBudget(max_depth=3, exhaustive=True, ceiling=3)
    for name in BUNDLED_SCENARIOS:
        state, delta, prices = bundled(name)
        for observed, restriction in ((delta, None), (delta, delta), (state.deployed, None)):
            lmev(state, observed, restriction, prices, budget)
    searches = len(engines)
    verdict = nonint(*bundled("exchange_round_trip.scn"), SearchBudget(exhaustive=True))
    assert verdict.outcome == "holds" and verdict.justification == "zero-mev"
    assert len(engines) > searches
    # one enumeration per user set of each search, not one per node
    assert len(fills) == sum(len(e.move_table) for e, _ in engines.values())
    assert len(fills) < sum(nodes for _, nodes in engines.values())


def test_move_table_follows_a_growing_user_set():
    """The user set grows mid-search: the table enumerates again for it.
    Moves enumerated at the root alone would miss ``boost(B)`` and reach
    only 2, 3 and 4 at depths 2 to 4; differential rows check the values
    against ``brute_lmev``, which rebuilds its moves at every state."""
    state = tip_jar_state()
    jar = Account.contract("Jar")
    prices = uniform_prices(("T",))
    assert B not in state.users
    assert all(tx.method != "boost" or tx.args != (B,)
               for tx in universal_moves(state, prices.tokens(), SearchBudget(ceiling=2)))
    for depth, want in ((1, 1), (2, 3), (3, 5), (4, 7)):
        budget = SearchBudget(max_depth=depth, exhaustive=True, ceiling=2)
        assert lmev(state, {jar}, None, prices, budget).value == want
        engine = search._MaxSearch(state, prices, budget, None, (jar,), -1)
        engine.run(state)
        users = {(M,)} if depth == 1 else {(M,), tuple(sorted((B, M)))}
        assert set(engine.move_table) == users


class TestGlobalMev:
    def test_mutex_pair_keeps_whole_state_value_flat(self):
        st = build({M: {}}, [("mutex_vault", "C1", {"token": "T"}, {"T": 1}),
                             ("mutex_follower", "C2", {"c1": "C1", "token": "T"}, {"T": 1})])
        prices = uniform_prices(("T",))
        assert global_mev(st, prices, BUDGET).value == 1
        from mevscope import without_contracts
        alone = without_contracts(st, {Account.contract("C2")})
        res = global_mev(alone, prices, BUDGET)
        assert res.value == 1
        assert res.witness == (Transaction(M, Account.contract("C1"), "f1"),)

    def test_exchange_round_trip_gains_exactly_one(self):
        st = build({M: {"T2": 1}}, [
            ("exchange", "Exchange1", {"tout": "T2", "tin": "T", "rate": 2}, {"T2": 2}),
            ("exchange", "Exchange2", {"tout": "T", "tin": "T2", "rate": 1}, {"T": 1}),
        ])
        prices = uniform_prices(("T", "T2"))
        assert global_mev(st, prices, BUDGET).value == 1
        from mevscope import without_contracts
        base = without_contracts(st, {Account.contract("Exchange2")})
        assert global_mev(base, prices, BUDGET).value == 0


class TestRichAdversary:
    def test_paid_gate_opens_for_wealthy_adversaries(self):
        st = build({M: {}}, [
            ("paid_cell", "C", {"token": "T"}, {}),
            ("gated_vault", "D", {"cell": "C", "token": "ETH"}, {"ETH": 100}),
        ])
        prices = uniform_prices(("T", "ETH"))
        d = Account.contract("D")
        res = rlmev(st, {d}, None, prices, BUDGET)
        assert res.value == 100 and res.complete
        restricted = rlmev(st, {d}, {d}, prices, BUDGET)
        assert restricted.value == 0

    def test_bet_fragment_rich_value_is_the_pot(self):
        state = bet_state(adversary_eth=0)
        prices = uniform_prices(("ETH", "T"))
        res = rlmev(state, {Account.contract("Bet")}, None, prices, BUDGET)
        assert res.value == 10 and res.complete

    def test_ladder_rungs_are_lmev_values_at_rich_states(self):
        """``rlmev`` carries its ladder: two rungs on two_amms, which
        plateaus, and one on bet, which reaches the pot.  Each rung's value
        is ``lmev`` at the ``rich_state`` of its scale; plain searches carry
        no ladder, and ``stability_probe`` returns ``rlmev``'s."""
        for name, want in (("two_amms.scn", ((1, 1), (2, 1))),
                           ("bet_on_amm_oracle.scn", ((1, 10),))):
            state, delta, prices = bundled(name)
            res = rlmev(state, delta, None, prices, BUDGET)
            assert res.ladder == want
            for scale, value in res.ladder:
                rich = search.rich_state(state, prices.tokens(), BUDGET, scale)
                assert lmev(rich, delta, None, prices, BUDGET).value == value
            assert lmev(state, delta, None, prices, BUDGET).ladder == ()
            assert global_mev(state, prices, BUDGET).ladder == ()
        assert stability_probe(state, delta, None, prices, BUDGET) == res.ladder

    def test_result_names_the_wallet_of_its_rung(self):
        """``adversary_wallet`` holds the users of the ``rich_state`` rung
        the result came from: on two_amms, which plateaus at the second
        rung, the first; on bet, which reaches the pot, the only one.  Plain
        searches name none."""
        for name, ladder in (("two_amms.scn", ((1, 1), (2, 1))),
                             ("bet_on_amm_oracle.scn", ((1, 10),))):
            state, delta, prices = bundled(name)
            res = rlmev(state, delta, None, prices, BUDGET)
            assert res.ladder == ladder
            first, second = (search.rich_state(state, prices.tokens(), BUDGET, scale).users
                             for scale in (1, 2))
            assert res.adversary_wallet == first != second
            assert lmev(state, delta, None, prices, BUDGET).adversary_wallet is None
            assert global_mev(state, prices, BUDGET).adversary_wallet is None

    def test_ladder_is_monotone_and_plateaus(self):
        st = two_pool_state()
        ladder = rlmev(st, {AMM2}, None, PRICES3, SearchBudget(max_depth=3, grid=8)).ladder
        values = [v for _, v in ladder]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert len(values) >= 2 and values[-1] == values[-2] or len(values) == 1

    def test_empty_observed_ladder_is_all_zero(self):
        st = two_pool_state()
        ladder = rlmev(st, set(), None, PRICES3, SearchBudget(max_depth=2, grid=4)).ladder
        assert all(v == 0 for _, v in ladder)

    def test_paid_gate_ladder_reaches_the_vault(self):
        st = build({M: {}}, [
            ("paid_cell", "C", {"token": "T"}, {}),
            ("gated_vault", "D", {"cell": "C", "token": "ETH"}, {"ETH": 100}),
        ])
        prices = uniform_prices(("T", "ETH"))
        ladder = rlmev(st, {Account.contract("D")}, None, prices, BUDGET).ladder
        assert ladder[-1][1] == 100

    def test_escalation_cap_gives_an_incomplete_result(self, monkeypatch, capsys):
        """With no doubling allowed, the one rung neither plateaus nor
        reaches AMM2's wealth: the value is kept but marked incomplete."""
        monkeypatch.setattr(search, "ESCALATION_CAP", 0)
        state, delta, prices = bundled("two_amms.scn")
        res = rlmev(state, delta, None, prices, BUDGET)
        assert (res.value, res.complete) == (1, False)
        assert res.warning == "escalation cap reached without a plateau"
        assert res.ladder == ((1, 1),)
        from mevscope.cli import EXIT_INCOMPLETE, main
        from mevscope.scenario import scenario_path
        assert main(["rlmev", str(scenario_path("two_amms.scn"))]) == EXIT_INCOMPLETE
        assert "escalation cap reached without a plateau" in capsys.readouterr().out

    def test_appending_contracts_leaves_old_rich_value_unchanged(self):
        # later deployments cannot affect what is extractable from earlier
        # ones; the observed pool is unbalanced so there is a real value
        st = build({M: {"T0": 5}}, [
            ("amm", "AMM1", {"t0": "T0", "t1": "T1"}, {"T0": 9, "T1": 4}),
            ("amm", "AMM2", {"t0": "T0", "t1": "T1"}, {"T0": 6, "T1": 6}),
        ])
        budget = SearchBudget(max_depth=3, grid=8)
        before = rlmev(st, {AMM1}, None, uniform_prices(("T0", "T1")), budget)
        extended = deploy(st, REGISTRY["best_swap"].make("Wrap", c0="AMM1", c1="AMM2"),
                          deployer=A)
        after = rlmev(extended, {AMM1}, None, uniform_prices(("T0", "T1")), budget)
        assert before.value == after.value > 0


class TestSearchMonotonicity:
    """Quick structural checks; the high-volume randomized runs live in the
    acceptance suite."""

    def test_wider_restriction_never_hurts(self):
        state = two_pool_state()
        narrow = lmev(state, {AMM2}, {AMM2}, PRICES3, BUDGET).value
        wide = lmev(state, {AMM2}, {AMM1, AMM2}, PRICES3, BUDGET).value
        universe = lmev(state, {AMM2}, None, PRICES3, BUDGET).value
        assert narrow <= wide <= universe

    def test_non_adversary_wallets_are_irrelevant(self):
        state = two_pool_state()
        users = dict(state.users)
        users[Account.user("bystander")] = Wallet({"T0": 50, "T2": 50})
        bigger = state.with_users(users)
        assert (lmev(state, {AMM2}, None, PRICES3, BUDGET).value
                == lmev(bigger, {AMM2}, None, PRICES3, BUDGET).value)

    def test_richer_adversary_never_extracts_less(self):
        state = two_pool_state()
        users = dict(state.users)
        users[M] = state.user_wallet(M) + Wallet({"T1": 4})
        richer = state.with_users(users)
        assert (lmev(richer, {AMM2}, None, PRICES3, BUDGET).value
                >= lmev(state, {AMM2}, None, PRICES3, BUDGET).value)
