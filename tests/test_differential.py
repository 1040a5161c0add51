"""The search against the brute-force oracle of ``oracle.py`` as one table of
rows, and laws of the search values that need no oracle.

A row names its state source, observed set, restriction, budget, the
``rich_state`` rung (0: the state's own wallets) and its oracles,
``brute_lmev`` (the value) and ``brute_best`` (value and witness), and checks
``lmev`` against each, and ``complete`` in exhaustive mode.  A shortcut row,
where contract independence or stability decided a verdict, requires the
oracle's value not to move with the restriction.  Each group keeps its seeded
draws in order and each row's first occurrence; oracle answers are memoised.
"""

import itertools
import random
from collections import namedtuple
from fractions import Fraction

import pytest

from mevscope import Account, SearchBudget, global_mev, lmev, nonint, richnonint, rlmev
from mevscope.analysis import JUST_CONTRACT_INDEP, JUST_STABLE
from mevscope.scenario import build_state, bundled, load_bundled
from mevscope.search import rich_state

from helpers import (BUNDLED_SCENARIOS, EXHAUSTIVE_SCENARIOS, LIGHT_FAMILIES, MICRO_FAMILIES,
                     M, micro_bet, prices_of, random_micro, random_observed,
                     tip_jar_state, two_adversary_pools, uniform_prices)
from oracle import brute_best, brute_lmev, enumerate_moves

Row = namedtuple("Row", "source state observed restriction prices budget rung oracles shortcut",
                 defaults=(False,))
BOTH, WITNESS, VALUE = ("brute_lmev", "brute_best"), ("brute_best",), ("brute_lmev",)
BET, AMM2, JAR = (Account.contract(n) for n in ("Bet", "AMM2", "Jar"))
# (oracle, state key and deployed code ids, as states compare without codes,
# prices, observed, restriction, budget) -> (the codes, kept so that their ids
# stay theirs, (value, witness or None))
_ANSWERS = {}


def _state_key(state) -> tuple:
    return state.key(), tuple(id(state.codes[a]) for a in state.order)


def _oracle(name, state, observed, restriction, prices, budget):
    restriction = None if restriction is None else frozenset(restriction)
    key = (name, _state_key(state), prices, frozenset(observed), restriction,
           (budget.max_depth, budget.ceiling) if name == "brute_lmev" else budget)
    if key not in _ANSWERS:
        if name == "brute_lmev":
            answer = (brute_lmev(state, observed, restriction, prices, budget.max_depth,
                                 budget.ceiling), None)
        else:
            tokens = prices.tokens()
            moves = (lambda s: enumerate_moves(s, tokens, budget.ceiling, restriction)
                     ) if budget.exhaustive else None
            answer = brute_best(state, observed, restriction, prices, budget, moves)
        _ANSWERS[key] = (tuple(state.codes.values()), answer)
    return _ANSWERS[key][1]


def _check(row) -> Fraction:
    """Check ``row``, naming it in any failure; return its oracle value."""
    start = row.state if not row.rung else rich_state(row.state, row.prices.tokens(),
                                                      row.budget, row.rung)
    where = f"{row.source}, rung {row.rung}: {row[2:4]}, {row.budget}, {row.prices}"
    answers = {name: _oracle(name, start, row.observed, row.restriction, row.prices, row.budget)
               for name in row.oracles}
    if row.shortcut:
        for name, (value, _) in answers.items():
            free, _ = _oracle(name, start, row.observed, None, row.prices, row.budget)
            assert free == value, f"{name} moves with the restriction: {where}"
        return value
    res = lmev(start, row.observed, row.restriction, row.prices, row.budget)
    for name, answer in answers.items():
        witness = res.witness if name == "brute_best" else None
        assert (res.value, witness) == answer, f"lmev and {name} differ: {where}"
    assert res.complete or not row.budget.exhaustive, f"incomplete: {where}"
    return res.value


def _micro_exhaustive(seed, cases, rational, depth=None):
    """Without ``depth``, two draws in three from the light families at depth
    2 or 3, the third from every family at depth 2 or 3 (weights 2:1)."""
    rng = random.Random(seed)
    for case in range(cases):
        light = depth is None and case % 3 != 2
        state, prices, ceiling = random_micro(rng, LIGHT_FAMILIES if light else MICRO_FAMILIES)
        if rational(case):
            prices = prices_of({t: Fraction(rng.randint(1, 9), rng.randint(1, 7))
                                for t in prices.tokens()})
        d = depth or rng.choice((2, 3) if light else (2, 2, 3))
        observed = random_observed(rng, state)
        restriction = None if rng.random() < 0.6 else random_observed(rng, state)
        yield Row(f"micro seed {seed} #{case}", state, observed, restriction, prices,
                  SearchBudget(max_depth=d, grid=4, exhaustive=True, ceiling=ceiling), 0, BOTH)


def _bundled(budget, rungs, pairs=lambda state, delta: ((delta, None),), oracles=WITNESS,
             names=BUNDLED_SCENARIOS):
    """Bundled scenarios at each rung, each (observed, restriction) pair."""
    for name in names:
        state, delta, prices = bundled(name)
        for rung in rungs:
            for observed, restriction in pairs(state, delta):
                yield Row(name, state, observed, restriction, prices, budget, rung, oracles)


def _micro_generator():
    """Ten draws of each family, then the micro bet at every deadline: a
    memo keyed without the height returns a larger-keyed witness at 2."""
    rng = random.Random(26)
    for case, family in enumerate(MICRO_FAMILIES * 10):
        state, prices, _ = random_micro(rng, (family,))
        observed = random_observed(rng, state)
        for depth, rung in itertools.product((3, 4), (0, 1)):
            yield Row(f"micro seed 26 #{case}", state, observed, None, prices,
                      SearchBudget(max_depth=depth), rung, WITNESS)
    for deadline in range(1, 6):
        yield Row(f"micro bet deadline {deadline}", micro_bet(0, deadline), {BET}, None,
                  uniform_prices(("ETH", "T")), SearchBudget(max_depth=5), 1, WITNESS)


def _helper_states():
    """A witness of two ticks and a close, one signed by the second
    adversary account, and values reached through a user met mid-trace."""
    bet, jar = micro_bet(2, 1, deployer=M), tip_jar_state()
    for depth, exhaustive in itertools.product((3, 4), (False, True)):
        yield Row("owned bet", bet, {BET}, None, uniform_prices(("ETH", "T")),
                  SearchBudget(max_depth=depth, exhaustive=exhaustive, ceiling=3), 0,
                  BOTH if exhaustive else WITNESS)
    yield Row("two adversary pools", two_adversary_pools((2, 2), (1, 4), 2), {AMM2}, None,
              uniform_prices(("T0", "T1", "T2")),
              SearchBudget(max_depth=3, exhaustive=True, ceiling=3), 0, BOTH)
    for depth in (1, 2, 3, 4):
        yield Row("tip jar", jar, {JAR}, None, uniform_prices(("T",)),
                  SearchBudget(max_depth=depth, exhaustive=True, ceiling=2), 0, VALUE)


def _shortcuts(source, state, delta, prices, budgets):
    """Shortcut rows for ``nonint`` at the given wallets and ``richnonint``
    at rungs 1 and 2, wherever a sufficient condition decided them."""
    for budget, (verdict, rungs) in itertools.product(budgets, ((nonint, (0,)),
                                                                (richnonint, (1, 2)))):
        if verdict(state, delta, prices, budget).justification in (JUST_CONTRACT_INDEP,
                                                                    JUST_STABLE):
            for rung in rungs:
                yield Row(f"{source} {verdict.__name__}", state, delta, delta, prices, budget,
                          rung, VALUE if budget.exhaustive else WITNESS, True)


def _micro_shortcuts():
    """40 draws, each fragment drawn next, at depths 2 and 3 in both modes."""
    rng = random.Random(5)
    for case in range(40):
        state, prices, ceiling = random_micro(rng)
        delta = random_observed(rng, state)
        yield from _shortcuts(f"micro seed 5 #{case}", state, delta, prices, [
            SearchBudget(max_depth=d, exhaustive=e, ceiling=ceiling if e else None)
            for d, e in itertools.product((2, 3), (False, True))])


GROUPS = {
    "exhaustive-micro-90": lambda: _micro_exhaustive(90, 250, lambda case: False),
    "exhaustive-micro-91-rational": lambda: _micro_exhaustive(91, 250, lambda case: True),
    "exhaustive-micro-92-depth-4": lambda: _micro_exhaustive(92, 60, lambda case: case % 2, 4),
    "exhaustive-bundled": lambda: _bundled(
        SearchBudget(max_depth=3, exhaustive=True, ceiling=3), (0,), oracles=BOTH,
        pairs=lambda state, delta: ((delta, None), (delta, delta), (state.deployed, None))),
    "generator-bundled": lambda: _bundled(SearchBudget(max_depth=3), (0, 1)),
    "generator-bundled-rung-2": lambda: _bundled(SearchBudget(max_depth=3), (2,)),
    # the span cut may end a node only on a one-move trace that reaches both
    # node bounds; on the bet and row 2 one beats the empty trace, not the witness
    "generator-ladder-and-bet-depth-4": lambda: itertools.chain(
        _bundled(SearchBudget(max_depth=4), (0, 1, 2),
                 lambda state, delta: ((delta, None), (delta, delta)),
                 names=("two_amms.scn", "compositions/row1_amm_amm.scn")),
        _bundled(SearchBudget(max_depth=4), (0, 1), names=("bet_on_amm_oracle.scn",)),
        _bundled(SearchBudget(max_depth=4), (1,), names=("compositions/row2_bet_on_amm.scn",))),
    "generator-micro-26": _micro_generator,
    "helper-states": _helper_states,
    "shortcut-bundled": lambda: itertools.chain.from_iterable(
        _shortcuts(name, *bundled(name), [SearchBudget(max_depth=3)])
        for name in BUNDLED_SCENARIOS),
    "shortcut-micro-5": _micro_shortcuts,
}


@pytest.mark.parametrize("group", GROUPS)
def test_rows_agree_with_the_oracle(group):
    rows = {}
    for row in GROUPS[group]():
        rows.setdefault((_state_key(row.state), frozenset(row.observed),
                         row.restriction and frozenset(row.restriction), *row[4:]), row)
    values = [_check(row) for row in rows.values()]
    assert any(v > 0 for v in values), f"{group}: every row has value 0"


# stress queries' searches: (search, scenario, (depth, grid) of growing budgets)
GROWING = {"richnonint-bet-depth-4-5-8": (rlmev, "bet_on_amm_oracle.scn", ((4, 8), (5, 8), (8, 8))),
           "rlmev-two-amms-depth-4-8": (rlmev, "two_amms.scn", ((4, 8), (8, 8))),
           "nonint-bet-grid-8-16": (lmev, "bet_on_amm_oracle.scn", ((4, 8), (4, 16)))}


@pytest.mark.parametrize("query", GROWING)
def test_values_never_fall_as_the_budget_grows(query):
    """The restricted value never exceeds the unrestricted one, and neither
    falls as the depth grows or the grid doubles (the AMM's amounts at grid
    2g contain those at grid g)."""
    search, name, budgets = GROWING[query]
    state, delta, prices = bundled(name)
    last = (0, 0)
    for depth, grid in budgets:
        budget = SearchBudget(max_depth=depth, grid=grid)
        pair = [search(state, delta, r, prices, budget).value for r in (None, delta)]
        assert pair[1] <= pair[0] and last[0] <= pair[0] and last[1] <= pair[1], (budget, pair)
        last = pair
    assert last[0] > 0


def test_generator_values_never_exceed_exhaustive_ones():
    """``lmev`` of the fragment and ``global_mev``, at depths 1 and 2, on
    every scenario small enough to enumerate up to its ceiling."""
    for name, depth in itertools.product(EXHAUSTIVE_SCENARIOS, (1, 2)):
        scn = load_bundled(name)
        (state, delta), prices = build_state(scn), scn.prices()
        generated, exhaustive = ((lmev(state, delta, None, prices, b).value,
                                  global_mev(state, prices, b).value)
                                 for b in (SearchBudget(max_depth=depth), SearchBudget(
                                     max_depth=depth, exhaustive=True, ceiling=scn.ceiling)))
        assert generated[0] <= exhaustive[0] and generated[1] <= exhaustive[1], (name, depth)
