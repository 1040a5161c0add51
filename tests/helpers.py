"""Shared builders for the test suite: price maps, canned states and a seeded
generator of micro scenarios (small enough for exhaustive enumeration)."""

import random
from fractions import Fraction
from pathlib import Path

import mevscope
from mevscope import (
    REGISTRY,
    Account,
    ContractCode,
    MethodDef,
    PriceMap,
    Wallet,
    deploy,
    genesis,
    total_supply,
)
from mevscope.vm import ArgSpec

M = Account.user("M")
A = Account.user("A")
N = Account.user("N")
B = Account.user("B")

# every bundled scenario, as ``scenario.load_bundled`` names it
_SCENARIO_DIR = Path(mevscope.__file__).parent / "scenarios"
BUNDLED_SCENARIOS = tuple(sorted(p.relative_to(_SCENARIO_DIR).as_posix()
                                 for p in _SCENARIO_DIR.rglob("*.scn")))
# the bundled scenarios small enough to enumerate exhaustively
EXHAUSTIVE_SCENARIOS = tuple(n for n in BUNDLED_SCENARIOS if n not in (
    "bet_on_amm_oracle.scn", "compositions/row2_bet_on_amm.scn"))


def prices_of(mapping) -> PriceMap:
    """A price map from ``{token: price}``, each price anything ``Fraction``
    accepts."""
    return PriceMap(tuple(sorted((t, Fraction(p)) for t, p in mapping.items())))


def uniform_prices(tokens) -> PriceMap:
    """Every one of ``tokens`` at price 1."""
    return prices_of({t: 1 for t in tokens})


def build(users, deployments, adversary=(M,), height=0, deployer=A):
    """users: {Account: {token: n}}; deployments: (catalog key, name, args, fund).
    ``deployer`` deploys every contract; funding is minted to it right
    before each deployment."""
    st = genesis({acc: Wallet(w) for acc, w in users.items()}, adversary, height)
    for key, name, args, fund in deployments:
        wallet = Wallet(fund)
        staged = dict(st.users)
        staged[deployer] = st.user_wallet(deployer) + wallet
        st = st.with_users(staged)
        st = deploy(st, REGISTRY[key].make(name, **args), attached=wallet, deployer=deployer)
    return st


def two_pool_state():
    return build(
        {M: {"T0": 3}},
        [("amm", "AMM1", {"t0": "T0", "t1": "T1"}, {"T0": 6, "T1": 6}),
         ("amm", "AMM2", {"t0": "T1", "t1": "T2"}, {"T1": 4, "T2": 9})],
    )


def two_adversary_pools(amm1, amm2, t0):
    """Two chained pools, AMM1 (T0/T1) and AMM2 (T1/T2), with reserves
    ``amm1`` and ``amm2``, against two adversary accounts: M holds nothing
    and N holds ``t0`` T0, so only N can sign a trace that extracts."""
    return build({M: {}, N: {"T0": t0}},
                 [("amm", "AMM1", {"t0": "T0", "t1": "T1"}, dict(zip(("T0", "T1"), amm1))),
                  ("amm", "AMM2", {"t0": "T1", "t1": "T2"}, dict(zip(("T1", "T2"), amm2)))],
                 adversary=(M, N))


def bet_state(rate=2, deadline=1000, adversary_eth=310):
    return build(
        {M: {"ETH": adversary_eth}},
        [("amm", "AMM", {"t0": "ETH", "t1": "T"}, {"ETH": 600, "T": 600}),
         ("bet", "Bet", {"oracle": "AMM", "token": "T", "rate": rate,
                         "deadline": deadline}, {"ETH": 10})],
    )


def _tip_jar():
    """A contract that stores the user ``B``, who starts with an empty
    wallet and is no adversary: ``tip`` pays B 1 T, and ``boost(to)`` pays
    2 T only to the stored user.  ``boost(B)`` enters the exhaustive
    account domain only once a ``tip`` has put B among the state's users."""

    def init(c):
        c.put("payee", B)

    def tip(c):
        c.pay(c.store("payee"), 1, "T")

    def boost(c):
        c.require(c.arg(0) == c.store("payee"))
        c.pay(c.arg(0), 2, "T")

    return ContractCode(
        name="Jar",
        methods={"tip": MethodDef(tip),
                 "boost": MethodDef(boost, args=(ArgSpec("account"),))},
        constructor=init,
        outtok_decl=frozenset({"T"}),
    )


def tip_jar_state():
    """The tip jar holding 9 T, deployed by A; M, the adversary, holds nothing."""
    st = genesis({M: Wallet(), A: Wallet({"T": 9})}, (M,))
    return deploy(st, _tip_jar(), attached=Wallet({"T": 9}), deployer=A)


# --- random micro scenarios (total token supply <= 10) --------------------------


def _amm_solo(rng):
    r0, r1 = rng.randint(1, 2), rng.randint(1, 2)
    m0, m1 = rng.randint(0, 2), rng.randint(0, 1)
    st = build({M: {"T0": m0, "T1": m1}},
               [("amm", "AMM", {"t0": "T0", "t1": "T1"}, {"T0": r0, "T1": r1})])
    return st, ("T0", "T1"), rng.choice([2, 3])


def _amm_pair(rng):
    st = build({M: {"T0": rng.randint(0, 2)}},
               [("amm", "AMM1", {"t0": "T0", "t1": "T1"},
                 {"T0": rng.randint(1, 2), "T1": rng.randint(1, 2)}),
                ("amm", "AMM2", {"t0": "T1", "t1": "T2"},
                 {"T1": rng.randint(1, 2), "T2": rng.randint(1, 2)})])
    return st, ("T0", "T1", "T2"), 2


def _exchange(rng):
    rate = rng.randint(1, 2)
    st = build({M: {"TI": rng.randint(0, 2)}},
               [("exchange", "Ex", {"tout": "TO", "tin": "TI", "rate": rate},
                 {"TO": rng.randint(1, 4)})])
    return st, ("TI", "TO"), 4


def _airdrop_exchange(rng):
    st = build({M: {}},
               [("airdrop", "Drop", {"token": "T"}, {"T": 1}),
                ("exchange", "Ex", {"tout": "ETH", "tin": "T",
                                    "rate": rng.randint(1, 3)},
                 {"ETH": rng.randint(1, 4)})])
    return st, ("T", "ETH"), 4


def _relay(rng):
    k = rng.randint(1, 2)
    st = build({M: {}},
               [("faucet", "C0", {"token": "T0", "amount": k}, {"T0": k}),
                ("relay", "C1", {"tin": "T0", "amount_in": k,
                                 "tout": "T1", "amount_out": rng.randint(1, 3)},
                 {"T1": 3})])
    return st, ("T0", "T1"), 3


def _cells(rng):
    cell_kind = rng.choice(["cell", "once_cell"])
    if rng.random() < 0.5:
        deps = [(cell_kind, "X", {}, {}),
                ("gated_drop", "C", {"cell": "X", "token": "T"}, {"T": rng.randint(1, 3)})]
    else:
        deps = [(cell_kind, "X", {}, {}),
                ("dropper", "D1", {"var": "X", "token": "T"}, {"T": 3})]
        if rng.random() < 0.5:
            deps.append(("dropper", "D2", {"var": "X", "token": "T"}, {"T": 3}))
    st = build({M: {}}, deps)
    return st, ("T",), 3


def _mutex(rng):
    st = build({M: {}},
               [("mutex_vault", "C1", {"token": "T"}, {"T": 1}),
                ("mutex_follower", "C2", {"c1": "C1", "token": "T"}, {"T": 1})])
    return st, ("T",), 2


def _paid_vault(rng):
    st = build({M: {"T": rng.randint(0, 1)}},
               [("paid_cell", "C", {"token": "T"}, {}),
                ("gated_vault", "D", {"cell": "C", "token": "ETH"},
                 {"ETH": rng.randint(1, 4)})])
    return st, ("T", "ETH"), 4


def micro_bet(eth, deadline, adversary=(M,), rate=1, height=0, deployer=A):
    """A 1 ETH bet at ``rate``, owned by ``deployer``, against a 2/2 ETH-T
    pool, M holding ``eth`` ETH."""
    return build({M: {"ETH": eth}},
                 [("amm", "AMM", {"t0": "ETH", "t1": "T"}, {"ETH": 2, "T": 2}),
                  ("bet", "Bet", {"oracle": "AMM", "token": "T", "rate": rate,
                                  "deadline": deadline}, {"ETH": 1})],
                 adversary=adversary, height=height, deployer=deployer)


def _micro_bet(rng):
    eth = rng.randint(0, 3)
    return micro_bet(eth, rng.randint(1, 5)), ("ETH", "T"), 3


MICRO_FAMILIES = (
    _amm_solo, _amm_pair, _exchange, _airdrop_exchange,
    _relay, _cells, _mutex, _paid_vault, _micro_bet,
)

LIGHT_FAMILIES = (_exchange, _relay, _cells, _mutex, _paid_vault, _airdrop_exchange)


def random_micro(rng: random.Random, families=MICRO_FAMILIES):
    """(state, prices, ceiling); total supply stays at most 10 tokens."""
    st, tokens, ceiling = rng.choice(families)(rng)
    assert sum(n for _, n in total_supply(st).items()) <= 10
    return st, uniform_prices(tokens), ceiling


def random_observed(rng, state):
    contracts = list(state.order)
    k = rng.randint(1, len(contracts))
    return frozenset(rng.sample(contracts, k))
