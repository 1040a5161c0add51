import pytest
import types
from fractions import Fraction
from hypothesis import given, strategies as st

from mevscope import (Account, BlockchainState, ContractState, Wallet,
                      genesis, total_supply, wealth, wealth_units)
from mevscope.ledger import EMPTY_WALLET

from helpers import M, prices_of, two_pool_state, uniform_prices

TOKENS = ("T0", "T1", "T2")

wallets = st.dictionaries(st.sampled_from(TOKENS), st.integers(0, 20), max_size=3).map(Wallet)
price_maps = st.fixed_dictionaries({
    t: st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12)
    for t in TOKENS}).map(prices_of)


def test_wallet_normalises_zeros():
    assert Wallet({"T0": 0, "T1": 2}) == Wallet({"T1": 2})
    assert not Wallet({"T0": 0})
    assert Wallet({"T0": 1}).get("T9") == 0


def test_wallet_accepts_any_mapping_and_sums_repeated_pairs():
    want = Wallet({"T0": 3, "T1": 2})
    for amounts in (types.MappingProxyType({"T0": 3, "T1": 2, "T2": 0}), [("T0", 3), ("T1", 2)],
                    (("T0", 1), ("T1", 2), ("T0", 2)), iter([("T1", 2), ("T0", 0), ("T0", 3)])):
        assert Wallet(amounts) == want


def test_wallet_rejects_negative_amounts():
    with pytest.raises(ValueError):
        Wallet({"T0": -1})


def test_wallet_arithmetic():
    w = Wallet({"T0": 2}) + Wallet({"T0": 1, "T1": 5})
    assert w == Wallet({"T0": 3, "T1": 5})


def _minus(a, b):
    """Pointwise a - b, read through `get`; None where b exceeds a."""
    toks = set(a.tokens()) | set(b.tokens())
    if any(a.get(t) < b.get(t) for t in toks):
        return None
    return Wallet({t: a.get(t) - b.get(t) for t in toks})


@given(wallets, wallets)
def test_wallet_add_then_minus_roundtrips(a, b):
    assert (a + b).tokens() == tuple(sorted(set(a.tokens()) | set(b.tokens())))
    assert _minus(a + b, b) == a


def test_account_namespaces():
    assert Account.user("M") != Account.contract("M")
    for build in (lambda: Account("oracle", "x"), lambda: Account("user", ""),
                  lambda: Account.user(""), lambda: Account.contract("")):
        with pytest.raises(ValueError):
            build()


def test_named_accounts_are_shared_objects():
    assert Account.user("M") is Account.user("M")
    assert Account.contract("AMM1") is Account.contract("AMM1")
    direct = Account("contract", "AMM1")
    assert direct == Account.contract("AMM1") and direct is Account.contract("AMM1")
    assert hash(direct) == hash(Account.contract("AMM1")) == hash(("contract", "AMM1"))
    state = two_pool_state()
    assert state.order[0] is Account.contract("AMM1")


def test_an_account_is_not_a_plain_tuple():
    acc = Account.user("M")
    assert acc != ("user", "M") and ("user", "M") != acc
    assert not acc == ("user", "M")
    assert hash(acc) == hash(("user", "M"))
    assert {("user", "M"): 1}.get(acc) is None
    assert (acc.kind, acc.name, acc.is_user, acc.is_contract) == ("user", "M", True, False)


def test_accounts_sort_by_kind_then_name():
    u_b, u_a, c_z, c_a = (Account.user("b"), Account.user("a"), Account.contract("z"),
                          Account.contract("a"))
    assert sorted([u_b, c_z, u_a, c_a]) == [c_a, c_z, u_a, u_b]


def test_wallet_single_checks_like_the_constructor():
    assert Wallet.single("T0", 3) == Wallet({"T0": 3})
    assert not Wallet.single("T0", 0)
    for token, amount, err in (("T0", -1, ValueError), ("T0", True, TypeError),
                               ("T0", 1.0, TypeError), (7, 1, TypeError)):
        with pytest.raises(err):
            Wallet.single(token, amount)


def test_a_single_wallet_is_the_constructors_wallet():
    """``Wallet.single`` builds its sorted items itself and returns the
    shared empty wallet for a zero amount; neither is observable."""
    for token, amount in (("T0", 3), ("Z", 1), ("ETH", 10 ** 30)):
        assert Wallet.single(token, amount).items() == Wallet({token: amount}).items()
    assert Wallet.single("T0", 0) == EMPTY_WALLET == Wallet()
    assert not Wallet.single("T0", 0)


def test_prices_must_be_positive():
    with pytest.raises(ValueError):
        prices_of({"T0": 0})
    assert dict(prices_of({"T0": "3/2"}).prices)["T0"] == Fraction(3, 2)


def test_wealth_of_second_pool_and_adversary():
    state = two_pool_state()
    prices = uniform_prices(TOKENS)
    assert wealth([Account.contract("AMM2")], state, prices) == 13
    assert wealth([M], state, prices) == 3
    assert wealth([], state, prices) == 0
    # unknown accounts contribute nothing
    assert wealth([Account.user("ghost"), Account.contract("ghost")], state, prices) == 0


def test_wealth_additive_over_disjoint_sets():
    state = two_pool_state()
    prices = uniform_prices(TOKENS)
    a = [Account.contract("AMM1")]
    b = [Account.contract("AMM2"), M]
    assert wealth(a + b, state, prices) == wealth(a, state, prices) + wealth(b, state, prices)


def test_wealth_uses_exact_prices():
    state = two_pool_state()
    prices = prices_of({"T0": 1, "T1": "1/3", "T2": "2/7"})
    assert wealth([Account.contract("AMM2")], state, prices) == Fraction(4, 3) + Fraction(18, 7)


@given(st.lists(wallets, min_size=1, max_size=3), wallets, price_maps)
def test_wealth_units_over_scale_is_the_rational_sum(user_wallets, contract_wallet, prices):
    users = {Account.user(f"U{i}"): w for i, w in enumerate(user_wallets)}
    c = Account.contract("C")
    state = BlockchainState(users, {c: ContractState(contract_wallet)}, (c,), {c: None})
    accounts = [*users, c]
    quoted = dict(prices.prices)
    expected = sum((n * quoted[t] for w in (*user_wallets, contract_wallet)
                    for t, n in w.items()), Fraction(0))
    units = wealth_units(accounts, state, prices)
    assert isinstance(units, int)
    assert Fraction(units, prices.scale) == expected == wealth(accounts, state, prices)
    assert all(prices.units[t] == quoted[t] * prices.scale for t in TOKENS)


def test_wealth_units_rejects_unpriced_tokens():
    state = genesis({M: Wallet({"T9": 1})})
    with pytest.raises(KeyError):
        wealth_units([M], state, uniform_prices(TOKENS))


def test_total_supply():
    state = two_pool_state()
    assert total_supply(state) == Wallet({"T0": 9, "T1": 10, "T2": 9})
