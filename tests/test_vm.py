import dataclasses
import re
from fractions import Fraction

import pytest

from mevscope import (
    REGISTRY,
    Account,
    BlockchainState,
    ContractState,
    DeployError,
    SearchBudget,
    Transaction,
    Wallet,
    WellFormednessError,
    adversary_moves,
    check_well_formed,
    deploy,
    deps,
    epsilon_composable,
    execute,
    execute_trace,
    genesis,
    global_mev,
    lmev,
    nonint,
    probe_call,
    richnonint,
    rlmev,
    total_supply,
)
from mevscope.vm import (MAX_CALL_DEPTH, TICK_METHOD, ContractBugError, ContractCode, MethodDef,
                         execute_delta)

from helpers import M, A, bet_state, build, prices_of, two_pool_state, uniform_prices
from model_checks import check_wallet_monotonic, gain, sender_agnostic_witness

PRICES = uniform_prices(("T0", "T1", "T2"))
AMM1 = Account.contract("AMM1")
AMM2 = Account.contract("AMM2")

SWAP1 = Transaction(M, AMM1, "swap", (0,), Wallet({"T0": 3}))
SWAP2 = Transaction(M, AMM2, "swap", (0,), Wallet({"T1": 2}))


def test_first_swap_transition():
    res = execute(two_pool_state(), SWAP1)
    assert res.valid
    assert res.state.contract_state(AMM1).wallet == Wallet({"T0": 9, "T1": 4})
    assert res.state.user_wallet(M) == Wallet({"T1": 2})
    assert res.state.height == 1


def test_unfunded_attachment_rolls_back():
    state = two_pool_state()   # M holds no T1 yet
    res = execute(state, SWAP2)
    assert not res.valid
    assert res.state == state.with_height(1)


def test_win_before_the_pump_rolls_back():
    state = bet_state()
    res = execute_trace(state, [Transaction(M, Account.contract("Bet"), "bet", (),
                                            Wallet({"ETH": 10})),
                                Transaction(M, Account.contract("Bet"), "win")])
    assert not res.valid   # quoted rate is 1, the threshold is 2


def test_full_two_swap_trace():
    res = execute_trace(two_pool_state(), [SWAP1, SWAP2])
    assert res.valid
    assert res.state.contract_state(AMM2).wallet == Wallet({"T1": 6, "T2": 6})
    assert res.state.user_wallet(M) == Wallet({"T2": 3})


def test_empty_trace_is_identity_on_wallets():
    state = two_pool_state()
    res = execute_trace(state, [])
    assert res.state == state


def test_four_step_bet_attack_banks_the_pot():
    state = bet_state()
    trace = [
        Transaction(M, Account.contract("Bet"), "bet", (), Wallet({"ETH": 10})),
        Transaction(M, Account.contract("AMM"), "swap", (0,), Wallet({"ETH": 300})),
        Transaction(M, Account.contract("Bet"), "win"),
        Transaction(M, Account.contract("AMM"), "swap", (0,), Wallet({"T": 200})),
    ]
    res = execute_trace(state, trace)
    assert res.valid
    assert res.state.user_wallet(M) == Wallet({"ETH": 320})
    prices = uniform_prices(("ETH", "T"))
    assert gain([Account.contract("Bet")], state, trace, prices) == -10


def test_gain_of_second_pool_on_the_two_swap_trace():
    state = two_pool_state()
    assert gain([AMM2], state, [SWAP1, SWAP2], PRICES) == -1
    assert gain([AMM2], state, [], PRICES) == 0


def test_gain_sums_to_zero_over_all_accounts():
    state = two_pool_state()
    everyone = list(state.users) + list(state.order)
    prices = prices_of({"T0": 1, "T1": "2/3", "T2": "5/7"})
    assert gain(everyone, state, [SWAP1, SWAP2], prices) == 0


def test_deploy_appends_funded_contract():
    st = genesis({A: Wallet({"T0": 6, "T1": 6})})
    st = deploy(st, REGISTRY["amm"].make("AMM1", t0="T0", t1="T1"),
                attached=Wallet({"T0": 6, "T1": 6}), deployer=A)
    assert st.contract_state(AMM1).wallet == Wallet({"T0": 6, "T1": 6})
    assert st.user_wallet(A) == Wallet()
    assert check_well_formed(st)


def test_deploy_requires_dependencies():
    st = genesis({A: Wallet({"ETH": 10})})
    bet = REGISTRY["bet"].make("Bet", oracle="AMM", token="T", rate=2, deadline=9)
    with pytest.raises(WellFormednessError):
        deploy(st, bet, attached=Wallet({"ETH": 10}), deployer=A)


def test_follower_cannot_deploy_before_its_latch():
    st = genesis({A: Wallet({"T": 2})})
    follower = REGISTRY["mutex_follower"].make("C2", c1="C1", token="T")
    with pytest.raises(WellFormednessError):
        deploy(st, follower, attached=Wallet({"T": 1}), deployer=A)


def test_aborting_constructor_is_a_deploy_error():
    st = genesis({A: Wallet({"T": 5})})
    vault = REGISTRY["mutex_vault"].make("C1", token="T")
    with pytest.raises(DeployError):
        deploy(st, vault, attached=Wallet({"T": 5}), deployer=A)  # needs exactly 1


def test_unfunded_deployer_is_a_deploy_error():
    st = genesis({A: Wallet()})
    code = REGISTRY["amm"].make("AMM1", t0="T0", t1="T1")
    with pytest.raises(DeployError):
        deploy(st, code, attached=Wallet({"T0": 1}), deployer=A)


def test_deps_closure():
    state = bet_state()
    bet, amm = Account.contract("Bet"), Account.contract("AMM")
    assert deps([bet], state) == {bet, amm}
    assert deps([amm], state) == {amm}
    with pytest.raises(ValueError):
        deps([Account.contract("ghost")], state)


def test_deps_of_the_seven_contract_router_stack():
    from mevscope.scenario import build_state, load_bundled
    state, delta = build_state(load_bundled("compositions/row6_best_swap_router.scn"))
    (best,) = delta
    assert len(deps([best], state)) == 7


def test_well_formedness_examples():
    assert check_well_formed(two_pool_state())
    assert check_well_formed(bet_state())
    mutex = build({M: {}}, [("mutex_vault", "C1", {"token": "T"}, {"T": 1}),
                            ("mutex_follower", "C2", {"c1": "C1", "token": "T"}, {"T": 1})])
    assert check_well_formed(mutex)


def _bet_without_its_oracle():
    from mevscope import BlockchainState
    state = bet_state()
    bet = Account.contract("Bet")
    # surgically drop the oracle the bet depends on
    return BlockchainState(state.users, {bet: state.contracts[bet]}, (bet,),
                           {bet: state.codes[bet]}, state.height, state.adversary)


def test_missing_dependency_breaks_well_formedness():
    assert not check_well_formed(_bet_without_its_oracle())


@pytest.mark.parametrize("entry", ("lmev", "rlmev", "global_mev", "nonint", "richnonint",
                                   "epsilon_composable"))
def test_public_entries_reject_a_malformed_state(entry):
    damaged = _bet_without_its_oracle()
    bet = {Account.contract("Bet")}
    prices = prices_of({"ETH": 1, "T": 1})
    budget = SearchBudget(max_depth=2)
    calls = {
        "lmev": lambda: lmev(damaged, bet, None, prices, budget),
        "rlmev": lambda: rlmev(damaged, bet, None, prices, budget),
        "global_mev": lambda: global_mev(damaged, prices, budget),
        "nonint": lambda: nonint(damaged, bet, prices, budget),
        "richnonint": lambda: richnonint(damaged, bet, prices, budget),
        "epsilon_composable": lambda: epsilon_composable(damaged, bet, 0, prices, budget),
    }
    with pytest.raises(ValueError, match="not well-formed"):
        calls[entry]()


def test_determinism():
    state = two_pool_state()
    assert execute(state, SWAP1) == execute(state, SWAP1)


def test_conservation_per_token():
    state = bet_state()
    trace = [
        Transaction(M, Account.contract("Bet"), "bet", (), Wallet({"ETH": 10})),
        Transaction(M, Account.contract("AMM"), "swap", (0,), Wallet({"ETH": 300})),
        Transaction(M, Account.contract("Bet"), "win"),
    ]
    supply = total_supply(state)
    for tx in trace:
        res = execute(state, tx)
        state = res.state
        assert total_supply(state) == supply


def test_height_advances_on_valid_and_invalid():
    state = two_pool_state()
    for tx, valid in ((SWAP1, True), (SWAP2, False),
                      (Transaction(M, AMM1, "no_such_method"), False),
                      (Transaction(M, AMM1, TICK_METHOD), True),
                      # a tick still needs a deployed callee and a funded attachment
                      (Transaction(M, Account.contract("Nowhere"), TICK_METHOD), False),
                      (Transaction(M, AMM1, TICK_METHOD, (), Wallet({"T0": 4})), False)):
        res = execute(state, tx)
        assert (res.valid, res.state.height) == (valid, 1), tx


def test_a_generated_tick_is_valid_and_only_advances_the_height():
    state = bet_state()
    ticks = [tx for tx in adversary_moves(state, None, SearchBudget())
             if tx.method == TICK_METHOD]
    assert len(ticks) == 1
    res = execute(state, ticks[0])
    assert res.valid
    assert res.state.core_key() == state.core_key()
    assert res.state.height == state.height + 1


def test_a_trace_with_ticks_replays_as_valid():
    bet = Account.contract("Bet")
    state = bet_state(deadline=1, adversary_eth=5)
    tick = Transaction(M, bet, TICK_METHOD)
    res = execute_trace(state, [tick, tick, Transaction(A, bet, "close")])
    assert res.valid
    assert res.state.height == 3
    assert res.state.user_wallet(A) == Wallet({"ETH": 10})


def test_call_depth_cap_invalidates():
    def hot_potato(c):
        c.call("Chain0", "spin")

    codes = []
    prev = None
    for i in range(MAX_CALL_DEPTH + 2):
        name = f"Chain{i}"
        if prev is None:
            def base(c):
                c.require(True)
            code = ContractCode(name=name, methods={"spin": MethodDef(base)})
        else:
            dep = prev
            def fwd(c, dep=dep):
                c.call(dep, "spin")
            code = ContractCode(name=name, methods={"spin": MethodDef(fwd)},
                                calls_out=frozenset({(dep, "spin")}))
        codes.append(code)
        prev = name
    st = genesis({M: Wallet()}, adversary=[M])
    for code in codes:
        st = deploy(st, code, deployer=A)
    deep = Transaction(M, Account.contract(f"Chain{MAX_CALL_DEPTH + 1}"), "spin")
    res = execute(st, deep)
    assert not res.valid
    shallow = Transaction(M, Account.contract("Chain3"), "spin")
    assert execute(st, shallow).valid


def test_probe_call_reports_the_outermost_frame():
    state = two_pool_state()
    sc, frame = probe_call(state, M, M, AMM1, "swap", (0,), Wallet({"T0": 3}))
    assert frame == (None, ((M, Wallet({"T1": 2})),))
    assert sc.finals_hold()
    # the attachment is credited to the callee, not debited from anyone
    assert sc.freeze(state.height).user_wallet(M) == Wallet({"T0": 3, "T1": 2})
    _, aborted = probe_call(state, M, M, AMM1, "swap", (3,), Wallet({"T0": 3}))
    assert aborted is None


def test_wallet_monotonic_spot_check():
    state = two_pool_state()
    assert check_wallet_monotonic(state, SWAP1, {M: Wallet({"T0": 100})})
    with pytest.raises(ValueError):
        check_wallet_monotonic(state, SWAP2, {M: Wallet({"T0": 1})})


def test_wallet_monotonic_randomized():
    import random
    from helpers import random_micro
    from mevscope import adversary_moves, SearchBudget
    rng = random.Random(7)
    checked = 0
    while checked < 1000:
        state, prices, _ = random_micro(rng)
        moves = adversary_moves(state, None, SearchBudget(max_depth=2, grid=4))
        if not moves:
            continue
        tx = moves[rng.randrange(len(moves))]
        if not execute(state, tx).valid:
            continue
        bonus = Wallet({t: rng.randint(0, 3) for t in prices.tokens()})
        assert check_wallet_monotonic(state, tx, {M: bonus})
        checked += 1


def test_flash_loan_must_be_repaid_with_fee():
    st = build({M: {}}, [
        ("amm", "AMM1", {"t0": "T0", "t1": "T1"}, {"T0": 6, "T1": 6}),
        ("amm", "AMM2", {"t0": "T0", "t1": "T1"}, {"T0": 6, "T1": 6}),
        ("lending_pool", "LP", {"token": "T0", "fee": 1, "oracle": "Oracle"}, {"T0": 20}),
        ("flash_loan_arbitrage", "Arb", {"c0": "AMM1", "c1": "AMM2", "lp": "LP"}, {}),
    ])
    pre_supply = total_supply(st)
    res = execute(st, Transaction(M, Account.contract("Arb"), "arbitrage", (1,)))
    assert not res.valid                      # break-even swaps cannot cover the fee
    assert res.state == st.with_height(1)     # fully rolled back
    assert total_supply(res.state) == pre_supply


def test_sender_agnostic_flags_match_behaviour():
    state = two_pool_state()
    assert sender_agnostic_witness(state, AMM1, "swap", (0,), Wallet({"T0": 2})) is None
    assert sender_agnostic_witness(state, AMM1, "getRate", ("T0",)) is None

    gated = build({M: {}}, [
        ("gated_faucet", "C0", {"token": "T", "amount": 5, "expected_sender": "C1"},
         {"T": 5}),
        ("chained_faucet", "C1", {"dep": "C0", "token": "T", "amount": 5}, {}),
    ])
    assert not gated.codes[Account.contract("C0")].sender_agnostic
    witness = sender_agnostic_witness(gated, Account.contract("C0"), "f")
    assert witness is not None and "senders" in witness


def test_reading_the_height_needs_the_declaration():
    def peek(c):
        c.require(c.height() >= 0)

    undeclared = ContractCode(name="Clock", methods={"peek": MethodDef(peek)})
    declared = dataclasses.replace(undeclared, reads_height=True)
    peek_tx = Transaction(M, Account.contract("Clock"), "peek")
    start = genesis({M: Wallet()}, adversary=[M])
    assert execute(deploy(start, declared, deployer=A), peek_tx).valid
    with pytest.raises(ContractBugError,
                       match="^Clock reads the block height without declaring reads_height$"):
        execute(deploy(start, undeclared, deployer=A), peek_tx)


def test_calls_must_be_listed_in_calls_out():
    """``calls_out`` is the one declaration of call edges: the dependency set
    is derived from it, and a call to an unlisted dependency or to an
    unlisted method of a listed one is a contract bug, not a rollback."""
    base = ContractCode(name="Base", methods={"f": MethodDef(lambda c: 1),
                                              "g": MethodDef(lambda c: 2)})

    def caller(method, dep="Base"):
        return ContractCode(name="Caller",
                            methods={"run": MethodDef(lambda c: c.call(dep, method))},
                            calls_out=frozenset({("Base", "f")}))

    assert caller("f").declared_deps == frozenset({"Base"})
    start = deploy(deploy(genesis({M: Wallet()}, adversary=[M]), base, deployer=A),
                   ContractCode(name="Other", methods={"f": MethodDef(lambda c: 3)}),
                   deployer=A)
    run = Transaction(M, Account.contract("Caller"), "run")
    assert execute(deploy(start, caller("f"), deployer=A), run).valid
    with pytest.raises(ContractBugError,
                       match="^Caller calls Base.g, which its calls_out does not list$"):
        execute(deploy(start, caller("g"), deployer=A), run)
    with pytest.raises(ContractBugError,
                       match="^Caller calls Other.f, which its calls_out does not list$"):
        execute(deploy(start, caller("f", dep="Other"), deployer=A), run)


GHOST = Account.contract("Ghost")   # never deployed


def _leaky_state(abort_after: bool):
    """A contract holding 1 T whose ``leak`` pays it to the undeployed Ghost,
    then aborts when ``abort_after``."""
    def leak(c):
        c.pay(GHOST, 1, "T")
        c.require(not abort_after)

    leaky = ContractCode(name="Leaky", methods={"leak": MethodDef(leak)})
    start = genesis({A: Wallet({"T": 1})}, adversary=[M])
    return deploy(start, leaky, Wallet({"T": 1}), deployer=A)


LEAK_ENTRIES = {
    "execute": execute,
    "execute_delta": lambda st, tx: execute_delta(st, tx, ((M,),), {"T": 1}),
    "execute_delta-advance": lambda st, tx: execute_delta(st, tx, ((M,),), {"T": 1},
                                                          advance=True),
    "probe_call": lambda st, tx: probe_call(st, tx.origin, tx.origin, tx.callee, tx.method),
}


@pytest.mark.parametrize("abort_after", (False, True))
@pytest.mark.parametrize("entry", sorted(LEAK_ENTRIES))
def test_tokens_sent_to_an_undeployed_contract_are_a_contract_bug(entry, abort_after):
    """Tokens move only between users and deployed contracts: a pay to an
    undeployed contract is a catalog bug, whichever entry runs it, even in a
    frame that then aborts."""
    state = _leaky_state(abort_after)
    with pytest.raises(ContractBugError, match="^tokens sent to undeployed Ghost$"):
        LEAK_ENTRIES[entry](state, Transaction(M, Account.contract("Leaky"), "leak"))


def test_transactions_are_equal_by_their_fields():
    again = Transaction(M, AMM1, "swap", (0,), Wallet({"T0": 3}))
    assert again == SWAP1 and hash(again) == hash(SWAP1) and again is not SWAP1
    assert SWAP1 != SWAP2
    fields = (M, AMM1, "swap", (0,), Wallet({"T0": 3}))
    assert SWAP1 != fields and fields != SWAP1
    assert hash(SWAP1) == hash(fields)


def test_a_transaction_key_is_built_once():
    tx = Transaction(M, AMM1, "swap", (0,), Wallet({"T0": 3}))
    assert tx.key() is tx.key()
    assert tx.key() == ("M", "AMM1", "swap", ((2, 0),), (("T0", 3),))
    assert tx.label() == "M:AMM1.swap(?3:T0, 0)"
    assert Transaction(M, AMM1, TICK_METHOD).label() == "M:AMM1.__tick__()"


@pytest.mark.parametrize("call", ((TICK_METHOD, ()), ("getRate", ("T",))))
def test_a_move_that_moves_no_wallet_changes_no_wealth(call):
    state = bet_state()
    amm = Account.contract("AMM")
    changes, nxt = execute_delta(state, Transaction(M, amm, *call), ((M,), (amm,)),
                                 {"ETH": 1, "T": 1}, advance=True)
    assert changes == (0, 0)
    assert nxt.core_key() == state.core_key() and nxt.height == state.height + 1


# --- the checks the executor's fast path keeps ----------------------------------


def test_a_transaction_is_signed_by_a_user_to_a_contract():
    with pytest.raises(ValueError, match="^transaction origin must be a user account$"):
        Transaction(AMM2, AMM1, "swap")
    with pytest.raises(ValueError, match="^transaction callee must be a contract account$"):
        Transaction(M, A, "swap")


def test_a_key_keeps_every_scalar_kind_apart():
    """A bool keys apart from the int it equals, and a tuple argument keys
    its items."""
    tx = Transaction(M, AMM1, "f", (True, 1, None, "s", Fraction(1, 2), A, (1, 2)))
    assert tx.key() == ("M", "AMM1", "f",
                        ((1, 1), (2, 1), (0, 0), (4, "s"), (3, Fraction(1, 2)),
                         (5, ("user", "A")), (6, ((2, 1), (2, 2)))), ())


PAYER = Account.contract("Payer")


def _payer_state():
    """A contract holding 2 T whose ``pay(amount, token)`` pays its origin."""
    def pay(c):
        c.pay(c.origin, c.arg(0), c.arg(1))

    payer = ContractCode(name="Payer", methods={"pay": MethodDef(pay)})
    start = genesis({A: Wallet({"T": 2})}, adversary=[M])
    return deploy(start, payer, Wallet({"T": 2}), deployer=A)


@pytest.mark.parametrize("amount", (True, -1, Fraction(1, 2)), ids=repr)
def test_a_bad_pay_amount_is_a_contract_bug(amount):
    with pytest.raises(ContractBugError, match=f"^bad transfer amount {re.escape(repr(amount))}$"):
        execute(_payer_state(), Transaction(M, PAYER, "pay", (amount, "T")))


def test_a_pay_in_a_non_str_token_is_a_type_error():
    with pytest.raises(TypeError, match="^token symbol must be str, got 7$"):
        execute(_payer_state(), Transaction(M, PAYER, "pay", (1, 7)))


def test_a_zero_pay_records_nothing_and_an_overdraft_rolls_back():
    state = _payer_state()
    for token in ("T", 7):
        sc, frame = probe_call(state, M, M, PAYER, "pay", (0, token))
        assert frame == (None, ()) and sc.w == {}
    sc, frame = probe_call(state, M, M, PAYER, "pay", (2, "T"))
    assert frame[1] == ((M, Wallet({"T": 2})),)
    res = execute(state, Transaction(M, PAYER, "pay", (3, "T")))
    assert not res.valid and res.state == state.with_height(1)


def test_a_moved_token_without_a_price_is_a_key_error():
    with pytest.raises(KeyError, match="no price for token 'T'"):
        execute_delta(_payer_state(), Transaction(M, PAYER, "pay", (1, "T")), ((M,),),
                      {"ETH": 1})


@pytest.mark.parametrize("callee", ("Later", "Self"))
def test_a_call_to_a_contract_not_deployed_earlier_is_a_contract_bug(callee):
    """``deploy`` refuses both orders, so the states are built by hand: a
    contract calling one deployed after it, and one calling itself."""
    def run(c):
        return c.call(callee, "f")

    codes = {"Self": ContractCode(name="Self", methods={"run": MethodDef(run),
                                                        "f": MethodDef(lambda c: 1)},
                                  calls_out=frozenset({("Self", "f")})),
             "Early": ContractCode(name="Early", methods={"run": MethodDef(run)},
                                   calls_out=frozenset({("Later", "f")})),
             "Later": ContractCode(name="Later", methods={"f": MethodDef(lambda c: 1)})}
    names = ("Self",) if callee == "Self" else ("Early", "Later")
    order = tuple(Account.contract(n) for n in names)
    state = BlockchainState({M: Wallet()}, {acc: ContractState() for acc in order}, order,
                            {acc: codes[acc.name] for acc in order}, adversary=[M])
    caller = order[0]
    with pytest.raises(ContractBugError,
                       match=f"^{caller} calls {callee}, which is not deployed earlier$"):
        execute(state, Transaction(M, caller, "run"))
