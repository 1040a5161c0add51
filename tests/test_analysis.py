import io

import pytest
from contextlib import redirect_stdout
from fractions import Fraction

from mevscope import (
    REGISTRY,
    Account,
    ContractCode,
    MethodDef,
    SearchBudget,
    Transaction,
    Wallet,
    contract_independent,
    deploy,
    epsilon_composable,
    genesis,
    intok_outtok,
    nonint,
    richnonint,
    stable_wrt_adversary,
    strip,
    structural_battery,
    token_independent,
    verify_stripping,
    without_contracts,
)
from mevscope import analysis, search
from mevscope.analysis import _observations
from mevscope.cli import main as cli_main
from mevscope.scenario import build_state, bundled, load_bundled, scenario_path
from mevscope.search import rich_state

from helpers import M, A, bet_state, build, two_pool_state, uniform_prices

BUDGET = SearchBudget(max_depth=4, grid=8)
PRICES3 = uniform_prices(("T0", "T1", "T2"))
AMM1, AMM2 = Account.contract("AMM1"), Account.contract("AMM2")


class TestStrip:
    def test_strip_independent_pool(self):
        state = two_pool_state()
        stripped = strip(state, {AMM2})
        assert stripped.order == (AMM2,)
        assert stripped.contracts[AMM2] == state.contracts[AMM2]

    def test_strip_keeps_the_oracle_dependency(self):
        state = bet_state()
        stripped = strip(state, {Account.contract("Bet")})
        assert stripped.order == (Account.contract("AMM"), Account.contract("Bet"))

    def test_strip_drops_the_forwarder(self):
        state, _ = build_state(load_bundled("faucet_forwarder.scn"))
        stripped = strip(state, {Account.contract("C0")})
        assert stripped.order == (Account.contract("C0"),)

    def test_strip_is_idempotent_and_well_formed(self):
        from mevscope import check_well_formed
        state = bet_state()
        once = strip(state, {Account.contract("Bet")})
        assert strip(once, {Account.contract("Bet")}) == once
        assert check_well_formed(once)


class TestTokenSets:
    def test_airdrop_has_no_inputs(self):
        st = build({M: {}}, [("airdrop", "Drop", {"token": "T"}, {"T": 1})])
        ins, outs = intok_outtok(st, {Account.contract("Drop")})
        assert ins == frozenset() and outs == frozenset({"T"})

    def test_exchange_directions(self):
        st = build({M: {"T": 1}}, [("exchange", "Ex", {"tout": "ETH", "tin": "T",
                                                       "rate": 10}, {"ETH": 10})])
        ins, outs = intok_outtok(st, {Account.contract("Ex")})
        assert ins == frozenset({"T"}) and outs == frozenset({"ETH"})

    def test_empty_fragment(self):
        assert intok_outtok(two_pool_state(), set()) == (frozenset(), frozenset())

    def test_airdrop_vs_matching_exchange_not_independent(self):
        state, _ = build_state(load_bundled("airdrop_feeds_exchange.scn"))
        assert not token_independent(state, {Account.contract("Drop")},
                                     {Account.contract("Exchange")})

    def test_disjoint_pools_are_independent(self):
        st = build({M: {}}, [
            ("amm", "AMM1", {"t0": "T0", "t1": "T1"}, {"T0": 2, "T1": 2}),
            ("amm", "AMM2", {"t0": "T2", "t1": "T3"}, {"T2": 2, "T3": 2}),
        ])
        assert token_independent(st, {AMM1}, {AMM2})
        assert token_independent(st, set(), {AMM2})


class TestContractIndependence:
    def test_pools_are_independent(self):
        st, _ = build_state(load_bundled("compositions/row1_amm_amm.scn"))
        assert contract_independent(st, {AMM1}, {AMM2})

    def test_bet_depends_on_its_oracle(self):
        state = bet_state()
        assert not contract_independent(state, {Account.contract("AMM")},
                                        {Account.contract("Bet")})

    def test_empty_fragment_is_independent(self):
        assert contract_independent(two_pool_state(), {AMM1}, set())


class TestStability:
    def test_fixed_rate_oracle_is_stable(self):
        state, delta, prices = bundled("compositions/row3_bet_on_exchange.scn")
        status, witness = stable_wrt_adversary(
            rich_state(state, prices.tokens(), BUDGET, 1), {Account.contract("Exchange")},
            delta, BUDGET)
        assert status == "stable" and witness is None

    def test_pool_oracle_is_unstable_with_a_swap_witness(self):
        state = rich_state(bet_state(), ("ETH", "T"), BUDGET, 1)
        status, witness = stable_wrt_adversary(
            state, {Account.contract("AMM")}, {Account.contract("Bet")}, BUDGET)
        assert status == "unstable"
        assert witness and witness[-1].callee == Account.contract("AMM")
        assert witness[-1].method == "swap"

    @pytest.mark.parametrize("wealthy", (False, True))
    def test_probe_state_cap_gives_unknown(self, monkeypatch, wealthy):
        from mevscope import analysis
        state, delta, prices = bundled("bet_on_amm_oracle.scn")
        if wealthy:
            state = rich_state(state, prices.tokens(), BUDGET, 1)
        args = (state, state.deployed - delta, delta, BUDGET)
        assert stable_wrt_adversary(*args)[0] == "unstable"
        monkeypatch.setattr(analysis, "PROBE_STATE_CAP", 1)
        assert stable_wrt_adversary(*args) == ("unknown", None)

    def test_no_dependency_channel_is_trivially_stable(self):
        st, _ = build_state(load_bundled("compositions/row1_amm_amm.scn"))
        status, _ = stable_wrt_adversary(st, {AMM1}, {AMM2}, BUDGET)
        assert status == "stable"

    def test_a_height_reading_context_is_probed_after_a_tick(self):
        """A context whose probe reads the height changes what the subject
        observes with one tick, though the tick changes nothing else."""
        clock = ContractCode(name="Clock",
                             methods={"now": MethodDef(lambda c: c.height_reached(1))},
                             height_thresholds=(1,), probes=(("now",),))
        status, witness = stable_wrt_adversary(*_context_and_reader(clock),
                                               SearchBudget(max_depth=3))
        assert status == "unstable"
        assert [tx.label() for tx in witness] == ["M:Clock.__tick__()"]

    def test_a_context_that_changes_after_two_moves_is_unstable(self):
        """The subject's observation of ``Ctr.get`` changes only on the
        second ``bump``: the probe must search past its first ply."""
        def bump(c):
            c.put("n", c.store("n") + 1)

        counter = ContractCode(
            name="Ctr", constructor=lambda c: c.put("n", 0),
            methods={"bump": MethodDef(bump),
                     "get": MethodDef(lambda c: 1 if c.store("n") >= 2 else 0)},
            move_generator=lambda state, acc, budget: (("bump",),), probes=(("get",),))
        status, witness = stable_wrt_adversary(*_context_and_reader(counter),
                                               SearchBudget(max_depth=3))
        assert status == "unstable"
        assert [tx.label() for tx in witness] == ["M:Ctr.bump()", "M:Ctr.bump()"]


def _context_and_reader(context: ContractCode) -> tuple:
    """(state, context, subject): ``context`` deployed, then a subject
    ``Reader`` whose one method calls the context's first probe method."""
    method = context.probes[0][0]
    reader = ContractCode(name="Reader", calls_out=frozenset({(context.name, method)}),
                          methods={"read": MethodDef(lambda c: c.call(context.name, method))})
    state = deploy(deploy(genesis({}, adversary=[M]), context, deployer=A), reader, deployer=A)
    return state, {context.account}, {reader.account}


PROBER = Account.user("__prober__")


def _probe_observations(name: str, contract: str) -> dict:
    """{(method, args, attached): (valid, return value, transfers)} of the
    stability probes of ``contract`` in the bundled scenario ``name``."""
    state, _, _ = bundled(name)
    acc = Account.contract(contract)
    watched = [Transaction(PROBER, acc, *call) for call in state.codes[acc].probes]
    return {(tx.method, tx.args, tx.attached): tuple(rest)
            for tx, *rest in _observations(state, watched)}


class TestObservations:
    def test_an_aborting_probe_observes_nothing(self):
        obs = _probe_observations("compositions/row7_lp_arbitrage.scn", "LP")
        assert obs[("borrow", (1,), Wallet())] == (False, None, ())
        assert obs[("repay", (), Wallet({"T0": 1}))] == (False, None, ())

    def test_a_completed_probe_reports_its_return_value_and_transfers(self):
        obs = _probe_observations("airdrop_feeds_exchange.scn", "Exchange")
        assert obs[("getRate", ("T",), Wallet())] == (True, 10, ())
        assert obs[("swap", (), Wallet({"T": 1}))] \
            == (True, None, ((PROBER, Wallet({"ETH": 10})),))

    def test_a_failed_final_check_keeps_the_frame_transfers(self):
        """``flashLoan(1)`` completes but is never repaid: the observation is
        invalid, yet it still reports the loan paid to the prober."""
        obs = _probe_observations("compositions/row7_lp_arbitrage.scn", "LP")
        assert obs[("flashLoan", (1,), Wallet())] \
            == (False, None, ((PROBER, Wallet({"T0": 1})),))
        assert obs[("getToken", (), Wallet())] == (True, "T0", ())


class TestVerdicts:
    def test_independent_airdrop_holds(self):
        state, delta, prices = bundled("airdrop_beside_amm.scn")
        v = nonint(state, delta, prices, BUDGET)
        assert v.holds is True and v.justification == "contract-independent"

    def test_bet_over_pool_is_interfering(self):
        state, delta, prices = bundled("bet_on_amm_oracle.scn")
        v = nonint(state, delta, prices, BUDGET)
        assert v.holds is False
        assert (v.lhs_value, v.rhs_value) == (10, 0)
        assert v.witness

    def test_epsilon_on_the_mutex_pair(self):
        state, delta, prices = bundled("mutex_vaults.scn")
        v0 = epsilon_composable(state, delta, Fraction(0), prices, BUDGET)
        assert v0.holds is True and (v0.lhs_value, v0.rhs_value) == (1, 1)

    def test_epsilon_rejects_negative_epsilon(self):
        state, delta, prices = bundled("mutex_vaults.scn")
        with pytest.raises(ValueError):
            epsilon_composable(state, delta, Fraction(-1), prices, BUDGET)

    def test_unknown_requires_no_conditions_and_no_completeness(self):
        # two pools sharing tokens: no condition fires, equality at budget is
        # reported as unknown rather than a certified holds
        state, delta, prices = bundled("compositions/row1_amm_amm.scn")
        budget = SearchBudget(max_depth=2, grid=2)
        v = nonint(state, delta, prices, budget)
        assert v.holds in (None, False)  # never a certified holds without grounds


class TestStripping:
    def test_identity_strip_verifies(self):
        state = bet_state(adversary_eth=0)
        rep = verify_stripping(state, state.deployed, None,
                               uniform_prices(("ETH", "T")),
                               SearchBudget(max_depth=3, grid=8))
        assert rep.status == "verified"

    @pytest.mark.parametrize("name, ladders", (
        ("bet_on_amm_oracle.scn", 1),   # the bet's closure is every contract
        ("two_amms.scn", 2),            # the observed pool's closure is itself
    ))
    def test_a_strip_that_keeps_every_contract_reuses_the_full_ladder(self, name, ladders,
                                                                       monkeypatch):
        """``strip-check`` runs ``search.rlmev`` once when ``strip`` keeps
        every contract, since the stripped ladder is then the full one, and
        twice when it drops one."""
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return search.rlmev(*args)

        monkeypatch.setattr(analysis, "rlmev", counted)
        with redirect_stdout(io.StringIO()):
            assert cli_main(["strip-check", str(scenario_path(name))]) == 0
        assert calls[0] == ladders

    def test_forwarder_hypothesis_not_met_with_value_gap(self):
        state, _ = build_state(load_bundled("faucet_forwarder.scn"))
        c0, c1 = Account.contract("C0"), Account.contract("C1")
        rep = verify_stripping(state, {c0}, {c1}, uniform_prices(("T",)), BUDGET)
        assert rep.status == "hypothesis-not-met"
        assert (rep.full_value, rep.stripped_value) == (5, 0)

    def test_a_sender_gated_boundary_contract_fails_the_hypothesis(self):
        """The gated faucet C0 pays only the chained faucet C1, which calls
        it: observing C0 strips C1, the one route to its payout, so C0 is a
        boundary contract that is not sender-agnostic and stripping may
        change the value (here 5 to 0)."""
        state, _ = build_state(load_bundled("gated_faucet_pair.scn"))
        rep = verify_stripping(state, {Account.contract("C0")}, None,
                               uniform_prices(("T",)), BUDGET)
        assert rep.status == "hypothesis-not-met"
        assert rep.reason == "boundary contracts not sender-agnostic: ['C0']"
        assert (rep.full_value, rep.stripped_value) == (5, 0)

    def test_router_stack_with_unrelated_pools_strips_cleanly(self):
        state, delta, prices = bundled("compositions/row6_best_swap_router.scn")
        # extra pools nobody depends on
        state = deploy(state, REGISTRY["amm"].make("X1", t0="T0", t1="T1"), deployer=A)
        state = deploy(state, REGISTRY["amm"].make("X2", t0="T2", t1="T3"), deployer=A)
        rep = verify_stripping(state, delta, None, prices, BUDGET)
        assert rep.status == "verified"
        v_full = richnonint(state, delta, prices, BUDGET)
        v_stripped = richnonint(strip(state, delta), delta, prices, BUDGET)
        assert v_full.outcome == v_stripped.outcome == "holds"

    def test_adversary_deployed_wrapper_cannot_flip_a_verdict(self):
        state, delta, prices = bundled("compositions/row1_amm_amm.scn")
        base = richnonint(state, delta, prices, BUDGET)
        context = without_contracts(state, delta)
        context = deploy(context, REGISTRY["best_swap"].make("AdvWrap", c0="AMM1", c1="AMM1"),
                         deployer=M)
        funded = dict(context.users)
        funded[A] = context.user_wallet(A) + Wallet({"T0": 9, "T1": 4})
        context = context.with_users(funded)
        extended = deploy(context, REGISTRY["amm"].make("AMM2", t0="T0", t1="T1"),
                          attached=Wallet({"T0": 9, "T1": 4}), deployer=A)
        again = richnonint(extended, delta, prices, BUDGET)
        assert base.outcome == again.outcome == "holds"


def test_structural_battery_all_rows_pass():
    report = structural_battery(BUDGET)
    assert report.passed, [r for r in report.rows if not r.passed]
    kinds = {r.row: r.kind for r in report.rows}
    assert kinds["union-subjects"] == "counterexample"
    assert kinds["zero-mev-union"] == "law"


class TestJustificationSoundness:
    """A verdict decided by a sufficient condition is never contradicted by
    the direct search at a comparable budget."""

    def test_stable_oracle_row_agrees_with_search(self):
        from mevscope import rlmev
        state, delta, prices = bundled("compositions/row3_bet_on_exchange.scn")
        assert richnonint(state, delta, prices, BUDGET).justification == "stable"
        u = rlmev(state, delta, None, prices, BUDGET)
        r = rlmev(state, delta, delta, prices, BUDGET)
        assert u.value == r.value == 10

    def test_independent_pools_row_agrees_with_search(self):
        from mevscope import rlmev
        state, delta, prices = bundled("compositions/row1_amm_amm.scn")
        assert richnonint(state, delta, prices, BUDGET).justification \
            == "contract-independent"
        budget = SearchBudget(max_depth=3, grid=8)
        u = rlmev(state, delta, None, prices, budget)
        r = rlmev(state, delta, delta, prices, budget)
        assert u.value == r.value


class TestRichVsFixedWealth:
    """The wealth-independent verdict coincides with the fixed-wealth one at
    large enough adversary wallets."""

    def _at_wallet(self, state, delta, prices, scale):
        from mevscope.search import rich_state
        rich = rich_state(state, prices.tokens(), BUDGET, scale)
        return nonint(rich, delta, prices, BUDGET)

    def test_violation_shows_up_at_some_rung(self):
        state, delta, prices = bundled("cell_gated_vault.scn")
        assert richnonint(state, delta, prices, BUDGET).holds is False
        assert self._at_wallet(state, delta, prices, 1).holds is False

    def test_holding_verdict_holds_at_the_plateau_wallet(self):
        state, _, prices = bundled("once_cell_droppers.scn")
        alone = without_contracts(state, {Account.contract("Drop2")})
        delta = {Account.contract("Drop1")}
        assert richnonint(alone, delta, prices, BUDGET).holds is True
        v = self._at_wallet(alone, delta, prices, 1)
        assert v.holds is not False and v.lhs_value in (None, Fraction(3))


# Every field of the depth-3 verdicts on each bundled scenario: (scenario,
# relation, outcome, justification, unrestricted, restricted, witness labels,
# complete, note).  Frozen so that the decision path of both relations,
# including which sufficient condition fired and its note, cannot drift.
PINNED_VERDICTS = (
    ('airdrop_beside_amm.scn', 'nonint', 'holds', 'contract-independent', None, None,
     (), False, 'token and contract independent'),
    ('airdrop_beside_amm.scn', 'richnonint', 'holds', 'contract-independent', None, None,
     (), False, 'disjoint dependency cones'),
    ('airdrop_feeds_exchange.scn', 'nonint', 'violated', 'counterexample', '9', '0',
     ('M:Drop.withdraw()', 'M:Exchange.swap(?1:T)'), False, ''),
    ('airdrop_feeds_exchange.scn', 'richnonint', 'holds', 'contract-independent', None, None,
     (), False, 'disjoint dependency cones'),
    ('bet_on_amm_oracle.scn', 'nonint', 'violated', 'counterexample', '10', '0',
     ('M:AMM.swap(?300:ETH, 0)', 'M:Bet.bet(?10:ETH)', 'M:Bet.win()'), False, ''),
    ('bet_on_amm_oracle.scn', 'richnonint', 'violated', 'counterexample', '10', '0',
     ('M:AMM.swap(?300:ETH, 0)', 'M:Bet.bet(?10:ETH)', 'M:Bet.win()'), False, ''),
    ('cell_gate.scn', 'nonint', 'violated', 'counterexample', '1', '0',
     ('M:X.set(1)', 'M:C.f()'), False, ''),
    ('cell_gate.scn', 'richnonint', 'violated', 'counterexample', '1', '0',
     ('M:X.set(1)', 'M:C.f()'), False, ''),
    ('cell_gate_proxy.scn', 'nonint', 'holds', 'direct-search', '1', '1',
     (), True, ''),
    ('cell_gate_proxy.scn', 'richnonint', 'holds', 'direct-search', '1', '1',
     (), True, ''),
    ('cell_gated_vault.scn', 'nonint', 'holds', 'stable', None, None,
     (), False, 'token independent and context stable'),
    ('cell_gated_vault.scn', 'richnonint', 'violated', 'counterexample', '100', '0',
     ('M:C.set(?1:T)', 'M:D.f()'), False, ''),
    ('exchange_round_trip.scn', 'nonint', 'unknown', 'direct-search', '0', '0',
     (), False, 'no gap found within budget'),
    ('exchange_round_trip.scn', 'richnonint', 'holds', 'contract-independent', None, None,
     (), False, 'disjoint dependency cones'),
    ('faucet_forwarder.scn', 'nonint', 'holds', 'zero-mev', '0', None,
     (), True, 'nothing extractable from the new contracts'),
    ('faucet_forwarder.scn', 'richnonint', 'holds', 'zero-mev', '0', None,
     (), True, 'nothing extractable from the new contracts'),
    ('gated_faucet_pair.scn', 'nonint', 'holds', 'stable', None, None,
     (), False, 'token independent and context stable'),
    ('gated_faucet_pair.scn', 'richnonint', 'holds', 'stable', None, None,
     (), False, 'context observations unchanged by adversary moves'),
    ('mutex_vaults.scn', 'nonint', 'violated', 'counterexample', '1', '0',
     ('M:C1.f2()', 'M:C2.g()'), False, ''),
    ('mutex_vaults.scn', 'richnonint', 'violated', 'counterexample', '1', '0',
     ('M:C1.f2()', 'M:C2.g()'), False, ''),
    ('once_cell_droppers.scn', 'nonint', 'violated', 'counterexample', '4', '3',
     ('M:Var.set(1)', 'M:Drop1.drop2()', 'M:Drop2.drop2()'), False, ''),
    ('once_cell_droppers.scn', 'richnonint', 'violated', 'counterexample', '4', '3',
     ('M:Var.set(1)', 'M:Drop1.drop2()', 'M:Drop2.drop2()'), False, ''),
    ('relay_chain.scn', 'nonint', 'violated', 'counterexample', '99', '0',
     ('M:C0.f()', 'M:C1.f(?5:T0)', 'M:C2.f(?1:T1)'), False, ''),
    ('relay_chain.scn', 'richnonint', 'holds', 'contract-independent', None, None,
     (), False, 'disjoint dependency cones'),
    ('two_amms.scn', 'nonint', 'violated', 'counterexample', '1', '0',
     ('M:AMM1.swap(?3:T0, 0)', 'M:AMM2.swap(?2:T1, 0)'), False, ''),
    ('two_amms.scn', 'richnonint', 'holds', 'contract-independent', None, None,
     (), False, 'disjoint dependency cones'),
    ('compositions/row1_amm_amm.scn', 'nonint', 'unknown', 'direct-search', '0', '0',
     (), False, 'no gap found within budget'),
    ('compositions/row1_amm_amm.scn', 'richnonint', 'holds', 'contract-independent', None, None,
     (), False, 'disjoint dependency cones'),
    ('compositions/row2_bet_on_amm.scn', 'nonint', 'unknown', 'direct-search', '0', '0',
     (), False, 'no gap found within budget'),
    ('compositions/row2_bet_on_amm.scn', 'richnonint', 'violated', 'counterexample', '10', '0',
     ('M:AMM.swap(?300:ETH, 0)', 'M:Bet.bet(?10:ETH)', 'M:Bet.win()'), False, ''),
    ('compositions/row3_bet_on_exchange.scn', 'nonint', 'unknown', 'direct-search', '0', '0',
     (), False, 'no gap found within budget'),
    ('compositions/row3_bet_on_exchange.scn', 'richnonint', 'holds', 'stable', None, None,
     (), False, 'context observations unchanged by adversary moves'),
    ('compositions/row4_best_swap.scn', 'nonint', 'holds', 'zero-mev', '0', None,
     (), True, 'nothing extractable from the new contracts'),
    ('compositions/row4_best_swap.scn', 'richnonint', 'holds', 'zero-mev', '0', None,
     (), True, 'nothing extractable from the new contracts'),
    ('compositions/row5_swap_router.scn', 'nonint', 'holds', 'zero-mev', '0', None,
     (), True, 'nothing extractable from the new contracts'),
    ('compositions/row5_swap_router.scn', 'richnonint', 'holds', 'zero-mev', '0', None,
     (), True, 'nothing extractable from the new contracts'),
    ('compositions/row6_best_swap_router.scn', 'nonint', 'holds', 'zero-mev', '0', None,
     (), True, 'nothing extractable from the new contracts'),
    ('compositions/row6_best_swap_router.scn', 'richnonint', 'holds', 'zero-mev', '0', None,
     (), True, 'nothing extractable from the new contracts'),
    ('compositions/row7_lp_arbitrage.scn', 'nonint', 'holds', 'zero-mev', '0', None,
     (), True, 'nothing extractable from the new contracts'),
    ('compositions/row7_lp_arbitrage.scn', 'richnonint', 'holds', 'zero-mev', '0', None,
     (), True, 'nothing extractable from the new contracts'),
    ('compositions/row8_flash_loan_arbitrage.scn', 'nonint', 'holds', 'zero-mev', '0', None,
     (), True, 'nothing extractable from the new contracts'),
    ('compositions/row8_flash_loan_arbitrage.scn', 'richnonint', 'holds', 'zero-mev', '0', None,
     (), True, 'nothing extractable from the new contracts'),
)


@pytest.mark.parametrize("row", PINNED_VERDICTS,
                         ids=lambda r: f"{r[1]}-{r[0].rsplit('/', 1)[-1]}")
def test_bundled_verdicts_are_pinned(row):
    name, relation, *want = row
    state, delta, prices = bundled(name)
    decide = {"nonint": nonint, "richnonint": richnonint}[relation]
    v = decide(state, delta, prices, SearchBudget(max_depth=3))
    got = [v.outcome, v.justification,
           None if v.lhs_value is None else str(v.lhs_value),
           None if v.rhs_value is None else str(v.rhs_value),
           tuple(tx.label() for tx in v.witness or ()), v.complete, v.note]
    assert got == want
