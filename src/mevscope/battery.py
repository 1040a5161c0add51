"""Structural-property battery for the wealth-independent relation.

Each row checks one closure law or known counterexample of the relation
"context does not interfere with the new fragment, for any adversary
wealth": extending or erasing context is safe (under sender-agnostic
boundaries), while extending the subject fragment, cutting it, or unioning
two separately-safe fragments is not.  Laws are checked on concrete catalog
instances; counterexample rows must actively falsify the naive implication.
Rows 1, 2, 4 and 6 load their base instances from the bundled scenarios
``compositions/row1_amm_amm.scn``, ``cell_gate_proxy.scn``, ``cell_gate.scn``
and ``once_cell_droppers.scn``; the extended variants are inline documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .analysis import richnonint, without_contracts
from .ledger import Account
from .scenario import build_state, bundled, parse_scenario
from .search import SearchBudget, rlmev


@dataclass(frozen=True)
class BatteryRow:
    row: str
    claim: str
    kind: str        # "law" | "counterexample"
    passed: bool
    detail: str


@dataclass(frozen=True)
class BatteryReport:
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _state(doc: dict, name: str) -> tuple:
    """(state, fragment, prices) of an inline scenario document."""
    scn = parse_scenario(json.dumps(doc), name)
    return (*build_state(scn), scn.prices())


def _doc(tokens, users, deployments, split) -> dict:
    return {
        "tokens": [{"symbol": t, "price": 1} for t in tokens],
        "users": users,
        "deployments": deployments,
        "split": split,
    }


_ADV = [{"name": "M", "adversary": True}, {"name": "A"}]


def _amm(name, t0, t1, f0, f1):
    return {"contract": "amm", "name": name, "args": {"t0": t0, "t1": t1},
            "fund": {t0: f0, t1: f1}, "by": "A"}


def _appended_pools(f0, f1, f2, f3) -> dict:
    """Pools AMM1 and AMM2 over T0/T1, funded (f0, f1) and (f2, f3), with an
    adversary-deployed wrapper AdvWrap over AMM1 between them; the fragment
    is AMM2."""
    return _doc(["T0", "T1"], _ADV,
                [_amm("AMM1", "T0", "T1", f0, f1),
                 {"contract": "best_swap", "name": "AdvWrap",
                  "args": {"c0": "AMM1", "c1": "AMM1"}, "by": "M"},
                 _amm("AMM2", "T0", "T1", f2, f3)], 2)


# the faucet F, unrelated to the gate fragment: the cell X, the gated drop C
# over it and the proxy Fwd
_FAUCET, _CELL, _GATE, _PROXY = (
    {"contract": "faucet", "name": "F",
     "args": {"token": "TF", "amount": 5}, "fund": {"TF": 5}, "by": "A"},
    {"contract": "cell", "name": "X", "by": "A"},
    {"contract": "gated_drop", "name": "C",
     "args": {"cell": "X", "token": "T"}, "fund": {"T": 1}, "by": "A"},
    {"contract": "cell_proxy", "name": "Fwd", "args": {"cell": "X"}, "by": "A"},
)


def structural_battery(budget: SearchBudget = SearchBudget(),
                       seed: int = 0) -> BatteryReport:
    rng = random.Random(seed)
    rows = []

    def law(row, claim, ok, detail=""):
        rows.append(BatteryRow(row, claim, "law", ok, detail))

    def cex(row, claim, ok, detail=""):
        rows.append(BatteryRow(row, claim, "counterexample", ok, detail))

    # 1. appending context after the fact cannot break a safe deployment
    #    (the appended contracts may even be adversary-deployed wrappers)
    v_plain = richnonint(*bundled("compositions/row1_amm_amm.scn"), budget)
    v_ext = richnonint(*_state(_appended_pools(6, 6, 9, 4), "battery-append-2"), budget)
    law("append-context", "safe stays safe when contracts are appended before the fragment",
        v_plain.holds is True and v_ext.holds is True,
        f"plain={v_plain.outcome}/{v_plain.justification}, "
        f"extended={v_ext.outcome}/{v_ext.justification}")

    # 2. prepending unrelated context cannot break a safe deployment
    v_gate = richnonint(*bundled("cell_gate_proxy.scn"), budget)
    prepended = _doc(["T", "TF"], _ADV, [_FAUCET, _CELL, _GATE, _PROXY], 2)
    v_pre = richnonint(*_state(prepended, "battery-prepend"), budget)
    law("prepend-context", "safe stays safe under earlier unrelated contracts",
        v_gate.holds is True and v_pre.holds is True,
        f"plain={v_gate.outcome}, prepended={v_pre.outcome}")

    # 3. erasing unrelated context preserves safety (cut F back out of row 2);
    #    checked for context added before and after the fragment's dependency
    law("erase-context", "safe stays safe when unrelated context is removed",
        v_pre.holds is True and v_gate.holds is True,
        f"with context={v_pre.outcome}, without={v_gate.outcome}")
    between = _doc(["T", "TF"], _ADV, [_CELL, _FAUCET, _GATE, _PROXY], 2)
    v_between = richnonint(*_state(between, "battery-between"), budget)
    law("erase-late-context", "safe stays safe when later unrelated context is removed",
        v_between.holds is True and v_gate.holds is True,
        f"with context={v_between.outcome}, without={v_gate.outcome}")

    # 4. extending the subject fragment is NOT safe: the empty fragment is
    #    trivially non-interfering, adding the gated vault breaks it
    stc, dc, pc = bundled("cell_gate.scn")   # fragment {C}
    v_empty = richnonint(stc, frozenset(), pc, budget)
    v_c = richnonint(stc, dc, pc, budget)
    cex("extend-subject", "adding contracts to a safe fragment can interfere",
        v_empty.holds is True and v_c.holds is False,
        f"empty fragment={v_empty.outcome}, extended={v_c.outcome} "
        f"({v_c.lhs_value} vs {v_c.rhs_value})")

    # 5. cutting the subject fragment is NOT safe: gate+proxy is fine,
    #    the gate alone is not
    cex("cut-subject", "removing contracts from a safe fragment can interfere",
        v_gate.holds is True and v_c.holds is False,
        f"gate+proxy={v_gate.outcome}, gate alone={v_c.outcome}")

    # 6. two separately safe fragments may interfere when deployed together
    std, _, pd = bundled("once_cell_droppers.scn")
    d1, d2 = Account.contract("Drop1"), Account.contract("Drop2")
    v1 = richnonint(without_contracts(std, {d2}), {d1}, pd, budget)
    v2 = richnonint(without_contracts(std, {d1}), {d2}, pd, budget)
    vpair = richnonint(std, {d1, d2}, pd, budget)
    cex("union-subjects", "two separately safe fragments can interfere jointly",
        v1.holds is True and v2.holds is True and vpair.holds is False,
        f"singles={v1.outcome}/{v2.outcome}, pair={vpair.outcome} "
        f"({vpair.lhs_value} vs {vpair.rhs_value})")

    # 7. even sequential safe deployments do not compose: the first check is
    #    row 6's first single
    v_then = richnonint(std, {d2}, pd, budget)
    cex("sequential-deploy", "checking each deployment in sequence still misses joint interference",
        v1.holds is True and v_then.holds is True and vpair.holds is False,
        f"first={v1.outcome}, second-in-context={v_then.outcome}, pair={vpair.outcome}")

    # 8. union IS safe when the added fragment has nothing to extract
    union_doc = _doc(["ETH", "T", "TA"],
                     _ADV + [{"name": "B"}], [
        {"contract": "exchange", "name": "Exchange",
         "args": {"tout": "T", "tin": "ETH", "rate": 5},
         "fund": {"T": 50}, "by": "B"},
        {"contract": "bet", "name": "Bet",
         "args": {"oracle": "Exchange", "token": "T", "rate": 3, "deadline": 1000},
         "fund": {"ETH": 10}, "by": "A"},
        {"contract": "airdrop", "name": "Empty", "args": {"token": "TA"}, "by": "A"},
    ], 1)
    stl, _, pl = _state(union_doc, "battery-zero-union")
    bet, empty = Account.contract("Bet"), Account.contract("Empty")
    v_bet = richnonint(without_contracts(stl, {empty}), {bet}, pl, budget)
    zero = rlmev(stl, {empty}, None, pl, budget)
    v_union = richnonint(stl, {bet, empty}, pl, budget)
    law("zero-mev-union", "a safe fragment stays safe when joined with a zero-value one",
        v_bet.holds is True and zero.value == Fraction(0) and zero.complete
        and v_union.holds is True,
        f"base={v_bet.outcome}, added value={zero.value}, union={v_union.outcome}")

    # 9. seeded sweep of rule 1 across random pool fundings, with the extra
    #    context deployed by the adversary itself
    outcomes = []
    for _ in range(5):
        doc = _appended_pools(*[rng.randint(2, 9) for _ in range(4)])
        outcomes.append(richnonint(*_state(doc, "battery-random-append"), budget).holds is True)
    law("append-context-random", "rule 1 holds across randomized pool fundings",
        all(outcomes), f"{sum(outcomes)}/5 random instances safe (seed {seed})")

    return BatteryReport(tuple(rows))
