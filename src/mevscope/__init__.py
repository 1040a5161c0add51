"""Extractable-value and composability analyzer for an account-based
contract model: a deterministic executor, a built-in contract catalog,
bounded adversarial search, and non-interference verdicts."""

from .analysis import (
    StrippingReport,
    Verdict,
    contract_independent,
    epsilon_composable,
    intok_outtok,
    nonint,
    richnonint,
    stable_wrt_adversary,
    strip,
    token_independent,
    verify_stripping,
    without_contracts,
)
from .battery import BatteryReport, BatteryRow, structural_battery
from .catalog import REGISTRY, CatalogEntry
from .ledger import (
    Account,
    BlockchainState,
    ContractState,
    PriceMap,
    Token,
    Wallet,
    genesis,
    total_supply,
    wealth,
    wealth_units,
)
from .scenario import Scenario, ScenarioError, build_state, load_scenario, parse_scenario
from .search import (
    MevResult,
    SearchBudget,
    adversary_moves,
    global_mev,
    lmev,
    rlmev,
    stability_probe,
    universal_moves,
)
from .vm import (
    Abort,
    ContractCode,
    DeployError,
    ExecResult,
    MethodDef,
    Transaction,
    WellFormednessError,
    check_well_formed,
    deploy,
    deps,
    execute,
    execute_trace,
    probe_call,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
