"""Scenario files: declarative fixtures for analysis runs.

A scenario is a JSON document (conventionally ``*.scn``) describing tokens
with prices, users with wallets, an ordered list of catalog deployments and
a split index partitioning the deployments into an existing context and a
newly deployed fragment.  Deployment funding is setup, not a traced
transaction: the loader mints the funding to the deployer right before each
deployment, so the finished state shows exactly the declared wallets.

Example::

    {
      "tokens": [{"symbol": "T0", "price": 1}, {"symbol": "T1", "price": 1}],
      "users": [{"name": "M", "wallet": {"T0": 3}, "adversary": true}],
      "deployments": [
        {"contract": "amm", "name": "AMM1",
         "args": {"t0": "T0", "t1": "T1"}, "fund": {"T0": 6, "T1": 6}}
      ],
      "split": 1
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import catalog
from .ledger import Account, PriceMap, Wallet, genesis
from .vm import DeployError, WellFormednessError, deploy


class ScenarioError(ValueError):
    """Scenario file rejected; the message names the violated constraint."""


@dataclass(frozen=True)
class Deployment:
    contract: str          # catalog key
    name: str              # instance name
    args: tuple            # sorted (param, value) pairs
    fund: Wallet
    by: str                # deployer user name

    def args_dict(self) -> dict:
        return dict(self.args)


@dataclass(frozen=True)
class Scenario:
    name: str
    tokens: tuple          # ((symbol, Fraction price), ...)
    users: tuple           # ((name, Wallet, adversary flag), ...)
    deployments: tuple
    split: int             # deployments[:split] form the context
    block_height: int = 0
    ceiling: Optional[int] = None

    def prices(self) -> PriceMap:
        return PriceMap(tuple(sorted(self.tokens)))


def _parse_rational(v, where: str) -> Fraction:
    if isinstance(v, bool):
        raise ScenarioError(f"{where}: expected a number, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ScenarioError(f"{where}: bad rational {v!r}") from None
    raise ScenarioError(f"{where}: expected int or 'p/q' string, got {v!r}")


def _parse_wallet(v, tokens, where: str) -> Wallet:
    if v is None:
        return Wallet()
    if not isinstance(v, dict):
        raise ScenarioError(f"{where}: wallet must be an object")
    for tok, n in v.items():
        if tok not in tokens:
            raise ScenarioError(f"{where}: unknown token {tok!r}")
        if not _is_int(n) or n < 0:
            raise ScenarioError(f"{where}: amount for {tok} must be a non-negative int")
    return Wallet(v)


def _check_fields(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown fields {sorted(unknown)}")


def _list(doc: dict, field: str, name: str) -> list:
    v = doc.get(field, [])
    if not isinstance(v, list):
        raise ScenarioError(f"{name}: {field} must be a list")
    return v


def _is_int(v) -> bool:
    # JSON true / false are Python bools, which are ints
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_name(d: dict, field: str, where: str, default=None) -> str:
    v = d.get(field, default)
    if not isinstance(v, str) or not v:
        raise ScenarioError(f"{where}: {field} must be a non-empty string, got {v!r}")
    return v


def parse_scenario(text: str, name: str = "<scenario>") -> Scenario:
    if not text.strip():
        raise ScenarioError(f"{name}: empty scenario file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{name}: parse error at line {e.lineno}, column {e.colno}: "
                            f"{e.msg}") from None
    except ValueError as e:
        # e.g. an integer literal past the interpreter's digit limit
        raise ScenarioError(f"{name}: parse error: {e}") from None
    except RecursionError:
        raise ScenarioError(f"{name}: parse error: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{name}: top level must be an object")
    _check_fields(doc, {"tokens", "users", "deployments", "split", "block_height",
                        "ceiling", "comment"}, name)

    tokens = []
    for i, t in enumerate(_list(doc, "tokens", name)):
        where = f"{name}: tokens[{i}]"
        if not isinstance(t, dict) or "symbol" not in t:
            raise ScenarioError(f"{where}: expected an object with a symbol")
        _check_fields(t, {"symbol", "price"}, where)
        sym = _parse_name(t, "symbol", where)
        price = _parse_rational(t.get("price", 1), where)
        if price <= 0:
            raise ScenarioError(f"{where}: price must be positive")
        tokens.append((sym, price))
    symbols = [s for s, _ in tokens]
    if len(set(symbols)) != len(symbols):
        raise ScenarioError(f"{name}: duplicate token symbols")
    token_set = set(symbols)

    users = []
    for i, u in enumerate(_list(doc, "users", name)):
        where = f"{name}: users[{i}]"
        if not isinstance(u, dict) or "name" not in u:
            raise ScenarioError(f"{where}: expected an object with a name")
        _check_fields(u, {"name", "wallet", "adversary"}, where)
        adversary = u.get("adversary", False)
        if not isinstance(adversary, bool):
            raise ScenarioError(f"{where}: adversary must be a boolean, got {adversary!r}")
        users.append((_parse_name(u, "name", where),
                      _parse_wallet(u.get("wallet"), token_set, where), adversary))
    names = [n for n, _, _ in users]
    if len(set(names)) != len(names):
        raise ScenarioError(f"{name}: duplicate user names")

    deployments = []
    for i, d in enumerate(_list(doc, "deployments", name)):
        where = f"{name}: deployments[{i}]"
        if not isinstance(d, dict):
            raise ScenarioError(f"{where}: expected an object")
        _check_fields(d, {"contract", "name", "args", "fund", "by"}, where)
        missing = {"contract", "name"} - set(d)
        if missing:
            raise ScenarioError(f"{where}: missing fields {sorted(missing)}")
        contract = _parse_name(d, "contract", where)
        if contract not in catalog.REGISTRY:
            raise ScenarioError(f"{where}: unknown catalog name {contract!r}")
        args = d.get("args", {})
        if not isinstance(args, dict):
            raise ScenarioError(f"{where}: args must be an object")
        deployments.append(Deployment(
            contract, _parse_name(d, "name", where), tuple(sorted(args.items())),
            _parse_wallet(d.get("fund"), token_set, where),
            _parse_name(d, "by", where, "deployer"),
        ))
    dnames = [d.name for d in deployments]
    if len(set(dnames)) != len(dnames):
        raise ScenarioError(f"{name}: duplicate instance names")
    if set(dnames) & set(names):
        raise ScenarioError(f"{name}: instance names collide with user names")

    split = doc.get("split", len(deployments))
    if not _is_int(split) or not (0 <= split <= len(deployments)):
        raise ScenarioError(f"{name}: split must be an int in 0..{len(deployments)}")
    height = doc.get("block_height", 0)
    if not _is_int(height) or height < 0:
        raise ScenarioError(f"{name}: block_height must be a non-negative int")
    ceiling = doc.get("ceiling")
    if ceiling is not None and (not _is_int(ceiling) or ceiling < 1):
        raise ScenarioError(f"{name}: ceiling must be a positive int")

    return Scenario(
        name=name,
        tokens=tuple(tokens),
        users=tuple(users),
        deployments=tuple(deployments),
        split=split,
        block_height=height,
        ceiling=ceiling,
    )


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"{p}: cannot read scenario: {e}") from None
    return parse_scenario(text, name=p.name)


def scenario_path(name: str) -> Path:
    """The bundled scenario ``name``, a path under ``mevscope/scenarios``."""
    return Path(__file__).parent / "scenarios" / name


def load_bundled(name: str) -> Scenario:
    return load_scenario(scenario_path(name))


def _coerce_arg(spec: catalog.ParamSpec, value, where: str) -> None:
    if spec.kind == "int":
        if not _is_int(value):
            raise ScenarioError(f"{where}: {spec.name} must be an int")
        # no catalog amount, rate, deadline or fee means anything below 0
        if value < 0:
            raise ScenarioError(f"{where}: {spec.name} must be a non-negative int")
    elif spec.kind in ("token", "contract", "user", "str"):
        if not isinstance(value, str):
            raise ScenarioError(f"{where}: {spec.name} must be a string")
        # an empty token or contract name fails its lookup below
        if not value and spec.kind in ("user", "str"):
            raise ScenarioError(f"{where}: {spec.name} must be a non-empty string")


def build_state(scn: Scenario) -> tuple:
    """Materialise a scenario.

    Returns (state, delta_accounts) where delta_accounts are the contracts
    deployed after the split.  Raises ScenarioError when a deployment is
    rejected (missing dependency, aborting constructor, bad arguments).
    """
    users = {Account.user(n): w for n, w, _ in scn.users}
    adversary = [Account.user(n) for n, _, a in scn.users if a]
    state = genesis(users, adversary, scn.block_height)

    deployed_names = set()
    for i, dep in enumerate(scn.deployments):
        where = f"{scn.name}: deployments[{i}] ({dep.name})"
        entry = catalog.REGISTRY[dep.contract]
        args = dep.args_dict()
        for spec in entry.params:
            if spec.name in args:
                _coerce_arg(spec, args[spec.name], where)
                if spec.kind == "contract" and args[spec.name] not in deployed_names:
                    raise ScenarioError(
                        f"{where}: dependency {args[spec.name]!r} is not deployed yet")
                if spec.kind == "token" and args[spec.name] not in {s for s, _ in scn.tokens}:
                    raise ScenarioError(f"{where}: unknown token {args[spec.name]!r}")
        try:
            code = entry.make(dep.name, **args)
        except (ValueError, KeyError) as e:
            raise ScenarioError(f"{where}: {e}") from None

        deployer = Account.user(dep.by)
        # funding is minted to the deployer as setup, then moved by deploy
        staged_users = dict(state.users)
        staged_users[deployer] = state.user_wallet(deployer) + dep.fund
        state = state.with_users(staged_users)
        try:
            state = deploy(state, code, attached=dep.fund, deployer=deployer)
        except (WellFormednessError, DeployError) as e:
            raise ScenarioError(f"{where}: {e}") from None
        deployed_names.add(dep.name)

    delta = frozenset(Account.contract(d.name) for d in scn.deployments[scn.split:])
    return state, delta


def bundled(name: str) -> tuple:
    """(state, fragment, prices) of the bundled scenario ``name``."""
    scn = load_bundled(name)
    return (*build_state(scn), scn.prices())
