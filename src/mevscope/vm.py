"""Deterministic execution semantics for the contract model.

A transaction is a user-signed call to one contract method, optionally
carrying attached tokens.  Execution is all-or-nothing: a failed guard, an
unfunded transfer, a call-depth overflow, an undeployed callee or a failed
deferred final check invalidates the whole transaction, which is then rolled
back.  Valid or not, each top-level transaction advances the block height by
exactly one; a method executing inside transaction ``i`` observes the height
left by transaction ``i - 1``.  A transaction naming ``TICK_METHOD`` is a
call with no body: it is valid whenever its callee is deployed and its
origin can pay the attachment, which is all it transfers.

Contracts may only call methods of contracts deployed before them, and only
the (dependency, method) pairs they declare, which keeps the call relation a
partial order and rules out reentrancy.  Methods cannot inspect other accounts
except through calls; the only way tokens move is attached transfers and
explicit pays, between users and deployed contracts (a credit to an
undeployed contract is a ``ContractBugError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .ledger import (
    CONTRACT,
    EMPTY_WALLET,
    USER,
    Account,
    BlockchainState,
    ContractState,
    Scalar,
    Token,
    Wallet,
)

MAX_CALL_DEPTH = 16

# A call with this method name runs no body, on any deployed contract: the
# search proposes it to advance the block height and change nothing else.
TICK_METHOD = "__tick__"


class Abort(Exception):
    """Raised inside method bodies to invalidate the enclosing transaction."""


class WellFormednessError(ValueError):
    """Deployment would break the dependency order or name uniqueness."""


class DeployError(ValueError):
    """Constructor aborted or the deployer could not fund the deployment."""


class ContractBugError(RuntimeError):
    """A catalog implementation broke a model rule (not a rollback)."""


def _scalar_key(v: Scalar) -> tuple:
    # total order over mixed-type scalars, for deterministic sorting; a
    # plain int, the commonest argument, is tested first
    if v.__class__ is int:
        return (2, v)
    if v is None:
        return (0, 0)
    if isinstance(v, bool):
        return (1, int(v))
    if isinstance(v, int):
        return (2, v)
    if isinstance(v, Fraction):
        return (3, v)
    if isinstance(v, str):
        return (4, v)
    if isinstance(v, Account):
        return (5, (v.kind, v.name))
    if isinstance(v, tuple):
        return (6, tuple([_scalar_key(x) for x in v]))
    raise TypeError(f"unsupported scalar: {v!r}")


def _fmt_scalar(v: Scalar) -> str:
    if isinstance(v, Account):
        return v.name
    return repr(v) if isinstance(v, str) else str(v)


class Transaction:
    """``origin:callee.method(args)`` with tokens attached by the origin.

    Slotted, and its ``key()`` is built once: the search signs, dedupes,
    sorts and span-cuts every move by that key.  Transactions are equal, and
    hash alike, when their fields are; treat them as immutable.
    """

    __slots__ = ("origin", "callee", "method", "args", "attached", "_key")

    def __init__(self, origin: Account, callee: Account, method: str, args: tuple = (),
                 attached: Wallet = EMPTY_WALLET):
        if origin[0] != USER:
            raise ValueError("transaction origin must be a user account")
        if callee[0] != CONTRACT:
            raise ValueError("transaction callee must be a contract account")
        self.origin = origin
        self.callee = callee
        self.method = method
        self.args = args
        self.attached = attached
        self._key: Optional[tuple] = None

    def _fields(self) -> tuple:
        return (self.origin, self.callee, self.method, self.args, self.attached)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Transaction:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def key(self) -> tuple:
        key = self._key
        if key is None:
            args = self.args
            key = self._key = (
                self.origin[1],
                self.callee[1],
                self.method,
                tuple([_scalar_key(a) for a in args]) if args else (),
                self.attached.items(),
            )
        return key

    def label(self) -> str:
        parts = []
        if self.attached:
            parts.append("?" + self.attached.pretty())
        parts.extend(_fmt_scalar(a) for a in self.args)
        return f"{self.origin}:{self.callee}.{self.method}({', '.join(parts)})"

    def __repr__(self) -> str:
        return f"<tx {self.label()}>"


def trace_key(trace: Sequence[Transaction]) -> tuple:
    return tuple(tx.key() for tx in trace)


# --- method metadata ---------------------------------------------------------
#
# Each method carries a declarative signature used by the exhaustive move
# enumerator (and, independently, by test oracles).  The executor itself only
# needs ``fn``.

@dataclass(frozen=True)
class ArgSpec:
    kind: str            # "int" | "token" | "account" | "choice"
    choices: tuple = ()  # only for kind "choice"

    def domain(self, tokens: Sequence[Token], accounts: Sequence[Account], ceiling: int):
        if self.kind == "choice":
            return self.choices
        if self.kind == "int":
            return tuple(range(ceiling + 1))
        if self.kind == "token":
            return tuple(tokens)
        if self.kind == "account":
            return tuple(accounts)
        raise ValueError(self.kind)


@dataclass(frozen=True)
class AttachSpec:
    tokens: Optional[tuple] = None   # None: any scenario token
    amounts: Optional[tuple] = None  # None: 0..ceiling

    def combos(self, tokens: Sequence[Token], ceiling: int):
        toks = self.tokens if self.tokens is not None else tuple(tokens)
        amts = self.amounts if self.amounts is not None else tuple(range(ceiling + 1))
        for t in toks:
            for n in amts:
                yield (t, n)


@dataclass(frozen=True, eq=False)
class MethodDef:
    fn: Callable
    args: tuple = ()     # tuple[ArgSpec, ...]
    attach: tuple = ()   # tuple[AttachSpec, ...]


def _unit(units: Mapping[Token, int], token: Token) -> int:
    u = units.get(token)
    if u is None:
        raise KeyError(f"no price for token {token!r}")
    return u


def wealth_bound(cs: ContractState, units: Mapping[Token, int], plies: Optional[int] = None,
                 *, adversary: frozenset = frozenset(), called: bool = True) -> int:
    """The default ``loss_bound``: a contract can lose at most what it holds,
    however few transactions are left."""
    return sum(n * _unit(units, tok) for tok, n in cs.wallet.items())


@dataclass(frozen=True, eq=False)
class ContractCode:
    """Behaviour of one contract: methods, dependencies and search metadata.

    A method is named by its key in ``methods``.  ``constructor`` is the
    plain function ``deploy`` calls with the new contract's ``MethodCtx``;
    it has no signature, since the move enumerator reads only ``methods``.

    ``move_generator(state, acc, budget)`` proposes candidate adversary
    calls ``(method[, args[, attached]])`` to this contract, whose account
    is ``acc``; the search sends each of them from every adversary account
    whose wallet covers the attachment (a call its origin cannot pay is
    rejected at the debit anyway).  It may read any contract's state (it is
    engine metadata, not contract code, so the no-inspection rule does not
    apply to it), but never a user wallet: a richer adversary gets the same
    proposals, and so every move a poorer one gets, which ``search.rlmev``
    relies on.  It is called only while this contract is deployed, so it
    reads its own state unguarded; a dependency's state it must look up
    first.  ``intok_decl`` /
    ``outtok_decl`` are declared over-approximations of the receivable /
    sendable token sets; ``None`` means "unknown, assume every token".
    ``calls_out`` lists the (dependency name, method) pairs the contract's
    code may invoke; it is the one declaration of call edges, so
    ``declared_deps`` (the dependency names) is derived from it, and a call
    to a pair it does not list is a contract bug.  ``probes`` are
    the stability check's observation calls, in the move generator's shape.

    ``loss_bound(cs, units, plies=None, *, adversary=frozenset(),
    called=True)`` is the most this contract can still lose from its state
    ``cs``, in the integer price units ``units`` gives per token (as
    ``PriceMap.units``), over any trace of at most ``plies`` adversary
    transactions (None: of any length).  ``adversary`` is the set of
    accounts that sign those transactions, and ``called`` is False only
    when no deployed contract's ``calls_out`` names this one, so every
    call into it is a transaction's own.  It may depend on these arguments
    alone, must never decrease as ``plies`` grows (None being the largest),
    and must never be exceeded: the search stops expanding a node once its
    best trace reaches the bounds built from it, and skips a move whose
    next state's bounds cannot beat the node's best.  The defaults give the
    any-trace answer.  The default bound is the contract's wealth.
    """

    name: str
    methods: Mapping[str, MethodDef]
    constructor: Optional[Callable] = None
    sender_agnostic: bool = True
    intok_decl: Optional[frozenset] = frozenset()
    outtok_decl: Optional[frozenset] = frozenset()
    reads_height: bool = False
    calls_out: frozenset = frozenset()
    move_generator: Optional[Callable] = None
    probes: tuple = ()   # tuple[(method[, args[, attached]])]
    loss_bound: Callable = wealth_bound
    declared_deps: frozenset = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "declared_deps",
                           frozenset(dep for dep, _ in self.calls_out))

    @property
    def account(self) -> Account:
        return Account.contract(self.name)


@dataclass(frozen=True)
class ExecResult:
    state: BlockchainState
    valid: bool


# --- scratch working copy -----------------------------------------------------


class _Scratch:
    """Copy-on-write overlay over a base state, mutated during one transaction."""

    __slots__ = ("base", "w", "st", "finals")

    def __init__(self, base: BlockchainState):
        self.base = base
        self.w: dict = {}    # Account -> dict[token, int], users and contracts
        self.st: dict = {}
        self.finals: list = []   # (contract Account, token, minimum)

    # wallet overlay

    def base_wallet(self, acc: Account) -> Wallet:
        """``acc``'s wallet in the base state.  Every credit reads it first,
        so this is where tokens sent to an undeployed contract are rejected:
        they may move only between users and deployed contracts."""
        cs = self.base.contracts.get(acc)
        if cs is not None:
            return cs.wallet
        if acc.is_contract:
            raise ContractBugError(f"tokens sent to undeployed {acc}")
        return self.base.users.get(acc, EMPTY_WALLET)

    def _wallet(self, acc: Account) -> dict:
        d = self.w.get(acc)
        if d is None:
            d = self.w[acc] = self.base_wallet(acc).as_dict()
        return d

    def store_of(self, acc: Account) -> dict:
        d = self.st.get(acc)
        if d is None:
            d = dict(self.base.contracts[acc].store)
            self.st[acc] = d
        return d

    def balance(self, acc: Account, token: Token) -> int:
        d = self.w.get(acc)
        if d is None:
            return self.base_wallet(acc).get(token)
        return d.get(token, 0)

    def credit(self, acc: Account, wallet: Wallet) -> None:
        if not wallet._d:
            return
        d = self._wallet(acc)
        for tok, n in wallet.items():
            d[tok] = d.get(tok, 0) + n

    def debit(self, acc: Account, wallet: Wallet) -> bool:
        if not wallet._d:
            return True
        d = self._wallet(acc)
        for tok, n in wallet.items():
            if d.get(tok, 0) < n:
                return False
        for tok, n in wallet.items():
            left = d[tok] - n
            if left:
                d[tok] = left
            else:
                del d[tok]
        return True

    def finals_hold(self) -> bool:
        """Every deferred final check registered so far holds."""
        for acc, token, minimum in self.finals:
            if self.balance(acc, token) < minimum:
                return False
        return True

    def unit_change(self, acc: Account, units: Mapping[Token, int]) -> int:
        """Wealth change of ``acc`` since the base state, in the integer
        price units ``units`` gives per token (as ``PriceMap.units``)."""
        d = self.w.get(acc)
        if d is None:
            return 0
        before = self.base_wallet(acc)
        total = 0
        for tok, n in d.items():
            diff = n - before.get(tok)
            if diff:
                total += diff * _unit(units, tok)
        for tok, n in before.items():
            if tok not in d:
                total -= n * _unit(units, tok)
        return total

    def freeze(self, height: int) -> BlockchainState:
        """The state the overlay describes.  It is built without
        re-validation: the base is canonical and the overlay keeps it so,
        except for user wallets emptied here, which are dropped.  An empty
        overlay gives the base at ``height``, sharing its parts."""
        base, st = self.base, self.st
        if not self.w and not st:
            return base.with_height(height)
        users, contracts = dict(base.users), dict(base.contracts)
        for acc, d in self.w.items():
            w = Wallet._from_clean({t: n for t, n in d.items() if n})
            if acc.is_user:
                if w or acc in base.adversary:
                    users[acc] = w
                else:
                    users.pop(acc, None)
            else:
                contracts[acc] = ContractState(w, st.get(acc, contracts[acc].store))
        for acc, s in st.items():
            if acc not in self.w:
                contracts[acc] = ContractState(contracts[acc].wallet, s)
        return BlockchainState._trusted(users, contracts, base.order, base.codes,
                                        height, base.adversary)


class MethodCtx:
    """Execution context handed to contract method bodies.

    This is the whole surface a method may touch: its own balance and store,
    its arguments and attached tokens, the transaction's ``origin``, its
    direct caller ``sender``, explicit token transfers, inner calls to
    declared dependencies, deferred final checks and the block height.
    ``depth`` is the frame's call depth, 1 for the outermost frame.
    """

    __slots__ = ("_sc", "origin", "sender", "depth", "self_acc", "args", "attached",
                 "_transfers")

    def __init__(self, sc: _Scratch, origin: Account, sender: Account, depth: int,
                 self_acc: Account, args: tuple, attached: Wallet):
        self._sc = sc
        self.origin = origin
        self.sender = sender
        self.depth = depth
        self.self_acc = self_acc
        self.args = args
        self.attached = attached
        self._transfers: list = []

    # guards

    def require(self, cond) -> None:
        if not cond:
            raise Abort()

    def abort(self) -> None:
        raise Abort()

    # arguments / attached tokens

    def arg(self, i: int) -> Scalar:
        if i >= len(self.args):
            raise Abort()
        return self.args[i]

    def arg_int(self, i: int) -> int:
        v = self.arg(i)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise Abort()
        return v

    def attached_single(self) -> tuple:
        """(token, amount) of a single-token attachment; aborts otherwise."""
        items = self.attached.items()
        if len(items) != 1:
            raise Abort()
        return items[0]

    # state access (own account only)

    def balance(self, token: Token) -> int:
        sc, acc = self._sc, self.self_acc
        d = sc.w.get(acc)
        if d is None:
            d = sc.base_wallet(acc)._d
        return d.get(token, 0)

    def store(self, key: str) -> Scalar:
        return self._sc.store_of(self.self_acc)[key]

    def put(self, key: str, value: Scalar) -> None:
        self._sc.store_of(self.self_acc)[key] = value

    def height(self) -> int:
        # the search keys its memo on the height only when a contract
        # declares that it reads it
        state = self._sc.base
        if not state.codes[self.self_acc].reads_height:
            raise ContractBugError(
                f"{self.self_acc} reads the block height without declaring reads_height"
            )
        return state.height

    # effects

    def pay(self, recipient: Account, amount: int, token: Token) -> None:
        if not isinstance(amount, int) or isinstance(amount, bool) or amount < 0:
            raise ContractBugError(f"bad transfer amount {amount!r}")
        if amount == 0:
            return
        w = Wallet.single(token, amount)
        sc = self._sc
        src = sc._wallet(self.self_acc)
        left = src.get(token, 0) - amount
        if left < 0:
            raise Abort()
        if left:
            src[token] = left
        else:
            del src[token]
        dst = sc._wallet(recipient)
        dst[token] = dst.get(token, 0) + amount
        self._transfers.append((recipient, w))

    def pay_sender(self, amount: int, token: Token) -> None:
        self.pay(self.sender, amount, token)

    def require_final_min(self, token: Token, minimum: int) -> None:
        self._sc.finals.append((self.self_acc, token, minimum))

    def call(self, callee_name: str, method: str, args: tuple = (),
             attach: Wallet = EMPTY_WALLET) -> Scalar:
        sc, state = self._sc, self._sc.base
        if (callee_name, method) not in state.codes[self.self_acc].calls_out:
            raise ContractBugError(
                f"{self.self_acc} calls {callee_name}.{method}, which its calls_out does not list"
            )
        callee = Account.contract(callee_name)
        if callee not in state.contracts:
            raise Abort()
        # the callee must come before the caller in the deployment order
        self_acc = self.self_acc
        for acc in state.order:
            if acc is self_acc:
                raise ContractBugError(
                    f"{self_acc} calls {callee_name}, which is not deployed earlier"
                )
            if acc is callee:
                break
        if self.depth + 1 > MAX_CALL_DEPTH:
            raise Abort()
        if not sc.debit(self.self_acc, attach):
            raise Abort()
        sc.credit(callee, attach)
        return _run_frame(sc, self.origin, self.self_acc, self.depth + 1, callee, method,
                          tuple(args), attach)[0]


def _run_frame(sc: _Scratch, origin: Account, sender: Account, depth: int,
               callee: Account, method: str, args: tuple, attached: Wallet) -> tuple:
    """Run one call frame: (its return value, the transfers it made itself)."""
    mdef = sc.base.codes[callee].methods.get(method)
    if mdef is None:
        raise Abort()
    mctx = MethodCtx(sc, origin, sender, depth, callee, args, attached)
    return mdef.fn(mctx), mctx._transfers


def _run_tx(state: BlockchainState, tx: Transaction) -> Optional[_Scratch]:
    """Run one top-level transaction on a scratch overlay of ``state``: the
    overlay, or None when the transaction is invalid (its changes are rolled
    back by being dropped).  A tick pays its attachment and runs no body."""
    origin, callee, method, attached = tx.origin, tx.callee, tx.method, tx.attached
    if callee not in state.contracts:
        return None
    sc = _Scratch(state)
    # an unknown method aborts in ``_run_frame``: it is invalid whether or
    # not the origin could pay the attachment
    if attached._d:
        if not sc.debit(origin, attached):
            return None
        sc.credit(callee, attached)
    if method == TICK_METHOD:
        return sc
    try:
        _run_frame(sc, origin, origin, 1, callee, method, tx.args, attached)
    except Abort:
        return None
    return sc if not sc.finals or sc.finals_hold() else None


def execute(state: BlockchainState, tx: Transaction) -> ExecResult:
    """Run one top-level transaction; invalidity rolls everything back.

    The block height advances by one either way.
    """
    sc = _run_tx(state, tx)
    if sc is None:
        return ExecResult(state.with_height(state.height + 1), False)
    return ExecResult(sc.freeze(state.height + 1), True)


def probe_call(state: BlockchainState, origin: Account, sender: Account, callee: Account,
               method: str, args: tuple = (), attached: Wallet = EMPTY_WALLET) -> tuple:
    """Run ``callee.method(args)`` as the outermost frame on a fresh overlay
    of ``state``, called by ``sender`` on behalf of ``origin``.

    The attachment is credited to the callee directly, emulating an
    already-paid caller, so the sender need not hold it: the stability
    probes send as a user, and the sender-agnostic check in
    ``tests/model_checks.py`` also as a deployed contract without code.  As
    in every run, a pay to an undeployed contract raises
    ``ContractBugError``.  Returns
    ``(overlay, frame)``: ``frame`` is None when the frame aborted, else (its
    return value, the transfers it made itself).  No final check runs;
    ``overlay.finals_hold()`` tells whether they would pass.
    """
    sc = _Scratch(state)
    sc.credit(callee, attached)
    try:
        ret, transfers = _run_frame(sc, origin, sender, 1, callee, method, tuple(args),
                                    attached)
    except Abort:
        return sc, None
    return sc, (ret, tuple(transfers))


def execute_delta(state: BlockchainState, tx: Transaction, groups: Sequence[Sequence[Account]],
                  units: Mapping[Token, int], advance: bool = False) -> Optional[tuple]:
    """``(changes, next state)``, or None when ``tx`` is invalid: the wealth
    change ``tx`` makes to each account group of ``groups``, in integer
    price units (``units`` as ``PriceMap.units``), and, only when
    ``advance``, the state after it (``execute(state, tx).state``; else None).

    Runs the same transaction body as ``execute`` and reads the changes off
    the overlay, so a caller that does not expand the next state never
    builds it.
    """
    sc = _run_tx(state, tx)
    if sc is None:
        return None
    nxt = sc.freeze(state.height + 1) if advance else None
    touched = sc.w
    if not touched:
        # the transaction touched no wallet, so every group's change is zero
        return (0,) * len(groups), nxt
    changes = []
    for group in groups:
        total = 0
        for acc in group:
            if acc in touched:
                total += sc.unit_change(acc, units)
        changes.append(total)
    return tuple(changes), nxt


def execute_trace(state: BlockchainState, trace: Sequence[Transaction]) -> ExecResult:
    """Left fold of ``execute``; invalid transactions roll back and the fold
    continues.  ``valid`` is True only when every transaction was valid."""
    all_valid = True
    for tx in trace:
        res = execute(state, tx)
        state = res.state
        all_valid = all_valid and res.valid
    return ExecResult(state, all_valid)


# --- deployment and well-formedness -------------------------------------------


def deploy(state: BlockchainState, code: ContractCode, attached: Wallet = EMPTY_WALLET,
           *, deployer: Account) -> BlockchainState:
    """Append a contract in deployment order and run its constructor.

    The deployer funds ``attached``.  Deployment is scenario setup, not a
    traced transaction: the block height does not advance.
    """
    acc = code.account
    if acc in state.contracts:
        raise WellFormednessError(f"contract name {code.name!r} already deployed")
    if any(u.name == code.name for u in state.users):
        raise WellFormednessError(f"name {code.name!r} already used by a user")
    deployed_names = {a.name for a in state.order}
    missing = sorted(code.declared_deps - deployed_names)
    if missing:
        raise WellFormednessError(
            f"contract {code.name!r} depends on undeployed {', '.join(missing)}"
        )
    if not deployer.is_user:
        raise ValueError("deployer must be a user account")

    staged = BlockchainState(
        state.users,
        {**state.contracts, acc: ContractState(EMPTY_WALLET, {})},
        state.order + (acc,),
        {**state.codes, acc: code},
        state.height,
        state.adversary,
    )
    sc = _Scratch(staged)
    if not sc.debit(deployer, attached):
        raise DeployError(f"deployer {deployer} cannot fund {attached.pretty()}")
    sc.credit(acc, attached)
    if code.constructor is not None:
        try:
            code.constructor(MethodCtx(sc, deployer, deployer, 1, acc, (), attached))
        except Abort:
            raise DeployError(f"constructor of {code.name!r} aborted") from None
    if not sc.finals_hold():
        raise DeployError(f"constructor of {code.name!r} failed a final check")
    return sc.freeze(state.height)


def deps(targets: Iterable[Account], state: BlockchainState) -> frozenset:
    """Reflexive-transitive closure of declared dependencies, downward-closed
    under the deployment order."""
    frontier = list(targets)
    seen = set()
    while frontier:
        acc = frontier.pop()
        if acc in seen:
            continue
        if acc not in state.contracts:
            raise ValueError(f"deps: {acc} is not deployed")
        seen.add(acc)
        for name in state.codes[acc].declared_deps:
            frontier.append(Account.contract(name))
    return frozenset(seen)


def check_well_formed(state: BlockchainState) -> bool:
    """Deployment order linearises the dependency relation, every dependency
    is present, and the adversary set is a set of user accounts (the finite
    tokens axiom holds by construction: balances are finite integers)."""
    seen: set = set()
    for acc in state.order:
        code = state.codes.get(acc)
        if code is None or code.name != acc.name:
            return False
        if not all(Account.contract(n) in seen for n in code.declared_deps):
            return False
        seen.add(acc)
    user_names = {u.name for u in state.users}
    if user_names & {a.name for a in state.order}:
        return False
    return all(a in state.users for a in state.adversary)
