"""Value types for an account-based token ledger.

Token amounts are arbitrary-precision non-negative integers and prices are
exact rationals, so every aggregate figure (wealth, gain, extractable value)
is exact and golden-value equality tests are bit-stable.  A ``PriceMap``
also carries each price as an integer number of units of
``1 / prices.scale``: ``wealth_units`` sums those plain ints, which is what
the search compares and adds, and ``wealth`` divides by the scale once.

Wallets are normalised: zero balances are pruned, which makes state equality
canonical.  The search layer relies on that when memoising on state keys.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

Token = str

USER = "user"
CONTRACT = "contract"


class Account(tuple):
    """A named account, the pair ``(kind, name)``.  User and contract
    namespaces are disjoint.

    An account is a tuple so that the hashing and ordering which every state
    dict, overlay and memo key lookup does run in C: ``hash(acc) ==
    hash((kind, name))``, and accounts sort by ``(kind, name)``.  There is
    one shared object per kind and name, however it is built (the
    constructor, ``Account.user`` or ``Account.contract``), so dicts and key
    comparisons find accounts by identity, and equality is identity: an
    account never equals a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, kind: str, name: str) -> "Account":
        if kind not in (USER, CONTRACT):
            raise ValueError(f"bad account kind: {kind!r}")
        if not name:
            raise ValueError("empty account name")
        shared = _SHARED[kind]
        acc = shared.get(name)
        if acc is None:
            acc = shared[name] = tuple.__new__(cls, (kind, name))
        return acc

    kind = property(operator.itemgetter(0))
    name = property(operator.itemgetter(1))

    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    __hash__ = tuple.__hash__

    @staticmethod
    def user(name: str) -> "Account":
        acc = _SHARED[USER].get(name)
        return acc if acc is not None else Account(USER, name)

    @staticmethod
    def contract(name: str) -> "Account":
        acc = _SHARED[CONTRACT].get(name)
        return acc if acc is not None else Account(CONTRACT, name)

    @property
    def is_user(self) -> bool:
        return self[0] == USER

    @property
    def is_contract(self) -> bool:
        return self[0] == CONTRACT

    def __str__(self) -> str:
        return self[1]

    def __repr__(self) -> str:
        return f"Account(kind={self[0]!r}, name={self[1]!r})"


# kind -> name -> the shared Account of that kind and name
_SHARED: dict = {USER: {}, CONTRACT: {}}


# Scalars that may appear in transaction arguments, contract stores and
# method return values.
Scalar = Union[int, bool, str, None, Fraction, Account, tuple]


class Wallet:
    """Immutable multiset of tokens.  Absent token == balance zero."""

    __slots__ = ("_d", "_items")

    def __init__(self, amounts: Union[Mapping[Token, int], Iterable[tuple]] = ()):
        d: dict = {}
        # a tuple of pairs, as the move enumerator passes, or a dict skips
        # the Python-level ABC check that other Mappings need
        kind = type(amounts)
        if kind is dict or (kind is not tuple and isinstance(amounts, Mapping)):
            amounts = amounts.items()
        for tok, n in amounts:
            if not isinstance(tok, str):
                raise TypeError(f"token symbol must be str, got {tok!r}")
            if not isinstance(n, int) or isinstance(n, bool):
                raise TypeError(f"token amount must be int, got {n!r}")
            if n < 0:
                raise ValueError(f"negative balance {n} for {tok}")
            if n:
                d[tok] = d.get(tok, 0) + n
        self._d = d
        self._items: Optional[tuple] = None

    @classmethod
    def _from_clean(cls, d: dict) -> "Wallet":
        # internal fast path: d already validated and zero-pruned
        w = cls.__new__(cls)
        w._d = d
        w._items = None
        return w

    @staticmethod
    def single(token: Token, amount: int) -> "Wallet":
        # the checks of __init__, without its general loop; the one pair is
        # its own sorted ``items()``
        if not isinstance(token, str):
            raise TypeError(f"token symbol must be str, got {token!r}")
        if not isinstance(amount, int) or isinstance(amount, bool):
            raise TypeError(f"token amount must be int, got {amount!r}")
        if amount < 0:
            raise ValueError(f"negative balance {amount} for {token}")
        if not amount:
            return EMPTY_WALLET
        w = Wallet.__new__(Wallet)
        w._d = {token: amount}
        w._items = ((token, amount),)
        return w

    def get(self, token: Token) -> int:
        return self._d.get(token, 0)

    def items(self) -> tuple:
        if self._items is None:
            self._items = tuple(sorted(self._d.items()))
        return self._items

    def tokens(self) -> tuple:
        return tuple(sorted(self._d))

    def as_dict(self) -> dict:
        return dict(self._d)

    def __bool__(self) -> bool:
        return bool(self._d)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Wallet) and self._d == other._d

    def __hash__(self) -> int:
        return hash(self.items())

    def __add__(self, other: "Wallet") -> "Wallet":
        if not other._d:
            return self
        d = dict(self._d)
        for tok, n in other._d.items():
            d[tok] = d.get(tok, 0) + n
        return Wallet._from_clean(d)

    def covers(self, other: "Wallet") -> bool:
        """This wallet holds at least ``other``, token by token."""
        d = self._d
        for tok, n in other._d.items():
            if d.get(tok, 0) < n:
                return False
        return True

    def pretty(self) -> str:
        if not self._d:
            return "0"
        return "+".join(f"{n}:{t}" for t, n in self.items())

    def __repr__(self) -> str:
        return f"Wallet({dict(self.items())!r})"


EMPTY_WALLET = Wallet()


@dataclass(frozen=True)
class PriceMap:
    """Strictly positive exact-rational price per token type.

    ``scale`` is the least common multiple of the price denominators and
    ``units[token]`` is the token's price times ``scale``, a positive int.
    """

    prices: tuple
    scale: int = field(init=False, repr=False, compare=False)
    units: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for tok, p in self.prices:
            if not isinstance(p, Fraction) or p <= 0:
                raise ValueError(f"price of {tok} must be a positive Fraction")
        scale = math.lcm(*(p.denominator for _, p in self.prices))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "units", {
            t: p.numerator * (scale // p.denominator) for t, p in self.prices})

    def tokens(self) -> tuple:
        return tuple(t for t, _ in self.prices)


class ContractState:
    """(wallet, key-value store) pair for one deployed contract."""

    __slots__ = ("wallet", "store", "_key")

    def __init__(self, wallet: Wallet = EMPTY_WALLET, store: Mapping[str, Scalar] = ()):
        self.wallet = wallet
        self.store = dict(store)
        self._key: Optional[tuple] = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.wallet.items(), tuple(sorted(self.store.items())))
        return self._key

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ContractState)
            and self.wallet == other.wallet
            and self.store == other.store
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"ContractState({self.wallet.pretty()}, {self.store!r})"


class BlockchainState:
    """Immutable snapshot: user wallets, ordered contract states, height.

    ``order`` is the deployment order; it must linearise the contract
    dependency relation (checked by the executor on deploy).  ``adversary``
    is the designated set of attacker user accounts.

    Canonical form: ``users`` contains exactly the users with a non-empty
    wallet plus all adversary accounts.
    """

    __slots__ = ("users", "contracts", "order", "codes", "height", "adversary", "_core")

    def __init__(
        self,
        users: Mapping[Account, Wallet],
        contracts: Mapping[Account, ContractState],
        order: tuple,
        codes: Mapping[Account, object],
        height: int = 0,
        adversary: Iterable[Account] = (),
    ):
        adv = frozenset(adversary)
        for a in adv:
            if not a.is_user:
                raise ValueError(f"adversary must be a user account: {a!r}")
        norm = {}
        for a, w in users.items():
            if not a.is_user:
                raise ValueError(f"user wallet keyed by non-user account: {a!r}")
            if w or a in adv:
                norm[a] = w
        for a in adv:
            norm.setdefault(a, EMPTY_WALLET)
        if set(contracts) != set(order):
            raise ValueError("contract map and deployment order disagree")
        if height < 0:
            raise ValueError("negative block height")
        self.users = norm
        self.contracts = dict(contracts)
        self.order = tuple(order)
        self.codes = dict(codes)
        self.height = height
        self.adversary = adv
        self._core: Optional[tuple] = None

    # -- accessors ---------------------------------------------------------

    def user_wallet(self, acc: Account) -> Wallet:
        return self.users.get(acc, EMPTY_WALLET)

    def contract_state(self, acc: Account) -> ContractState:
        return self.contracts[acc]

    @property
    def deployed(self) -> frozenset:
        return frozenset(self.order)

    # -- keys / equality ----------------------------------------------------

    def core_key(self) -> tuple:
        """Canonical key of everything except the block height and
        ``codes``.  Keys, and so equality and hashes, tell states apart only
        within one deployment: two states whose contracts share names,
        wallets and stores but run different code compare equal."""
        if self._core is None:
            self._core = (
                tuple(sorted((a, w.items()) for a, w in self.users.items() if w)),
                tuple((a, self.contracts[a].key()) for a in self.order),
                tuple(sorted(self.adversary)),
            )
        return self._core

    def key(self) -> tuple:
        """``core_key()`` and the height: everything but ``codes``."""
        return (self.core_key(), self.height)

    def __eq__(self, other: object) -> bool:
        """Equal keys; ``codes`` is not compared (see ``core_key``)."""
        return isinstance(other, BlockchainState) and self.key() == other.key()

    def __hash__(self) -> int:
        """The hash of ``key()``, so ``codes`` is left out too."""
        return hash(self.key())

    # -- functional updates --------------------------------------------------

    @staticmethod
    def _trusted(users: dict, contracts: dict, order: tuple, codes: dict,
                 height: int, adversary: frozenset) -> "BlockchainState":
        # internal fast path: the parts are already canonical (as the
        # constructor would leave them) and are shared, not copied
        s = BlockchainState.__new__(BlockchainState)
        s.users = users
        s.contracts = contracts
        s.order = order
        s.codes = codes
        s.height = height
        s.adversary = adversary
        s._core = None
        return s

    def with_height(self, height: int) -> "BlockchainState":
        s = BlockchainState._trusted(self.users, self.contracts, self.order,
                                     self.codes, height, self.adversary)
        s._core = self._core
        return s

    def with_users(self, users: Mapping[Account, Wallet]) -> "BlockchainState":
        return BlockchainState(users, self.contracts, self.order, self.codes,
                               self.height, self.adversary)

    def __repr__(self) -> str:
        users = " | ".join(f"{a}[{w.pretty()}]" for a, w in sorted(self.users.items()))
        contracts = " | ".join(
            f"{a}[{self.contracts[a].wallet.pretty()}]" for a in self.order
        )
        return f"<state h={self.height} {users} | {contracts}>"


def genesis(
    users: Mapping[Account, Wallet],
    adversary: Iterable[Account] = (),
    height: int = 0,
) -> BlockchainState:
    """A contract-less starting state; contracts are added by ``vm.deploy``."""
    return BlockchainState(users, {}, (), {}, height, adversary)


def wealth_units(accounts: Iterable[Account], state: BlockchainState,
                 prices: PriceMap) -> int:
    """``wealth`` times ``prices.scale``: an exact int, summed in price units.

    Accounts absent from the state contribute zero.
    """
    units = prices.units
    total = 0
    for acc in accounts:
        if acc.kind == USER:
            w = state.users.get(acc)
        else:
            cs = state.contracts.get(acc)
            w = cs.wallet if cs is not None else None
        if not w:
            continue
        for tok, n in w._d.items():
            u = units.get(tok)
            if u is None:
                raise KeyError(f"no price for token {tok!r}")
            total += n * u
    return total


def wealth(accounts: Iterable[Account], state: BlockchainState,
           prices: PriceMap) -> Fraction:
    """Price-weighted token total held by ``accounts`` in ``state``, as a
    Fraction.  Accounts absent from the state contribute zero."""
    return Fraction(wealth_units(accounts, state, prices), prices.scale)


def total_supply(state: BlockchainState) -> Wallet:
    """Per-token unit totals across every wallet in the state."""
    acc = contract_holdings(state)
    for w in state.users.values():
        acc = acc + w
    return acc


def contract_holdings(state: BlockchainState) -> Wallet:
    """Per-token unit totals across contract wallets only."""
    acc = Wallet()
    for cs in state.contracts.values():
        acc = acc + cs.wallet
    return acc
