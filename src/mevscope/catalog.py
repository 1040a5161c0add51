"""Built-in contract catalog.

Each entry builds a ``ContractCode`` from named parameters: token symbols,
integer constants and the instance names of already-deployed dependencies.
Parameters are checked once, in ``CatalogEntry.make``, against the entry's
``ParamSpec`` tuple, so a builder receives every declared parameter (defaults
filled in) as a keyword and nothing else.  Method behaviours are host-coded
Python (there is no contract DSL); scenario files refer to entries by their
catalog key.

Every entry also carries the metadata the analysis layers need: a move
generator, declared in/out token sets, the (dependency, method) pairs its
code calls, and observation probes for stability checking.  Generated moves
and probes are ``(method[, args[, attached]])`` calls to the contract's own
account.  The search has one signer (``search._signed``), which sends each
move from every adversary account, as it does each call that exhaustive mode
enumerates from the method signatures; the stability check sends each probe
from one throwaway user.  A generator is only called while its own contract
is deployed; it still checks for any dependency it reads.

Move generators derive amounts only from contract reserves and declared
constants, never from the adversary's wallet.  That makes the proposed move
set invariant under enriching user wallets, which in turn makes the searched
value monotone in the adversary's wealth by construction (wallet-poor
adversaries simply fail to afford some proposals, which the executor rejects
as invalid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .ledger import Account, Wallet
from .vm import ArgSpec, AttachSpec, ContractCode, MethodDef, wealth_bound

ZERO_ARG = (ArgSpec("choice", (0,)),)   # guard-only minimum-output argument


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str            # "token" | "int" | "contract" | "user" | "str"
    required: bool = True
    default: object = None


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    summary: str
    params: tuple
    build: Callable[..., ContractCode]   # receives checked parameters as keywords
    # (instance name, checked parameters) -> the code built for them
    _codes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def make(self, name: str, /, **args) -> ContractCode:
        """Build instance ``name``, after checking that ``args`` names every
        required parameter and no unknown one; the scenario loader checks
        their kinds first (``scenario._coerce_arg``).

        Deployments of one entry with the same instance name and checked
        parameters share one code, built the first time: a ``ContractCode``
        is frozen and its closures read only those parameters.  The table
        belongs to the entry, so an entry replaced with another ``build``
        starts its own."""
        checked = _take(args, self.params, self.key)
        ckey = (name, tuple(checked.items()))
        code = self._codes.get(ckey)
        if code is None:
            code = self._codes[ckey] = self.build(name, **checked)
        return code


def _take(args: Mapping[str, object], params: Sequence[ParamSpec], key: str) -> dict:
    out = {}
    unknown = set(args) - {p.name for p in params}
    if unknown:
        raise ValueError(f"{key}: unknown parameters {sorted(unknown)}")
    for p in params:
        if p.name in args:
            out[p.name] = args[p.name]
        elif p.required:
            raise ValueError(f"{key}: missing parameter {p.name!r}")
        else:
            out[p.name] = p.default
    return out


def _grid_amounts(reserve: int, grid: int) -> list:
    if grid >= reserve:
        # the floors of reserve * k / grid rise by at most 1 per step, so
        # they reach every amount from 1 to the reserve
        return list(range(1, reserve + 1))
    amounts = {1} if reserve > 0 else set()
    for k in range(1, grid + 1):
        a = reserve * k // grid
        if a > 0:
            amounts.add(a)
    return sorted(amounts)


def _fixed(*calls):
    """Generator proposing the same ``(method[, args[, attached]])`` calls in
    every state."""
    def gen(state, acc, budget):
        return calls
    return gen


# --- constant-product pool ------------------------------------------------------


def _amm_build(name: str, t0, t1) -> ContractCode:
    if t0 == t1:
        raise ValueError("amm: the two pool tokens must differ")

    def ctor(c):
        c.require(not (set(c.attached.tokens()) - {t0, t1}))

    def add_liq(c):
        # deposit must preserve the reserve ratio; balances include the deposit
        c.require(not (set(c.attached.tokens()) - {t0, t1}))
        x0, x1 = c.attached.get(t0), c.attached.get(t1)
        b0, b1 = c.balance(t0), c.balance(t1)
        c.require(b0 * (b1 - x1) == (b0 - x0) * b1)

    def get_tokens(c):
        return (t0, t1)

    def get_rate(c):
        c.require(len(c.args) == 1)
        t = c.arg(0)
        b0, b1 = c.balance(t0), c.balance(t1)
        if t == t0:
            c.require(b1 > 0)
            return Fraction(b0, b1)
        if t == t1:
            c.require(b0 > 0)
            return Fraction(b1, b0)
        c.abort()

    def swap(c):
        tin, x = c.attached_single()
        ymin = c.arg_int(0)
        if tin == t0:
            tout = t1
        elif tin == t1:
            tout = t0
        else:
            c.abort()
        bin_, bout = c.balance(tin), c.balance(tout)
        c.require(bin_ > 0)
        y = (x * bout) // bin_
        c.require(ymin <= y < bout)
        c.pay_sender(y, tout)

    def loss_bound(cs, units, plies=None, *, adversary=frozenset(), called=True):
        # k = x*y never falls: swaps floor their output and addLiq only adds.
        # At fixed prices the cheapest reserves with x*y >= k are worth
        # 2*sqrt(k*u0*u1), so the pool can lose at most the rest of its
        # pair value; no other token it may hold ever leaves it
        x, y = cs.wallet.get(t0), cs.wallet.get(t1)
        u0, u1 = units[t0], units[t1]
        floor_sq = 4 * x * y * u0 * u1
        floor = math.isqrt(floor_sq)
        if floor * floor < floor_sq:
            floor += 1
        return x * u0 + y * u1 - floor

    def gen(state, acc, budget):
        wallet = state.contracts[acc].wallet
        return [("swap", (0,), Wallet.single(tin, a))
                for tin in (t0, t1) for a in _grid_amounts(wallet.get(tin), budget.grid)]

    return ContractCode(
        name=name,
        methods={
            "addLiq": MethodDef(add_liq, attach=(AttachSpec((t0,)), AttachSpec((t1,)))),
            "getTokens": MethodDef(get_tokens),
            "getRate": MethodDef(get_rate, args=(ArgSpec("token"),)),
            "swap": MethodDef(swap, args=ZERO_ARG, attach=(AttachSpec((t0, t1)),)),
        },
        constructor=ctor,
        intok_decl=frozenset({t0, t1}),
        outtok_decl=frozenset({t0, t1}),
        move_generator=gen,
        loss_bound=loss_bound,
        probes=(
            ("getTokens",),
            ("getRate", (t0,)),
            ("getRate", (t1,)),
            ("swap", (0,), Wallet.single(t0, 1)),
            ("swap", (0,), Wallet.single(t1, 1)),
        ),
    )


# --- airdrop and fixed-rate exchange --------------------------------------------


def _airdrop_build(name: str, token) -> ContractCode:
    def ctor(c):
        c.require(not (set(c.attached.tokens()) - {token}))
        c.put("tout", token)

    def withdraw(c):
        c.pay_sender(c.balance(token), token)

    return ContractCode(
        name=name,
        methods={"withdraw": MethodDef(withdraw)},
        constructor=ctor,
        outtok_decl=frozenset({token}),
        move_generator=_fixed(("withdraw",)),
        probes=(("withdraw",),),
    )


def _exchange_build(name: str, tout, tin, rate) -> ContractCode:
    if tin == tout:
        raise ValueError("exchange: tin and tout must differ")
    if not isinstance(rate, int) or rate <= 0:
        raise ValueError("exchange: rate must be a positive int")

    def ctor(c):
        c.require(not (set(c.attached.tokens()) - {tout}))
        c.put("rate", rate)
        c.put("tout", tout)
        c.put("tin", tin)
        c.put("owner", c.origin)

    def get_tokens(c):
        return (tin, tout)

    def get_rate(c):
        # tolerates an optional token argument, for use as a price oracle
        return c.store("rate")

    def set_rate(c):
        c.require(c.origin is c.store("owner"))
        c.put("rate", c.arg_int(0))

    def swap(c):
        t, x = c.attached_single()
        y = x * c.store("rate")
        c.require(t == tin and c.balance(tout) >= y)
        c.pay_sender(y, tout)

    def gen(state, acc, budget):
        cs = state.contracts[acc]
        now = cs.store["rate"]
        cap = cs.wallet.get(tout) // now if now else 0
        return ([("swap", (), Wallet.single(tin, a)) for a in _grid_amounts(cap, budget.grid)]
                + [("setRate", (v,)) for v in sorted({0, 1, 2, now})])

    return ContractCode(
        name=name,
        methods={
            "getTokens": MethodDef(get_tokens),
            "getRate": MethodDef(get_rate, args=(ArgSpec("choice", (tin,)),)),
            "setRate": MethodDef(set_rate, args=(ArgSpec("int"),)),
            "swap": MethodDef(swap, attach=(AttachSpec((tin,)),)),
        },
        constructor=ctor,
        intok_decl=frozenset({tin}),
        outtok_decl=frozenset({tout}),
        move_generator=gen,
        probes=(
            ("getTokens",),
            ("getRate", (tin,)),
            ("swap", (), Wallet.single(tin, 1)),
        ),
    )


# --- pot bet against a price oracle ----------------------------------------------


def _bet_build(name: str, oracle, token, rate, deadline, pot_token) -> ContractCode:
    def ctor(c):
        c.require(token != pot_token)
        c.require(c.call(oracle, "getTokens") == (pot_token, token))
        c.put("tok", token)
        c.put("rate", rate)
        c.put("owner", c.origin)
        c.put("deadline", deadline)
        c.put("player", None)

    def bet(c):
        # the stake must match the pot as it was before this call
        x = c.attached.get(pot_token)
        c.require(not (set(c.attached.tokens()) - {pot_token}))
        pot_before = c.balance(pot_token) - x
        c.require(c.store("player") is None and x == pot_before)
        c.put("player", c.origin)

    def win(c):
        c.require(not c.height_reached(c.store("deadline") + 1)
                  and c.origin is c.store("player"))
        c.require(c.call(oracle, "getRate", (pot_token,)) > c.store("rate"))
        c.pay(c.store("player"), c.balance(pot_token), pot_token)

    def close(c):
        c.require(c.height_reached(c.store("deadline") + 1) and c.origin is c.store("owner"))
        c.pay(c.store("owner"), c.balance(pot_token), pot_token)

    def loss_bound(cs, units, plies=None, *, adversary=frozenset(), called=True):
        """The bet's wealth, or 0 within one transaction when no player is
        stored, the owner is not in ``adversary`` and no contract calls the
        bet.

        Only ``win`` and ``close`` pay anything out.  ``close`` needs the
        owner as origin, and every origin is an adversary account.  ``win``
        needs the origin to be the stored player, and none is stored: only
        ``bet`` stores one, and one transaction runs ``bet`` and then ``win``
        only through a contract that calls into the bet.  A tick runs no
        code.  The bound is 0 or the wealth for one ply and the wealth for
        more, so it never decreases as ``plies`` grows."""
        if (plies is not None and plies <= 1 and not called
                and cs.store["player"] is None and cs.store["owner"] not in adversary):
            return 0
        return wealth_bound(cs, units)

    def gen(state, acc, budget):
        pot = state.contracts[acc].wallet.get(pot_token)
        return [("win",), ("close",),
                ("bet", (), Wallet.single(pot_token, pot)) if pot else ("bet",)]

    return ContractCode(
        name=name,
        methods={
            "bet": MethodDef(bet, attach=(AttachSpec((pot_token,)),)),
            "win": MethodDef(win),
            "close": MethodDef(close),
        },
        constructor=ctor,
        intok_decl=frozenset({pot_token}),
        outtok_decl=frozenset({pot_token}),
        height_thresholds=(deadline + 1,),
        calls_out=frozenset({(oracle, "getRate"), (oracle, "getTokens")}),
        move_generator=gen,
        loss_bound=loss_bound,
        probes=(("win",),),
    )


# --- pool wrappers ---------------------------------------------------------------


def _pool_wrapper(name: str, c0, c1, ctor, get_tokens, get_rate, swap) -> ContractCode:
    """A swap wrapper over the pools ``c0`` and ``c1``, whose constructor
    stores the tokens it swaps under keys starting with ``t``."""
    pools = (Account.contract(c0), Account.contract(c1))

    def gen(state, acc, budget):
        # amounts come from the reserves of the wrapped pools
        calls = []
        for k, t in sorted(state.contracts[acc].store.items()):
            if k.startswith("t"):
                reserve = max((state.contracts[d].wallet.get(t)
                               for d in pools if d in state.contracts), default=0)
                calls += [("swap", (0,), Wallet.single(t, a))
                          for a in _grid_amounts(reserve, budget.grid)]
        return calls

    return ContractCode(
        name=name,
        methods={
            "getTokens": MethodDef(get_tokens),
            "getRate": MethodDef(get_rate, args=(ArgSpec("token"),)),
            "swap": MethodDef(swap, args=ZERO_ARG, attach=(AttachSpec(None),)),
        },
        constructor=ctor,
        intok_decl=None,
        outtok_decl=None,
        calls_out=frozenset({(d, m) for d in (c0, c1)
                             for m in ("getTokens", "getRate", "swap")}),
        move_generator=gen,
        probes=(("getTokens",),),
    )


def _best_swap_build(name: str, c0, c1) -> ContractCode:
    def ctor(c):
        pair = c.call(c0, "getTokens")
        c.require(pair == c.call(c1, "getTokens"))
        c.put("t0", pair[0])
        c.put("t1", pair[1])

    def get_tokens(c):
        return (c.store("t0"), c.store("t1"))

    def get_rate(c):
        t = c.arg(0)
        return min(c.call(c0, "getRate", (t,)), c.call(c1, "getRate", (t,)))

    def swap(c):
        t, x = c.attached_single()
        ymin = c.arg_int(0)
        t0, t1 = c.store("t0"), c.store("t1")
        c.require(t in (t0, t1))
        tout = t1 if t == t0 else t0
        # route to the pool with the lower (better) rate for the input token
        target = c0 if c.call(c0, "getRate", (t,)) < c.call(c1, "getRate", (t,)) else c1
        c.call(target, "swap", (ymin,), Wallet.single(t, x))
        c.pay_sender(c.balance(tout), tout)

    return _pool_wrapper(name, c0, c1, ctor, get_tokens, get_rate, swap)


def _swap_router_build(name: str, c0, c1) -> ContractCode:
    def ctor(c):
        t0, t1 = c.call(c0, "getTokens")
        t1b, t2 = c.call(c1, "getTokens")
        c.require(t1 == t1b)
        c.put("t0", t0)
        c.put("t1", t1)
        c.put("t2", t2)

    def get_tokens(c):
        return (c.store("t0"), c.store("t2"))

    def get_rate(c):
        t = c.arg(0)
        t0, t1, t2 = c.store("t0"), c.store("t1"), c.store("t2")
        # composed end-to-end rate across the two pools
        if t == t0:
            return c.call(c0, "getRate", (t0,)) * c.call(c1, "getRate", (t1,))
        if t == t2:
            return c.call(c1, "getRate", (t2,)) * c.call(c0, "getRate", (t1,))
        c.abort()

    def swap(c):
        t, x = c.attached_single()
        ymin = c.arg_int(0)
        t0, t1, t2 = c.store("t0"), c.store("t1"), c.store("t2")
        if t == t0:
            c.call(c0, "swap", (0,), Wallet.single(t0, x))
            c.call(c1, "swap", (0,), Wallet.single(t1, c.balance(t1)))
            c.require(c.balance(t2) >= ymin)
            c.pay_sender(c.balance(t2), t2)
        elif t == t2:
            c.call(c1, "swap", (0,), Wallet.single(t2, x))
            c.call(c0, "swap", (0,), Wallet.single(t1, c.balance(t1)))
            c.require(c.balance(t0) >= ymin)
            c.pay_sender(c.balance(t0), t0)
        else:
            c.abort()

    return _pool_wrapper(name, c0, c1, ctor, get_tokens, get_rate, swap)


# --- lending pool and arbitrage wrappers ------------------------------------------


def _lp_build(name: str, token, cmin, rliq, imul, fee, oracle) -> ContractCode:
    if rliq <= 1 or imul <= 1:
        raise ValueError("lending_pool: rliq and imul must exceed 1")

    def mint_key(a: Account) -> str:
        return f"mint:{a.name}"

    def debt_key(a: Account) -> str:
        return f"debt:{a.name}"

    def sget(c, key):
        try:
            return c.store(key)
        except KeyError:
            return 0

    def sput(c, key, value):
        # a position that does not change is not written, so a no-op by an
        # origin without one leaves the store (and the state's key) as it was
        if value != sget(c, key):
            c.put(key, value)

    def rate_x(c, n):
        # mint-token exchange rate at pool balance n
        m = c.store("M")
        if m == 0:
            return Fraction(1)
        return Fraction(n + c.store("D") * c.store("Ir"), m)

    def coll(c, a, n):
        # collateralization of account a; None encodes "no debt"
        debt = sget(c, debt_key(a))
        if debt == 0:
            return None
        return (sget(c, mint_key(a)) * rate_x(c, n)) / (debt * c.store("Ir"))

    def ctor(c):
        c.require(not (set(c.attached.tokens()) - {token}))
        c.put("Cmin", cmin)
        c.put("Rliq", rliq)
        c.put("Ir", 1)
        c.put("Imul", imul)
        c.put("D", Fraction(0))
        c.put("M", 0)
        c.put("fee", fee)

    def get_token(c):
        return token

    def deposit(c):
        t, x = c.attached_single()
        c.require(t == token)
        x_rate = rate_x(c, c.balance(token) - x)
        c.require(x_rate > 0)
        y = int(Fraction(x) / x_rate)
        sput(c, mint_key(c.origin), sget(c, mint_key(c.origin)) + y)
        c.put("M", c.store("M") + y)

    def borrow(c):
        x = c.arg_int(0)
        c.require(c.balance(token) > x)
        c.pay_sender(x, token)
        ir = c.store("Ir")
        sput(c, debt_key(c.origin), sget(c, debt_key(c.origin)) + Fraction(x, ir))
        c.put("D", c.store("D") + Fraction(x, ir))
        cr = coll(c, c.origin, c.balance(token))
        c.require(cr is None or cr >= c.store("Cmin"))

    def accrue(c):
        c.require(c.origin is Account.user(oracle))
        c.put("Ir", c.store("Ir") * c.store("Imul"))

    def repay(c):
        t, x = c.attached_single()
        c.require(t == token)
        ir = c.store("Ir")
        debt = sget(c, debt_key(c.origin))
        c.require(debt * ir >= x)
        sput(c, debt_key(c.origin), debt - Fraction(x, ir))
        c.put("D", c.store("D") - Fraction(x, ir))

    def redeem(c):
        x = c.arg_int(0)
        y = int(x * rate_x(c, c.balance(token)))
        c.require(sget(c, mint_key(c.origin)) >= x and c.balance(token) >= y)
        c.pay_sender(y, token)
        sput(c, mint_key(c.origin), sget(c, mint_key(c.origin)) - x)
        c.put("M", c.store("M") - x)
        cr = coll(c, c.origin, c.balance(token))
        c.require(cr is None or cr >= c.store("Cmin"))

    def liquidate(c):
        t, x = c.attached_single()
        c.require(t == token)
        b = c.arg(0)
        c.require(isinstance(b, Account))
        x_rate = rate_x(c, c.balance(token) - x)
        c.require(x_rate > 0)
        y = int(Fraction(x) / x_rate * c.store("Rliq"))
        ir = c.store("Ir")
        debt_b = sget(c, debt_key(b))
        cr_b = coll(c, b, c.balance(token) - x)
        c.require(debt_b * ir > x and cr_b is not None and cr_b < c.store("Cmin"))
        c.require(sget(c, mint_key(b)) >= y)
        sput(c, mint_key(c.origin), sget(c, mint_key(c.origin)) + y)
        sput(c, mint_key(b), sget(c, mint_key(b)) - y)
        sput(c, debt_key(b), debt_b - Fraction(x, ir))
        c.put("D", c.store("D") - Fraction(x, ir))
        cr_after = coll(c, b, c.balance(token))
        c.require(cr_after is not None and cr_after <= c.store("Cmin"))

    def flash_loan(c):
        x = c.arg_int(0)
        old = c.balance(token)
        c.pay_sender(x, token)
        c.require_final_min(token, old + c.store("fee"))

    def gen(state, acc, budget):
        cs = state.contracts[acc]
        amounts = _grid_amounts(cs.wallet.get(token), budget.grid)
        calls = [("accrue",)]
        for a in amounts:
            calls += [("deposit", (), Wallet.single(token, a)), ("borrow", (a,)),
                      ("repay", (), Wallet.single(token, a)), ("redeem", (a,)),
                      ("flashLoan", (a,))]
        debtors = sorted(k.split(":", 1)[1] for k, v in cs.store.items()
                         if k.startswith("debt:") and v)
        calls += [("liquidate", (Account.user(d),), Wallet.single(token, a))
                  for d in debtors for a in amounts]
        return calls

    return ContractCode(
        name=name,
        methods={
            "getToken": MethodDef(get_token),
            "deposit": MethodDef(deposit, attach=(AttachSpec((token,)),)),
            "borrow": MethodDef(borrow, args=(ArgSpec("int"),)),
            "accrue": MethodDef(accrue),
            "repay": MethodDef(repay, attach=(AttachSpec((token,)),)),
            "redeem": MethodDef(redeem, args=(ArgSpec("int"),)),
            "liquidate": MethodDef(liquidate, args=(ArgSpec("account"),),
                                   attach=(AttachSpec((token,)),)),
            "flashLoan": MethodDef(flash_loan, args=(ArgSpec("int"),)),
        },
        constructor=ctor,
        intok_decl=frozenset({token}),
        outtok_decl=frozenset({token}),
        move_generator=gen,
        probes=(("getToken",), ("borrow", (1,)), ("flashLoan", (1,)),
                ("repay", (), Wallet.single(token, 1))),
    )


def _arbitrage(name: str, c0, c1, lp, arbitrage, lends) -> ContractCode:
    """A round trip over the pools ``c0`` and ``c1``, funded through the
    lending pool ``lp``'s ``lends`` methods."""
    lender = Account.contract(lp)

    def ctor(c):
        t0, t1 = c.call(c0, "getTokens")
        c.require(c.call(lp, "getToken") == t0)
        c.require(c.call(c1, "getTokens") == (t0, t1))
        c.put("t0", t0)
        c.put("t1", t1)

    def gen(state, acc, budget):
        reserve = (state.contracts[lender].wallet.get(state.contracts[acc].store["t0"])
                   if lender in state.contracts else 0)
        return [("arbitrage", (a,)) for a in _grid_amounts(reserve, budget.grid)]

    return ContractCode(
        name=name,
        methods={"arbitrage": MethodDef(arbitrage, args=(ArgSpec("int"),))},
        constructor=ctor,
        intok_decl=None,
        outtok_decl=None,
        calls_out=frozenset({(lp, m) for m in ("getToken",) + lends}
                            | {(d, m) for d in (c0, c1) for m in ("getTokens", "swap")}),
        move_generator=gen,
    )


def _lp_arbitrage_build(name: str, c0, c1, lp) -> ContractCode:
    def arbitrage(c):
        x = c.arg_int(0)
        t0, t1 = c.store("t0"), c.store("t1")
        c.call(lp, "borrow", (x,))
        c.call(c0, "swap", (0,), Wallet.single(t0, x))
        c.call(c1, "swap", (0,), Wallet.single(t1, c.balance(t1)))
        c.call(lp, "repay", (), Wallet.single(t0, x))
        c.require(c.balance(t0) > 0)
        c.pay_sender(c.balance(t0), t0)

    return _arbitrage(name, c0, c1, lp, arbitrage, ("borrow", "repay"))


def _flash_arbitrage_build(name: str, c0, c1, lp) -> ContractCode:
    def arbitrage(c):
        x = c.arg_int(0)
        t0, t1 = c.store("t0"), c.store("t1")
        c.call(lp, "flashLoan", (x,))
        c.call(c0, "swap", (0,), Wallet.single(t0, x))
        c.call(c1, "swap", (0,), Wallet.single(t1, c.balance(t1)))
        c.pay(Account.contract(lp), x, t0)   # repay the flash loan directly
        c.pay_sender(c.balance(t0), t0)
        # the lender's deferred balance check fires when the transaction ends

    return _arbitrage(name, c0, c1, lp, arbitrage, ("flashLoan",))


# --- small stateful vaults used by the verdict test corpus -----------------------
#
# These tiny contracts exercise the corner cases of the composability
# relations: shared one-shot latches, gated payouts, proxies and fixed-rate
# relays.  Argument proposals for latch setters come from {0, 1, 2} plus any
# integers already stored.


def _latch_gen(cell: str, method: str):
    """Generator proposing ``method(v)`` for every latch value ``v`` of the
    cell contract named ``cell``."""
    cell_acc = Account.contract(cell)

    def gen(state, acc, budget):
        vals = {0, 1, 2}
        cs = state.contracts.get(cell_acc)
        if cs is not None:
            vals |= {v for v in cs.store.values()
                     if isinstance(v, int) and not isinstance(v, bool)}
        return tuple((method, (v,)) for v in sorted(vals))
    return gen


def _cell(name: str, set_: MethodDef, move_generator, **fields) -> ContractCode:
    """An integer cell ``x``, 0 when deployed, read by ``get`` and written by
    ``set_``; ``fields`` are further ``ContractCode`` fields."""
    def ctor(c):
        c.put("x", 0)

    def get(c):
        return c.store("x")

    return ContractCode(
        name=name,
        methods={"get": MethodDef(get), "set": set_},
        constructor=ctor,
        move_generator=move_generator,
        probes=(("get",),),
        **fields,
    )


def _cell_build(name: str) -> ContractCode:
    def set_(c):
        c.put("x", c.arg_int(0))

    return _cell(name, MethodDef(set_, args=(ArgSpec("int"),)), _latch_gen(name, "set"))


def _once_cell_build(name: str) -> ContractCode:
    def set_(c):
        # write-once: later writes are silently ignored
        if c.store("x") == 0:
            c.put("x", c.arg_int(0))

    return _cell(name, MethodDef(set_, args=(ArgSpec("int"),)), _latch_gen(name, "set"))


def _paid_cell_build(name: str, token) -> ContractCode:
    def set_(c):
        t, x = c.attached_single()
        c.require(t == token and x == 1)
        c.put("x", 1)

    return _cell(name, MethodDef(set_, attach=(AttachSpec((token,), (1,)),)),
                 _fixed(("set", (), Wallet.single(token, 1))),
                 intok_decl=frozenset({token}))


def _cell_proxy_build(name: str, cell) -> ContractCode:
    def get_x(c):
        return c.call(cell, "get")

    def set_x(c):
        c.call(cell, "set", (c.arg_int(0),))

    return ContractCode(
        name=name,
        methods={"get_x": MethodDef(get_x),
                 "set_x": MethodDef(set_x, args=(ArgSpec("int"),))},
        calls_out=frozenset({(cell, "get"), (cell, "set")}),
        move_generator=_latch_gen(cell, "set_x"),
        probes=(("get_x",),),
    )


def _gated(name: str, cell, token, payout) -> ContractCode:
    """Pays the sender ``payout(c)`` of ``token`` while ``cell`` reads 1."""
    def f(c):
        c.require(c.call(cell, "get") == 1)
        c.pay_sender(payout(c), token)

    return ContractCode(
        name=name,
        methods={"f": MethodDef(f)},
        outtok_decl=frozenset({token}),
        calls_out=frozenset({(cell, "get")}),
        move_generator=_fixed(("f",)),
    )


def _gated_drop_build(name: str, cell, token, amount) -> ContractCode:
    return _gated(name, cell, token, lambda c: amount)


def _gated_vault_build(name: str, cell, token) -> ContractCode:
    return _gated(name, cell, token, lambda c: c.balance(token))


def _dropper_build(name: str, var, token) -> ContractCode:
    def ctor(c):
        c.put("b", 0)

    def drop2(c):
        c.require(c.store("b") == 0 and c.call(var, "get") == 1)
        c.put("b", 1)
        c.pay_sender(2, token)

    def drop3(c):
        c.require(c.store("b") == 0 and c.call(var, "get") == 0)
        c.put("b", 1)
        c.call(var, "set", (2,))
        c.pay_sender(3, token)

    return ContractCode(
        name=name,
        methods={"drop2": MethodDef(drop2), "drop3": MethodDef(drop3)},
        constructor=ctor,
        outtok_decl=frozenset({token}),
        calls_out=frozenset({(var, "get"), (var, "set")}),
        move_generator=_fixed(("drop2",), ("drop3",)),
    )


def _mutex_vault_build(name: str, token) -> ContractCode:
    def ctor(c):
        c.require(c.attached.get(token) == 1 and len(c.attached.items()) == 1)
        c.put("n", 0)

    def f1(c):
        c.require(c.store("n") == 0)
        c.put("n", 1)
        c.pay_sender(1, token)

    def f2(c):
        c.require(c.store("n") == 0)
        c.put("n", 2)

    def f3(c):
        return c.store("n")

    return ContractCode(
        name=name,
        methods={"f1": MethodDef(f1), "f2": MethodDef(f2), "f3": MethodDef(f3)},
        constructor=ctor,
        outtok_decl=frozenset({token}),
        move_generator=_fixed(("f1",), ("f2",)),
        probes=(("f3",),),
    )


def _mutex_follower_build(name: str, c1, token) -> ContractCode:
    def ctor(c):
        c.require(c.attached.get(token) == 1 and len(c.attached.items()) == 1)

    def g(c):
        c.require(c.call(c1, "f3") == 2)
        c.pay_sender(1, token)

    return ContractCode(
        name=name,
        methods={"g": MethodDef(g)},
        constructor=ctor,
        outtok_decl=frozenset({token}),
        calls_out=frozenset({(c1, "f3")}),
        move_generator=_fixed(("g",)),
    )


def _faucet_build(name: str, token, amount) -> ContractCode:
    def f(c):
        c.pay_sender(amount, token)

    return ContractCode(
        name=name,
        methods={"f": MethodDef(f)},
        outtok_decl=frozenset({token}),
        move_generator=_fixed(("f",)),
        probes=(("f",),),
    )


def _gated_faucet_build(name: str, token, amount, expected_sender) -> ContractCode:
    # expected_sender is a stored reference, not a call edge, so it may name
    # a contract deployed later
    def f(c):
        c.require(c.sender == Account.contract(expected_sender))
        c.pay_sender(amount, token)

    return ContractCode(
        name=name,
        methods={"f": MethodDef(f)},
        sender_agnostic=False,
        outtok_decl=frozenset({token}),
        move_generator=_fixed(("f",)),
        probes=(("f",),),
    )


def _chained_faucet_build(name: str, token, amount, dep) -> ContractCode:
    def g(c):
        c.call(dep, "f")
        c.pay_sender(amount, token)

    return ContractCode(
        name=name,
        methods={"g": MethodDef(g)},
        outtok_decl=frozenset({token}),
        calls_out=frozenset({(dep, "f")}),
        move_generator=_fixed(("g",)),
    )


def _relay_build(name: str, tin, amount_in, tout, amount_out) -> ContractCode:
    def f(c):
        c.require(c.attached == Wallet.single(tin, amount_in))
        c.pay_sender(amount_out, tout)

    return ContractCode(
        name=name,
        methods={"f": MethodDef(f, attach=(AttachSpec((tin,), (amount_in,)),))},
        intok_decl=frozenset({tin}),
        outtok_decl=frozenset({tout}),
        move_generator=_fixed(("f", (), Wallet.single(tin, amount_in))),
    )


# --- public registry ---------------------------------------------------------

_TWO_POOL_PARAMS = (ParamSpec("c0", "contract"), ParamSpec("c1", "contract"))
_ARB_PARAMS = _TWO_POOL_PARAMS + (ParamSpec("lp", "contract"),)
_CELL_TOKEN_PARAMS = (ParamSpec("cell", "contract"), ParamSpec("token", "token"))
_FAUCET_PARAMS = (ParamSpec("token", "token"), ParamSpec("amount", "int"))

REGISTRY: dict = {e.key: e for e in (
    CatalogEntry("amm", "constant-product two-token pool",
                 (ParamSpec("t0", "token"), ParamSpec("t1", "token")), _amm_build),
    CatalogEntry("airdrop", "anyone withdraws the whole balance",
                 (ParamSpec("token", "token"),), _airdrop_build),
    CatalogEntry("exchange", "fixed-rate swap with an owner-set rate",
                 (ParamSpec("tout", "token"), ParamSpec("tin", "token"),
                  ParamSpec("rate", "int")), _exchange_build),
    CatalogEntry("bet", "pot bet paid out on an oracle rate threshold",
                 (ParamSpec("oracle", "contract"), ParamSpec("token", "token"),
                  ParamSpec("rate", "int"), ParamSpec("deadline", "int"),
                  ParamSpec("pot_token", "token", required=False, default="ETH")),
                 _bet_build),
    CatalogEntry("best_swap", "routes a swap to the better of two pools",
                 _TWO_POOL_PARAMS, _best_swap_build),
    CatalogEntry("swap_router", "chains two pools to swap across a middle token",
                 _TWO_POOL_PARAMS, _swap_router_build),
    CatalogEntry("lending_pool",
                 "deposit/borrow pool with accrual, liquidation and flash loans",
                 (ParamSpec("token", "token"),
                  ParamSpec("cmin", "int", required=False, default=2),
                  ParamSpec("rliq", "int", required=False, default=2),
                  ParamSpec("imul", "int", required=False, default=2),
                  ParamSpec("fee", "int", required=False, default=0),
                  ParamSpec("oracle", "user", required=False, default="Oracle")),
                 _lp_build),
    CatalogEntry("lp_arbitrage", "borrows, round-trips two pools and keeps the spread",
                 _ARB_PARAMS, _lp_arbitrage_build),
    CatalogEntry("flash_loan_arbitrage",
                 "same round-trip funded by an uncollateralised flash loan",
                 _ARB_PARAMS, _flash_arbitrage_build),
    # the small vaults used to probe the composability relations
    CatalogEntry("cell", "settable integer cell", (), _cell_build),
    CatalogEntry("once_cell", "write-once integer cell", (), _once_cell_build),
    CatalogEntry("cell_proxy", "forwards get/set to a cell",
                 (ParamSpec("cell", "contract"),), _cell_proxy_build),
    CatalogEntry("gated_drop", "pays a fixed amount while a cell reads 1",
                 _CELL_TOKEN_PARAMS
                 + (ParamSpec("amount", "int", required=False, default=1),),
                 _gated_drop_build),
    CatalogEntry("gated_vault", "pays its whole balance while a cell reads 1",
                 _CELL_TOKEN_PARAMS, _gated_vault_build),
    CatalogEntry("paid_cell", "cell set to 1 against a one-token payment",
                 (ParamSpec("token", "token"),), _paid_cell_build),
    CatalogEntry("dropper", "one-shot payout branching on a shared cell",
                 (ParamSpec("var", "contract"), ParamSpec("token", "token")),
                 _dropper_build),
    CatalogEntry("mutex_vault", "one-shot choice latch paying on branch 1",
                 (ParamSpec("token", "token"),), _mutex_vault_build),
    CatalogEntry("mutex_follower", "pays only when the latch chose branch 2",
                 (ParamSpec("c1", "contract"), ParamSpec("token", "token")),
                 _mutex_follower_build),
    CatalogEntry("faucet", "pays a fixed amount to any caller",
                 _FAUCET_PARAMS, _faucet_build),
    CatalogEntry("gated_faucet", "faucet restricted to one contract sender",
                 _FAUCET_PARAMS + (ParamSpec("expected_sender", "str"),),
                 _gated_faucet_build),
    CatalogEntry("chained_faucet", "drains a faucet, then pays its own amount",
                 _FAUCET_PARAMS + (ParamSpec("dep", "contract"),), _chained_faucet_build),
    CatalogEntry("relay", "fixed amount in, fixed amount out",
                 (ParamSpec("tin", "token"), ParamSpec("amount_in", "int"),
                  ParamSpec("tout", "token"), ParamSpec("amount_out", "int")),
                 _relay_build),
)}

