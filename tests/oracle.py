"""Brute-force reference for the bounded extractable-loss value.

Deliberately independent of the engine's search machinery: transactions are
enumerated straight from the declared method signatures by local code, state
keys are built locally, wealth is summed locally in Fractions from the
quoted prices (not in the engine's integer price units), and the recursion
is a plain maximum with no generators, pruning, bounds or tie-breaking.
Only the executor is shared, since the executor itself is what defines the
semantics under test.
"""

import itertools
from fractions import Fraction

from mevscope import Transaction, Wallet, execute
from mevscope.vm import TICK_METHOD


def state_key(state):
    users = tuple(sorted((a.name, w.items()) for a, w in state.users.items() if w))
    contracts = tuple(
        (a.name, state.contracts[a].wallet.items(),
         tuple(sorted(state.contracts[a].store.items())))
        for a in state.order
    )
    return (users, contracts, state.height)


def fraction_wealth(accounts, state, prices) -> Fraction:
    total = Fraction(0)
    for acc in accounts:
        if acc in state.users:
            wallet = state.users[acc]
        elif acc in state.contracts:
            wallet = state.contracts[acc].wallet
        else:
            continue
        for t, n in wallet.items():
            total += n * prices.price(t)
    return total


def _arg_domain(spec, tokens, accounts, ceiling):
    if spec.kind == "choice":
        return list(spec.choices)
    if spec.kind == "int":
        return list(range(ceiling + 1))
    if spec.kind == "token":
        return list(tokens)
    if spec.kind == "account":
        return list(accounts)
    raise ValueError(spec.kind)


def _attach_options(slot, tokens, ceiling):
    toks = list(tokens) if slot.tokens is None else list(slot.tokens)
    amts = list(range(ceiling + 1)) if slot.amounts is None else list(slot.amounts)
    return [(t, n) for t in toks for n in amts]


def enumerate_moves(state, tokens, ceiling, restriction=None):
    deployed = set(state.order)
    targets = deployed if restriction is None else set(restriction) & deployed
    accounts = list(sorted(state.users)) + list(state.order)
    moves = []
    for origin in sorted(state.adversary):
        for acc in state.order:
            if acc not in targets:
                continue
            code = state.codes[acc]
            for mname in sorted(code.methods):
                mdef = code.methods[mname]
                arg_sets = [_arg_domain(s, tokens, accounts, ceiling)
                            for s in mdef.args]
                slot_sets = [_attach_options(s, tokens, ceiling)
                             for s in mdef.attach]
                for args in itertools.product(*arg_sets):
                    for combo in itertools.product(*slot_sets):
                        amounts = {}
                        for t, n in combo:
                            amounts[t] = amounts.get(t, 0) + n
                        moves.append(Transaction(origin, acc, mname, args,
                                                 Wallet(amounts)))
    if targets and any(state.codes[a].reads_height for a in state.order):
        # a rolled-back no-op still advances the height
        for origin in sorted(state.adversary):
            for acc in sorted(targets):
                moves.append(Transaction(origin, acc, TICK_METHOD))
    return moves


def brute_lmev(state, observed, restriction, prices, depth, ceiling) -> Fraction:
    deployed = set(state.order)
    obs = [a for a in sorted(observed) if a in deployed]
    tokens = prices.tokens()
    memo = {}

    def w(s):
        return fraction_wealth(obs, s, prices)

    def rec(s, k):
        if k == 0:
            return 0
        key = (state_key(s), k)
        if key in memo:
            return memo[key]
        best = 0
        for tx in enumerate_moves(s, tokens, ceiling, restriction):
            r = execute(s, tx)
            if not r.valid and tx.method != TICK_METHOD:
                continue
            v = (w(s) - w(r.state)) + rec(r.state, k - 1)
            if v > best:
                best = v
        memo[key] = best
        return best

    return Fraction(rec(state, depth))
