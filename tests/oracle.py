"""Brute-force references for the bounded extractable-loss value and witness.

Deliberately independent of the engine's search machinery: state keys are
built locally, wealth is summed locally in Fractions from the quoted prices
(not in the engine's integer price units), and each recursion is a plain
maximum with no pruning, bounds or escalation.  The executor is shared,
since the executor itself is what defines the semantics under test.

``brute_lmev`` enumerates transactions straight from the declared method
signatures by local code and returns the value alone; ``brute_losses``
gives that value for each deployed contract observed alone, in one
recursion.  ``brute_best`` recurses over a move source it is given and
breaks ties locally, so it checks witnesses too: by default
``generated_moves``, the move generators' proposals signed here from every
adversary account, which define the move space of every generator-mode
search, or ``enumerate_moves`` for exhaustive mode.  Neither drops a call
its origin cannot pay, as the engine's signer does: the executor rejects
such a call, so a reference that keeps it checks that pruning too.
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
    quoted = dict(prices.prices)
    total = Fraction(0)
    for acc in accounts:
        if acc in state.users:
            wallet = state.users[acc]
        elif acc in state.contracts:
            wallet = state.contracts[acc].wallet
        else:
            continue
        for t, n in wallet.items():
            total += n * quoted[t]
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
        # a call with no body that only advances the height
        for origin in sorted(state.adversary):
            for acc in sorted(targets):
                moves.append(Transaction(origin, acc, TICK_METHOD))
    return moves


def generated_moves(state, restriction, budget):
    """Every call the move generator of a deployed contract in
    ``restriction`` (None meaning all) proposes, sent from every adversary
    account whether or not it can pay the attachment, plus one tick from
    the least adversary account to the least target when a deployed
    contract reads the height."""
    deployed = set(state.order)
    targets = deployed if restriction is None else set(restriction) & deployed
    origins = sorted(state.adversary)
    moves = []
    for acc in state.order:
        gen = state.codes[acc].move_generator
        if acc not in targets or gen is None:
            continue
        for call in gen(state, acc, budget):
            moves += [Transaction(origin, acc, *call) for origin in origins]
    if targets and origins and any(state.codes[a].reads_height for a in state.order):
        moves.append(Transaction(origins[0], min(targets), TICK_METHOD))
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
            if not r.valid:
                continue
            v = (w(s) - w(r.state)) + rec(r.state, k - 1)
            if v > best:
                best = v
        memo[key] = best
        return best

    return Fraction(rec(state, depth))


def brute_losses(state, prices, depth, ceiling) -> dict:
    """``{contract: brute_lmev(state, {contract}, None, prices, depth,
    ceiling)}`` over the deployed contracts, in one recursion: each
    contract's largest loss is maximised over the traces separately."""
    tokens = prices.tokens()
    order = tuple(state.order)
    memo = {}

    def wealths(s):
        return [fraction_wealth((acc,), s, prices) for acc in order]

    def rec(s, k):
        if k == 0:
            return [0] * len(order)
        key = (state_key(s), k)
        if key in memo:
            return memo[key]
        before = wealths(s)
        best = [0] * len(order)
        for tx in enumerate_moves(s, tokens, ceiling):
            r = execute(s, tx)
            if not r.valid:
                continue
            rest = rec(r.state, k - 1)
            best = [max(b, w - after + v)
                    for b, w, after, v in zip(best, before, wealths(r.state), rest)]
        memo[key] = best
        return best

    return {acc: Fraction(v) for acc, v in zip(order, rec(state, depth))}


def _beats(cand, best) -> bool:
    """Larger value, then larger adversary gain, then the shorter trace,
    then the smaller trace key."""
    if cand[:2] != best[:2]:
        return cand[:2] > best[:2]
    if len(cand[2]) != len(best[2]):
        return len(cand[2]) < len(best[2])
    return [tx.key() for tx in cand[2]] < [tx.key() for tx in best[2]]


def brute_best(state, observed, restriction, prices, budget, moves=None) -> tuple:
    """``(value, witness)`` of ``lmev(state, observed, restriction, prices,
    budget)``, by plain recursion to ``budget.max_depth`` transactions over
    ``moves(s)``, the transactions proposed at each state ``s``: by default
    ``generated_moves``, as in generator mode."""
    if moves is None:
        def moves(s):
            return generated_moves(s, restriction, budget)
    deployed = set(state.order)
    obs = [a for a in sorted(observed) if a in deployed]
    adversary = sorted(state.adversary)
    if fraction_wealth(obs, state, prices) == 0:
        # nothing to lose: ``lmev`` answers with the empty trace
        return Fraction(0), ()
    memo = {}
    # state key -> the state's (observed, adversary) wealth: a state is met
    # as a child and again as a node, and often along many traces
    held = {}

    def wealths(s, skey):
        pair = held.get(skey)
        if pair is None:
            pair = held[skey] = (fraction_wealth(obs, s, prices),
                                 fraction_wealth(adversary, s, prices))
        return pair

    def rec(s, skey, k):
        if k == 0:
            return 0, 0, ()
        key = (skey, k)
        if key in memo:
            return memo[key]
        lost, got = wealths(s, skey)
        best = (0, 0, ())
        for tx in moves(s):
            r = execute(s, tx)
            if not r.valid:
                continue
            nkey = state_key(r.state)
            value, gain, trace = rec(r.state, nkey, k - 1)
            after_lost, after_got = wealths(r.state, nkey)
            cand = (lost - after_lost + value, after_got - got + gain, (tx,) + trace)
            if _beats(cand, best):
                best = cand
        memo[key] = best
        return best

    value, _, witness = rec(state, state_key(state), budget.max_depth)
    return Fraction(value), witness
