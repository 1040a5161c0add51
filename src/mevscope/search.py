"""Bounded adversarial search for extractable value.

The engine maximises over traces of adversary-crafted transactions, bounded
by a trace-length budget.  Contracts propose calls, through their move
generators or, in micro mode, by exhaustive signature-driven enumeration (run
once per search for each user set it reaches: see
``_MaxSearch._exhaustive_moves``), and one signer, ``_signed``, sends each
call from every adversary account whose wallet covers its attachment.  A
call its origin cannot pay is rejected at the debit, before the contract
runs, so it can change no value, witness or verdict.  The exhaustive table
alone keeps such calls, since one table serves every adversary wallet a
search reaches.
Values are certified lower bounds of the unbounded-trace quantities.  A
result carries ``complete=True`` when the value hits the wealth upper bound
of the observed contracts, and is then exact, or when exhaustive mode ran
within its caps, and is then exact among traces of at most ``max_depth``
transactions (a longer trace may still extract more).

Invalid transactions are pruned: they cannot change any gain.  When a
deployed contract reads the block height, the moves include a tick, a call
the executor runs with no body, whose sole effect is advancing the height.
A valid move that leaves the node's memo key unchanged is not expanded
either: the key ignores the height when no contract reads it, and the move
changed no wallet and no contract store.  A trace through it ties in value
and gain with the same trace less that move, which is shorter and which the
node searches itself, so it never wins (a dominance rule; Ibaraki 1977).
When a contract reads the height, every move advances it, so every move
changes the key and none is skipped.

Every ply is scored the same way: ``vm.execute_delta`` runs the move and
reads the wealth changes of the objective's accounts and of the adversary off
the executor's overlay, and a trace's value is the sum of its moves'
changes.  Only a move that is expanded asks for the next state as well.

Tie-breaking among equal-value witnesses: larger adversary gain first, then
the shortest and lexicographically smallest trace.  This keeps reports
reproducible and makes witnesses prefer traces where the attacker also
banks the damage.

Two cuts read two bounds built from the contracts' ``loss_bound``
(``_MaxSearch.bounds``): within the plies left, the objective can rise by at
most what the observed contracts can still lose (all contracts, for the
adversary-gain objective), and the adversary can gain at most what all
contracts together can lose, since supply is conserved and users outside
the adversary only receive.  A node with k plies left is bounded at k, and
the state an expanded move leads to at k - 1.
The child cut (branch and bound, Land & Doig 1960) skips the state an
expanded move leads to when the move's change plus that state's bounds
cannot beat the node's best so far, on value or, at a tied value, on gain.
How much it skips depends on how early the best gets high (Knuth & Moore
1975), so a node runs its moves, each offering its one-move trace, before
it visits the children best-first: by that optimistic value and gain, then
the next state's value bound and gain bound, then move order.  At a tied
optimistic value this goes first to the child whose own step gained least
and whose state can still lose most, which on the bet is the pump its
witness starts with.  Once one child is cut, every later one is too.
The span cut: once a node's best reaches both bounds with a trace of
length L, neither value nor gain can grow, so a later trace wins only by
being shorter, or as long with a smaller trace key.  A move whose key
sorts before the best's first move then starts traces of at most L moves,
any other of at most L - 1.  Moves run in key order; a one-move trace that
reaches both node bounds ends the node, and later moves are skipped by key.
Both cuts compare values and move keys, never positions, so the result
does not depend on the order moves are visited in.
The bounds depend on the state and the plies left alone, and never decrease
as the plies left grow, so a child the span cut searches to fewer than
k - 1 plies stays bounded; and a cut child is never stored, so every memo
entry, keyed on (state, remaining depth), still holds the exact best.
``complete``, ``_search``'s ``upper`` and ``rlmev``'s stop keep the wealth
bound, which holds over traces of any length.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .ledger import (
    Account,
    BlockchainState,
    PriceMap,
    Token,
    Wallet,
    contract_holdings,
    total_supply,
    wealth,
    wealth_units,
)
from .vm import (
    TICK_METHOD,
    Transaction,
    check_well_formed,
    execute_delta,
    trace_key,
)

ESCALATION_CAP = 20          # wealthy-adversary wallet doublings before giving up
MEMO_CAP = 2_000_000         # memo entries per search; past it the search runs unmemoised
# ``_MaxSearch.run`` recurses once per ply: keep the deepest search well under
# CPython's default limit of 1,000 frames
MAX_SEARCH_DEPTH = 256


@dataclass(frozen=True)
class SearchBudget:
    """Bounds of one search: trace length, amount-grid resolution, mode."""

    max_depth: int = 4
    grid: int = 8
    exhaustive: bool = False
    ceiling: Optional[int] = None   # exhaustive-mode amount ceiling

    def __post_init__(self) -> None:
        if not 1 <= self.max_depth <= MAX_SEARCH_DEPTH:
            raise ValueError(f"max_depth must be between 1 and {MAX_SEARCH_DEPTH}")
        if self.grid < 1:
            raise ValueError("grid must be >= 1")


@dataclass(frozen=True)
class MevResult:
    """An extractable-value figure with the witness trace achieving it."""

    value: Fraction
    witness: tuple
    complete: bool
    warning: Optional[str] = None
    ladder: tuple = ()   # ((scale, value), ...) of ``rlmev``'s rungs
    # ``rlmev``: the adversary users of the rung the result came from
    adversary_wallet: Optional[Mapping[Account, Wallet]] = field(default=None, hash=False)


def _signed(state: BlockchainState, restriction, calls, unpayable: bool = False) -> tuple:
    """Every call ``calls(acc)`` proposes to a contract ``acc`` in
    ``restriction`` (None meaning the whole universe), sent from every
    adversary account whose wallet in ``state`` covers the call's
    attachment, token by token, plus the tick move when a deployed contract
    reads the height; deduplicated and deterministically ordered.

    A call its origin cannot pay is an invalid move whatever the contract
    does: the executor rejects it at the debit, before the callee runs, so
    dropping it changes no search.  ``unpayable`` signs such calls too, from
    every adversary account: the exhaustive table does, since one table
    serves every adversary wallet a search reaches."""
    if restriction is not None:
        restriction = frozenset(restriction)
    origins = sorted(state.adversary)
    # each origin's wallet, read once; None pays for every call
    payers = [(origin, None if unpayable else state.user_wallet(origin)) for origin in origins]
    # each move by its key, the last one signed of a key kept, and the
    # least target, which the tick calls
    uniq: dict = {}
    least = None
    for acc in state.order:
        if restriction is not None and acc not in restriction:
            continue
        if least is None or acc < least:
            least = acc
        proposed = calls(acc)
        for origin, wallet in payers:
            for call in proposed:
                if wallet is None or len(call) < 3 or wallet.covers(call[2]):
                    tx = Transaction(origin, acc, *call)
                    uniq[tx.key()] = tx
    if least is not None and origins:
        for acc in state.order:
            if state.codes[acc].reads_height:
                tx = Transaction(origins[0], least, TICK_METHOD)
                uniq[tx.key()] = tx
                break
    return tuple(map(uniq.__getitem__, sorted(uniq)))


def adversary_moves(state: BlockchainState, restriction, budget: SearchBudget) -> tuple:
    """Candidate adversary transactions targeting contracts in ``restriction``
    (None meaning the whole universe): every call a targeted contract's
    generator proposes, signed by ``_signed`` from each adversary account
    that can pay it."""
    def calls(acc):
        gen = state.codes[acc].move_generator
        return () if gen is None else gen(state, acc, budget)
    return _signed(state, restriction, calls)


def default_ceiling(state: BlockchainState) -> int:
    supply = total_supply(state)
    return max([n for _, n in supply.items()] + [3])


def universal_moves(state: BlockchainState, tokens: Sequence[Token],
                    budget: SearchBudget, restriction=None) -> tuple:
    """Exhaustive signature-driven enumeration of adversary transactions.

    Each targeted contract is proposed every method with every argument
    tuple from its declared domains and every attachment up to the amount
    ceiling, and ``_signed`` sends each call from every adversary account,
    those calls it cannot pay too.  Intended for micro states; guard-only
    arguments declare singleton domains, documented on the signatures
    themselves.  The search fills a per-search table from it once for each
    user set, rather than calling it at every node, so the table is the
    same whatever the adversary holds.
    """
    ceiling = budget.ceiling if budget.ceiling is not None else default_ceiling(state)
    accounts = tuple(sorted(state.users)) + tuple(state.order)

    def calls(acc):
        out = []
        for mname, mdef in sorted(state.codes[acc].methods.items()):
            arg_domains = [a.domain(tokens, accounts, ceiling) for a in mdef.args]
            slot_domains = [tuple(s.combos(tokens, ceiling)) for s in mdef.attach]
            out += [(mname, args, Wallet(combo)) for args in itertools.product(*arg_domains)
                    for combo in itertools.product(*slot_domains)]
        return out
    return _signed(state, restriction, calls, unpayable=True)


def _better(cand, best) -> bool:
    """Maximise value, then adversary gain; then prefer the shortest and
    lexicographically smallest trace.  Trace keys are built only when value,
    gain and length all tie."""
    if cand[0] != best[0]:
        return cand[0] > best[0]
    if cand[1] != best[1]:
        return cand[1] > best[1]
    if len(cand[2]) != len(best[2]):
        return len(cand[2]) < len(best[2])
    return trace_key(cand[2]) < trace_key(best[2])


_LEAF = (0, 0, ())      # (value, gain, trace) of the empty trace


class _MaxSearch:
    """Shared depth-limited search core: maximises ``sign`` times the wealth
    of ``accounts``, ties broken on the adversary's wealth."""

    def __init__(self, state, prices, budget, restriction, accounts: tuple, sign: int):
        self.prices = prices
        self.budget = budget
        self.restriction = restriction
        self.accounts = accounts
        self.sign = sign
        self.groups = (accounts, tuple(sorted(state.adversary)))
        self.adversary = state.adversary
        # deployments and the adversary are fixed within a search: per
        # contract, its bound, whether a deployed contract calls it and
        # whether it counts toward the objective's bound
        callees = frozenset().union(*(state.codes[a].declared_deps for a in state.order))
        self.bounders = tuple((a, state.codes[a].loss_bound, a.name in callees,
                               sign > 0 or a in accounts) for a in state.order)
        self.tokens = prices.tokens()
        self.include_height = any(state.codes[a].reads_height for a in state.order)
        self.memo: dict = {}
        self.capped = False
        # exhaustive mode: sorted user accounts -> ``universal_moves``' answer
        self.move_table: dict = {}

    def bounds(self, state: BlockchainState, plies: int) -> tuple:
        """Upper bounds, in integer price units, on the objective's increase
        and on the adversary's gain over any trace of at most ``plies``
        moves from ``state``.

        Both rest on the contracts' ``loss_bound``: a loss objective (sign
        -1, ``accounts`` contracts) gains at most what those contracts can
        lose; supply is conserved and users outside the adversary only
        receive, so the whole adversary (the gain objective's ``accounts``)
        gains at most what all contracts together can lose.  The bounds
        depend on the state and ``plies`` alone, and never decrease as
        ``plies`` grows, so a memo entry keyed on (state, remaining depth)
        stays exact, and a child bounded at the node's remaining depth
        less one stays bounded when the span cut searches it less deep."""
        units, contracts, adversary = self.prices.units, state.contracts, self.adversary
        objective = total = 0
        for acc, loss_bound, called, counted in self.bounders:
            loss = loss_bound(contracts[acc], units, plies, adversary=adversary, called=called)
            total += loss
            if counted:
                objective += loss
        return objective, total

    def _exhaustive_moves(self, state):
        """``universal_moves(state, ...)``, enumerated once per user set.

        Within one search the enumeration reads the state only through its
        account domain, the sorted users followed by the deployment order:
        tokens, restriction, deployed code, adversary and ceiling are fixed,
        and the default ceiling is the largest token supply, which no
        transaction changes.  The deployment order is fixed too, so the
        users alone key the table."""
        ukey = tuple(sorted(state.users))
        moves = self.move_table.get(ukey)
        if moves is None:
            moves = self.move_table[ukey] = universal_moves(
                state, self.tokens, self.budget, self.restriction)
        return moves

    def run(self, state):
        """Maximise over traces from ``state``: the value of a trace is the
        end-to-end objective increase, in integer price units.  Ties break
        on adversary gain, then on the shortest and lexicographically
        smallest trace.

        A node with k plies left runs its moves in move order and offers
        each one-move trace as the move runs: each was always a candidate,
        and ``_better`` is a total order, so their arrival order cannot
        change the best.  With two or more plies left it then visits the
        children best-first: by decreasing optimistic value (the move's
        change plus the next state's ``bounds`` at k - 1 plies), then
        optimistic gain, then the next state's value bound, then its gain
        bound, then move order.  A move whose next state has the node's own
        memo key (the key ignores the height, the move changed no group's
        wealth and ``core_key`` is unchanged) is not kept as a child: every
        trace through it ties in value and gain with the same trace less
        that move, which is one move shorter and searched by this node, so
        it never wins, and the node's memo entry stays exact.

        Two cuts read ``bounds`` and change no result, whatever the visiting
        order.  The child cut: a child whose optimistic value and gain
        cannot beat the best (on value, or on gain at a tied value) is not
        searched, and, visited best-first, neither is any later one.  The
        span cut: once the best reaches the node's bounds with a trace of
        length L, a later trace wins only by being shorter, or as long with
        a smaller key.  So a move whose key sorts before the best's first
        move is searched to L - 1 further plies and any other move to L - 2,
        and a child left fewer than one is not searched: its one-move trace
        was already offered.  Moves run in key order; a one-move trace that
        reaches both node bounds ends the node (L = 1), and later moves are
        skipped by key."""
        memo, budget, restriction = self.memo, self.budget, self.restriction
        groups, units, sign = self.groups, self.prices.units, self.sign
        bounds, include_height = self.bounds, self.include_height
        # ``adversary_moves`` is looked up at each node, so a wrapper set on
        # the module sees every call
        moves_of = (self._exhaustive_moves if budget.exhaustive
                    else lambda state: adversary_moves(state, restriction, budget))
        cap = MEMO_CAP
        # an expanded child's visiting order: optimistic value and gain, then
        # the next state's value and gain bounds
        optimistic = operator.itemgetter(0, 1, 2, 3)

        def best(state, k):
            mkey = ((state.core_key(), state.height, k) if include_height
                    else (state.core_key(), k))
            hit = memo.get(mkey)
            if hit is not None:
                return hit
            moves = moves_of(state)
            top = _LEAF
            node_bounds = None
            # once ``top`` reaches both node bounds: its length and the key
            # of its first move (the span cut)
            length = first = None
            children = []
            for tx in moves:
                if first is not None and tx.key() > first:
                    continue
                step = execute_delta(state, tx, groups, units, k > 1)
                if step is None:
                    continue
                (dv, dg), nxt = step
                cand = (sign * dv, dg, (tx,))
                if _better(cand, top):
                    top = cand
                    if node_bounds is None:
                        node_bounds = bounds(state, k)
                    if cand[0] >= node_bounds[0] and cand[1] >= node_bounds[1]:
                        length, first = 1, tx.key()
                # a child with the node's own memo key only leads to traces
                # the node searches one move shorter
                if k > 1 and not (dv == dg == 0 and not include_height
                                  and nxt.core_key() == state.core_key()):
                    vb, gb = bounds(nxt, k - 1)
                    children.append((sign * dv + vb, dg + gb, vb, gb, tx, dv, dg, nxt))
            # best-first; the sort is stable, so ties keep move order
            children.sort(key=optimistic, reverse=True)
            for vo, go, _, _, tx, dv, dg, nxt in children:
                # the child cut, for this child and every later one
                if vo < top[0] or (vo == top[0] and go < top[1]):
                    break
                further = k - 1
                if first is not None:
                    further = length - 1 if tx.key() < first else length - 2
                    # its one-move trace was offered as its move ran
                    if further < 1:
                        continue
                sub = best(nxt, further)
                cand = (sign * dv + sub[0], dg + sub[1], (tx,) + sub[2])
                if _better(cand, top):
                    top = cand
                    if node_bounds is None:
                        node_bounds = bounds(state, k)
                    if cand[0] >= node_bounds[0] and cand[1] >= node_bounds[1]:
                        length, first = len(cand[2]), tx.key()
            if len(memo) < cap:
                memo[mkey] = top
            else:
                self.capped = True
            return top

        return best(state, budget.max_depth)


def _search(state: BlockchainState, prices: PriceMap, budget: SearchBudget, restriction,
            accounts: tuple, sign: int, upper: int) -> MevResult:
    """Maximise ``sign`` times the wealth of ``accounts`` over traces from
    ``state``.  The value is exact when it reaches the wealth bound ``upper``
    (so a zero bound needs no search) or the enumeration was exhaustive.
    ``upper`` is in integer price units; the value is converted back to a
    Fraction here, once."""
    if upper == 0:
        return MevResult(Fraction(0), (), True)
    engine = _MaxSearch(state, prices, budget, restriction, accounts, sign)
    units, _, witness = engine.run(state)
    complete = budget.exhaustive or units == upper
    warning = "memo cap exceeded; search ran unmemoised" if engine.capped else None
    return MevResult(Fraction(units, prices.scale), witness, complete, warning)


def lmev(state: BlockchainState, observed, restriction, prices: PriceMap,
         budget: SearchBudget = SearchBudget()) -> MevResult:
    """Maximal loss the adversary can inflict on ``observed`` contracts using
    transactions that target only ``restriction`` (None = no restriction).

    A certified lower bound of the unbounded-trace quantity; exact when the
    returned value equals the observed contracts' wealth, and exact among
    traces of at most ``max_depth`` transactions in exhaustive mode.  The
    empty trace clamps the value at zero.
    """
    if not check_well_formed(state):
        raise ValueError("lmev: state is not well-formed")
    obs_t = tuple(sorted(frozenset(observed) & state.deployed))
    restr = None if restriction is None else frozenset(restriction)
    # the objective is the observed contracts' loss: it grows as their wealth falls
    return _search(state, prices, budget, restr, obs_t, -1,
                   wealth_units(obs_t, state, prices))


def global_mev(state: BlockchainState, prices: PriceMap,
               budget: SearchBudget = SearchBudget()) -> MevResult:
    """Maximal adversary gain over bounded traces (no call restriction)."""
    if not check_well_formed(state):
        raise ValueError("global_mev: state is not well-formed")
    adv_t = tuple(sorted(state.adversary))
    # the adversary can only gain what contracts hold; with no adversary
    # accounts there are no craftable transactions at all
    upper = wealth_units(tuple(state.order), state, prices) if adv_t else 0
    return _search(state, prices, budget, None, adv_t, 1, upper)


def rich_state(state: BlockchainState, tokens: Sequence[Token], budget: SearchBudget,
               scale: int) -> BlockchainState:
    """``state`` with every adversary account holding, of each of
    ``tokens``, ``scale`` times the contracts' holdings plus the grid.  Other
    user wallets are dropped (they cannot influence any adversary trace); a
    state without an adversary gets the one account ``Madv``."""
    held = contract_holdings(state)
    wallet = Wallet({t: (held.get(t) + budget.grid) * scale for t in tokens})
    adversary = state.adversary or frozenset({Account.user("Madv")})
    return BlockchainState({a: wallet for a in adversary}, state.contracts, state.order,
                           state.codes, state.height, adversary)


def rlmev(state: BlockchainState, observed, restriction, prices: PriceMap,
          budget: SearchBudget = SearchBudget()) -> MevResult:
    """Wealthy-adversary local value: ``lmev`` against adversary wallets of
    ``rich_state(..., scale)``, doubling the scale from 1 until the value
    plateaus or reaches the observed contracts' wealth.  The plateau exists
    because that wealth bounds the loss and the value is monotone in the
    adversary's wallet: no move generator reads a user wallet, so a richer
    rung gets every proposal of a poorer one and, its wallet covering more,
    a superset of the moves (the extra ones are calls the poorer rung could
    not pay).  So every trace of one rung is a trace of the next, with the
    same changes.  The
    first rung whose value does not rise is the plateau, and the result is
    the rung before it.  The result's ``ladder`` holds every rung's
    ``(scale, value)`` and its ``adversary_wallet`` the users of the rung it
    came from.  Past ``ESCALATION_CAP`` doublings the result is marked
    incomplete, never trusted."""
    obs = frozenset(observed) & state.deployed
    upper = wealth(tuple(sorted(obs)), state, prices)
    tokens = prices.tokens()
    ladder = []
    prev: Optional[MevResult] = None
    scale = 1
    for _ in range(ESCALATION_CAP + 1):
        rich = rich_state(state, tokens, budget, scale)
        res = lmev(rich, obs, restriction, prices, budget)
        ladder.append((scale, res.value))
        if prev is not None and res.value <= prev.value:
            return replace(prev, ladder=tuple(ladder))
        res = replace(res, adversary_wallet=rich.users)
        if res.value == upper:
            return replace(res, ladder=tuple(ladder))
        prev = res
        scale *= 2
    return replace(prev, complete=False, warning="escalation cap reached without a plateau",
                   ladder=tuple(ladder))


def stability_probe(state: BlockchainState, observed, restriction,
                    prices: PriceMap, budget: SearchBudget = SearchBudget()) -> tuple:
    """The escalation ladder of ``rlmev``: ((scale, value), ...)."""
    return rlmev(state, observed, restriction, prices, budget).ladder
