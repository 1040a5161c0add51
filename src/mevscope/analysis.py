"""Composability analysis: non-interference verdicts and supporting checks.

The two verdict relations compare what an adversary can extract from a set
of newly deployed contracts when allowed to touch the whole state against
what the same adversary extracts when confined to the new contracts alone.
``nonint`` fixes the adversary's wealth to the given state; ``richnonint``
takes the wealthy-adversary value, which is wallet-independent.

Verdicts are three-valued.  ``nonint`` and ``richnonint`` emit "holds"
only when a sufficient condition fires or when both searched values are
complete (wealth bound hit or exhaustive enumeration); a budget-limited
equality without either yields "unknown".  ``epsilon_composable`` is
budget-relative: it emits "holds" whenever the searched values meet its
bound, with ``complete`` False when either search was cut short.
"violated" verdicts always carry a witness; a ``richnonint``
witness is found against an escalated adversary wallet, so it may not
replay from the given state.

Two sufficient conditions are tried before any search.  Token independence
reads only the contracts' declared token sets.  Stability runs each context
method the new contracts call as the outermost frame of a probe (see
``vm.probe_call``), in the given state and in the states adversary moves on
the context reach, and compares what the probes observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .ledger import Account, BlockchainState, PriceMap
from .search import (
    SearchBudget,
    adversary_moves,
    global_mev,
    lmev,
    rich_state,
    rlmev,
)
from .vm import Transaction, check_well_formed, deps, execute, probe_call

JUST_ZERO_MEV = "zero-mev"
JUST_CONTRACT_INDEP = "contract-independent"
JUST_STABLE = "stable"
JUST_SEARCH = "direct-search"
JUST_COUNTEREXAMPLE = "counterexample"

PROBE_STATE_CAP = 4096   # distinct states the stability probe visits before "unknown"
_PROBER = Account.user("__prober__")   # a throwaway user that signs every probe


@dataclass(frozen=True)
class Verdict:
    """Outcome of a composability check.

    ``holds`` is True / False / None (unknown).  ``lhs_value`` is the
    unrestricted figure, ``rhs_value`` the restricted (or baseline) one;
    either may be None when a sufficient condition decided the verdict
    without running the search.
    """

    holds: Optional[bool]
    justification: str
    lhs_value: Optional[Fraction] = None
    rhs_value: Optional[Fraction] = None
    witness: Optional[tuple] = None
    complete: bool = False
    note: str = ""

    @property
    def outcome(self) -> str:
        if self.holds is True:
            return "holds"
        if self.holds is False:
            return "violated"
        return "unknown"


# --- state surgery -------------------------------------------------------------


def strip(state: BlockchainState, keep: Iterable[Account]) -> BlockchainState:
    """Restrict the contract part to the dependency closure of ``keep``.

    The result is well-formed: the closure is downward-closed in the
    deployment order.  User wallets are preserved.
    """
    closure = deps(keep, state)
    return _sub_state(state, tuple(a for a in state.order if a in closure))


def without_contracts(state: BlockchainState, drop: Iterable[Account]) -> BlockchainState:
    """Remove a suffix fragment (no remaining contract may depend on it)."""
    dropset = frozenset(drop)
    keep = tuple(a for a in state.order if a not in dropset)
    for a in keep:
        if any(Account.contract(n) in dropset for n in state.codes[a].declared_deps):
            raise ValueError(f"{a} depends on a dropped contract")
    return _sub_state(state, keep)


def _sub_state(state: BlockchainState, order: tuple) -> BlockchainState:
    """``state`` with only the contracts of ``order``, a subsequence of its
    deployment order."""
    return BlockchainState(
        state.users,
        {a: state.contracts[a] for a in order},
        order,
        {a: state.codes[a] for a in order},
        state.height,
        state.adversary,
    )


# --- token and contract independence ---------------------------------------------


def intok_outtok(state: BlockchainState, fragment: Iterable[Account]) -> tuple:
    """(receivable, sendable) token sets of a contract fragment: the union of
    its contracts' declared sets, where a declared ``None`` means every
    scenario token.

    The declarations over-approximate the tokens a contract's frames are
    attached and pay out (a catalog test checks them against every generated
    move), which makes a True token-independence verdict sound.  No move is
    run.
    """
    all_tokens = frozenset(prober_tokens(state))
    intok: set = set()
    outtok: set = set()
    for acc in frozenset(fragment) & state.deployed:
        code = state.codes[acc]
        intok |= all_tokens if code.intok_decl is None else code.intok_decl
        outtok |= all_tokens if code.outtok_decl is None else code.outtok_decl
    return frozenset(intok), frozenset(outtok)


def prober_tokens(state: BlockchainState) -> tuple:
    toks = set()
    for w in state.users.values():
        toks.update(t for t, _ in w.items())
    for cs in state.contracts.values():
        toks.update(t for t, _ in cs.wallet.items())
    for code in state.codes.values():
        toks.update(code.intok_decl or ())
        toks.update(code.outtok_decl or ())
    return tuple(sorted(toks))


def token_independent(state: BlockchainState, frag_a: Iterable[Account],
                      frag_b: Iterable[Account]) -> bool:
    in_a, out_a = intok_outtok(state, frag_a)
    in_b, out_b = intok_outtok(state, frag_b)
    return not (in_a & out_b) and not (in_b & out_a)


def contract_independent(state: BlockchainState, frag_a: Iterable[Account],
                         frag_b: Iterable[Account]) -> bool:
    return not (deps(frag_a, state) & deps(frag_b, state))


# --- stability under adversary moves ----------------------------------------------


def _observations(state: BlockchainState, watched: Sequence[Transaction]) -> tuple:
    """Observations (probe, valid, return, transfers) of every probe, each
    run as the outermost frame with its attachment already paid, so funding
    never masks behaviour.  An observation is valid when the frame completed
    and the final checks hold; a completed frame whose final check fails
    still reports what it returned and transferred.  A probe that pays an
    undeployed contract raises ``ContractBugError``, as any run does."""
    obs = []
    for tx in watched:
        sc, frame = probe_call(state, tx.origin, tx.origin, tx.callee, tx.method, tx.args,
                               tx.attached)
        obs.append((tx, False, None, ()) if frame is None else (tx, sc.finals_hold(), *frame))
    return tuple(obs)


def stable_wrt_adversary(state: BlockchainState, context: Iterable[Account],
                         subject: Iterable[Account],
                         budget: SearchBudget = SearchBudget()) -> tuple:
    """Bounded falsification of "adversary moves on the context cannot change
    what the subject observes of it".

    Probes the observable behaviour (abort flag, return value, transferred
    tokens) of every context method the subject's code calls, in the given
    state and in every state reachable through adversary transactions on the
    context within the budget.  Returns ("stable" | "unstable" | "unknown",
    witness trace or None).  "stable" is a bounded-exploration conclusion:
    sound only as far as the probes and the reachable set go.  States are
    told apart by ``core_key``, and by the height as well when a contract of
    the context's dependency closure reads it, so that a tick, or a move
    that changes nothing else, still gives a new state to probe.  The adversary
    moves with the wallets ``state`` gives it; ``richnonint`` passes the
    first rung of ``rlmev``'s ladder.
    """
    ctx_accs = frozenset(context) & state.deployed
    subj_accs = frozenset(subject) & state.deployed
    watched = []
    missing = []
    for acc in sorted(subj_accs):
        for dep_name, method in sorted(state.codes[acc].calls_out):
            dep = Account.contract(dep_name)
            if dep not in ctx_accs:
                continue
            probes = [Transaction(_PROBER, dep, *call)
                      for call in state.codes[dep].probes if call[0] == method]
            if not probes:
                missing.append((dep_name, method))
            watched.extend(probes)
    if missing:
        return ("unknown", None)
    if not watched:
        return ("stable", None)   # no observable channel into the context

    base_obs = _observations(state, watched)
    # a probe can read the height only through the context's dependency
    # closure; when it can, a tick yields a new state to probe
    height = any(state.codes[a].reads_height for a in deps(ctx_accs, state))
    seen = {state.key() if height else state.core_key()}
    frontier = [(state, ())]
    for _ in range(budget.max_depth):
        nxt = []
        for cur, trace in frontier:
            for tx in adversary_moves(cur, ctx_accs, budget):
                res = execute(cur, tx)
                if not res.valid:
                    continue
                key = res.state.key() if height else res.state.core_key()
                if key in seen:
                    continue
                if len(seen) >= PROBE_STATE_CAP:
                    return ("unknown", None)
                seen.add(key)
                here = trace + (tx,)
                if _observations(res.state, watched) != base_obs:
                    return ("unstable", here)
                nxt.append((res.state, here))
        frontier = nxt
        if not frontier:
            break
    return ("stable", None)


# --- verdicts -------------------------------------------------------------------


def _fragment_split(state: BlockchainState, delta: Iterable[Account]) -> tuple:
    delta_accs = frozenset(delta) & state.deployed
    gamma_accs = state.deployed - delta_accs
    return gamma_accs, delta_accs


# the notes of the two sufficient conditions tried before any search, keyed
# by ``wealthy``: (contract independence, context stability)
_PRECHECK_NOTES = {
    False: ("token and contract independent", "token independent and context stable"),
    True: ("disjoint dependency cones", "context observations unchanged by adversary moves"),
}


def _noninterference(state: BlockchainState, delta: Iterable[Account],
                     prices: PriceMap, budget: SearchBudget, wealthy: bool) -> Verdict:
    """The verdict pipeline shared by ``nonint`` and ``richnonint``.

    The searches compare the extractable loss unrestricted vs
    delta-restricted: ``rlmev`` when ``wealthy``, else ``lmev``.  At the
    given wealth (not ``wealthy``) the sufficient conditions are tried only
    under token independence and the stability probe keeps the adversary's
    wallet; the wealthy pipeline skips the token check and probes with an
    enriched adversary."""
    if not check_well_formed(state):
        raise ValueError(f"{'richnonint' if wealthy else 'nonint'}: "
                         "composed state is not well-formed")
    gamma, delta_accs = _fragment_split(state, delta)

    if wealthy or token_independent(state, gamma, delta_accs):
        indep_note, stable_note = _PRECHECK_NOTES[wealthy]
        if contract_independent(state, gamma, delta_accs):
            return Verdict(True, JUST_CONTRACT_INDEP, note=indep_note)
        probed = rich_state(state, prices.tokens(), budget, 1) if wealthy else state
        status, _ = stable_wrt_adversary(probed, gamma, delta_accs, budget)
        if status == "stable":
            return Verdict(True, JUST_STABLE, note=stable_note)

    value = rlmev if wealthy else lmev
    unrestricted = value(state, delta_accs, None, prices, budget)
    if unrestricted.value == 0 and unrestricted.complete:
        return Verdict(True, JUST_ZERO_MEV, unrestricted.value, None,
                       complete=True, note="nothing extractable from the new contracts")
    restricted = value(state, delta_accs, delta_accs, prices, budget)
    complete = unrestricted.complete and restricted.complete
    if unrestricted.value > restricted.value:
        return Verdict(False, JUST_COUNTEREXAMPLE, unrestricted.value,
                       restricted.value, unrestricted.witness, complete=complete)
    return Verdict(True if complete else None, JUST_SEARCH,
                   unrestricted.value, restricted.value, complete=complete,
                   note="" if complete else "no gap found within budget")


def nonint(state: BlockchainState, delta: Iterable[Account], prices: PriceMap,
           budget: SearchBudget = SearchBudget()) -> Verdict:
    """Non-interference at the given adversary wealth: unrestricted vs
    delta-restricted extractable loss of the delta contracts must agree.
    The restricted value never exceeds the unrestricted one, so only a
    strict unrestricted excess falsifies."""
    return _noninterference(state, delta, prices, budget, wealthy=False)


def richnonint(state: BlockchainState, delta: Iterable[Account], prices: PriceMap,
               budget: SearchBudget = SearchBudget()) -> Verdict:
    """Wealth-independent non-interference: the wealthy-adversary values of
    the delta contracts, unrestricted vs delta-restricted, must agree."""
    return _noninterference(state, delta, prices, budget, wealthy=True)


def epsilon_composable(state: BlockchainState, delta: Iterable[Account],
                       epsilon: Fraction, prices: PriceMap,
                       budget: SearchBudget = SearchBudget()) -> Verdict:
    """Whole-state criterion: deploying delta must not raise the global
    extractable value by more than a (1 + epsilon) factor.  Searched values
    are lower bounds, so "violated" is budget-certified while "holds" is
    budget-relative unless both sides are complete."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if not check_well_formed(state):
        raise ValueError("epsilon_composable: composed state is not well-formed")
    _, delta_accs = _fragment_split(state, delta)
    baseline_state = without_contracts(state, delta_accs)
    lhs = global_mev(state, prices, budget)
    rhs = global_mev(baseline_state, prices, budget)
    ok = lhs.value <= (1 + epsilon) * rhs.value
    complete = lhs.complete and rhs.complete
    if ok:
        return Verdict(True, JUST_SEARCH, lhs.value, rhs.value, complete=complete,
                       note="" if complete else "holds at the searched budget")
    return Verdict(False, JUST_COUNTEREXAMPLE, lhs.value, rhs.value,
                   lhs.witness, complete=complete)


# --- stripping ---------------------------------------------------------------------


@dataclass(frozen=True)
class StrippingReport:
    status: str                     # "verified" | "mismatch" | "hypothesis-not-met"
    reason: str
    full_value: Optional[Fraction] = None
    stripped_value: Optional[Fraction] = None


def verify_stripping(state: BlockchainState, observed: Iterable[Account],
                     restriction, prices: PriceMap,
                     budget: SearchBudget = SearchBudget()) -> StrippingReport:
    """Check that dropping non-dependencies of the observed contracts
    preserves the wealthy-adversary value.

    That preservation is guaranteed when the boundary contracts (those both
    in the observed closure and reachable from the restriction outside it)
    are sender-agnostic and themselves callable; when the hypothesis fails
    the report says so instead of claiming a boolean, but still carries both
    values so the gap can be inspected.
    """
    obs = frozenset(observed) & state.deployed
    restr_universe = state.deployed if restriction is None else frozenset(restriction)
    obs_closure = deps(obs, state)
    outside = restr_universe - obs_closure
    boundary = obs_closure & (deps(outside, state) if outside else frozenset())

    full = rlmev(state, obs, restriction, prices, budget)
    stripped_state = strip(state, obs)
    if stripped_state.order == state.order:
        # nothing stripped: the same state, and a restriction the search
        # meets only through the deployed contracts, so the same ladder
        stripped = full
    else:
        restr2 = restriction if restriction is None else (
            frozenset(restriction) & stripped_state.deployed)
        stripped = rlmev(stripped_state, obs, restr2, prices, budget)

    not_agnostic = sorted(a.name for a in boundary
                          if not state.codes[a].sender_agnostic)
    uncallable = sorted(a.name for a in boundary - restr_universe)
    if not_agnostic or uncallable:
        reasons = []
        if not_agnostic:
            reasons.append(f"boundary contracts not sender-agnostic: {not_agnostic}")
        if uncallable:
            reasons.append(f"boundary contracts outside the callable set: {uncallable}")
        return StrippingReport("hypothesis-not-met", "; ".join(reasons),
                               full.value, stripped.value)
    if full.value == stripped.value:
        return StrippingReport("verified", "values agree across stripping",
                               full.value, stripped.value)
    return StrippingReport("mismatch", "stripping changed the value",
                           full.value, stripped.value)
