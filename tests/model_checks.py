"""Reference checks of the model's assumptions against the executor; the
analyzer reads these properties only as declarations (for example
``ContractCode.sender_agnostic``)."""

from typing import Iterable, Mapping, Optional, Sequence

from mevscope import (Account, BlockchainState, PriceMap, Transaction, Wallet, deploy,
                      execute, execute_trace, probe_call, wealth)
from mevscope.ledger import EMPTY_WALLET
from mevscope.vm import ContractCode

# deployed without code to stand in as a contract sender: tokens may only be
# paid to deployed contracts
PROBE_SENDER = ContractCode(name="__probe_sender__", methods={})


def gain(accounts: Iterable[Account], state: BlockchainState,
         trace: Sequence[Transaction], prices: PriceMap):
    """Wealth delta of ``accounts`` after firing ``trace`` from ``state``."""
    accs = tuple(accounts)
    end = execute_trace(state, trace).state
    return wealth(accs, end, prices) - wealth(accs, state, prices)


def check_wallet_monotonic(state: BlockchainState, tx: Transaction,
                           delta: Mapping[Account, Wallet]) -> bool:
    """Enriching user wallets by ``delta`` preserves the effect of a valid
    ``tx`` up to the enrichment."""
    base = execute(state, tx)
    if not base.valid:
        raise ValueError("check_wallet_monotonic: tx is invalid in the base state")
    for acc in delta:
        if not acc.is_user:
            raise ValueError("delta must enrich user wallets")
    enriched_users = dict(state.users)
    for acc, w in delta.items():
        enriched_users[acc] = state.user_wallet(acc) + w
    rich = state.with_users(enriched_users)
    res = execute(rich, tx)
    if not res.valid:
        return False
    expect_users = dict(base.state.users)
    for acc, w in delta.items():
        expect_users[acc] = base.state.user_wallet(acc) + w
    expected = base.state.with_users(expect_users)
    return res.state == expected


def sender_agnostic_witness(state: BlockchainState, callee: Account, method: str,
                            args: tuple = (), attached: Wallet = EMPTY_WALLET) -> Optional[str]:
    """Run one method under several senders (same origin, args, attachment)
    and diff the effects modulo the sender-directed transfer.

    The origin is the least adversary account (a ``probe`` user when there
    is none); the senders are the origin, a phantom contract and every
    contract deployed after the callee.  The phantom is deployed last, with
    no code, so that it can be paid.  Returns None when every run agrees
    (the sender-agnostic contract shape) or a short description of the first
    difference.  Each run is a ``probe_call``: the attachment is granted to
    the callee directly, so a contract that holds nothing can stand in as a
    sender, and no final check runs.
    """
    origin = min(state.adversary) if state.adversary else Account.user("probe")
    # legitimate contract senders are callers, hence deployed after the
    # callee; earlier contracts could collide with store-directed payouts
    idx = state.order.index(callee)
    senders = [origin, PROBE_SENDER.account]
    senders += state.order[idx + 1:]
    probed = deploy(state, PROBE_SENDER, deployer=origin)

    def run(sender: Account):
        sc, frame = probe_call(probed, origin, sender, callee, method, args, attached)
        deltas = {}
        for acc, d in sc.w.items():
            before = sc.base_wallet(acc)
            keys = set(d) | {t for t, _ in before.items()}
            diff = tuple(sorted(
                (t, d.get(t, 0) - before.get(t))
                for t in keys
                if d.get(t, 0) != before.get(t)
            ))
            if diff:
                key = "<sender>" if acc == sender else f"{acc.kind}:{acc.name}"
                deltas[key] = diff
        stores = {acc.name: tuple(sorted(d.items())) for acc, d in sc.st.items()}
        ret = None if frame is None else frame[0]
        return frame is None, ret, tuple(sorted(deltas.items())), tuple(sorted(stores.items()))

    runs = [(s, run(s)) for s in senders]
    first_sender, first = runs[0]
    labels = ("aborted", "return value", "token deltas", "store writes")
    for sender, other in runs[1:]:
        if other == first:
            continue
        for name, x, y in zip(labels, first, other):
            if x != y:
                return (f"{name} differ between senders "
                        f"{first_sender} and {sender}: {x!r} vs {y!r}")
    return None
