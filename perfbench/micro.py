"""Seeded stream of micro scenarios for the ``micro-exhaustive`` workload.

The families mirror the random micro states of the test suite
(``tests/helpers.py``): constant-product pools, fixed-rate exchanges, an
airdrop feeding an exchange, a faucet/relay pair, cells gating payouts, a
mutex vault pair, a pay-to-set cell gating a vault and a height-reading bet
on a pool.  Here each family enumerates a parameter grid instead of drawing
parameters, and emits ``.scn`` JSON documents, so the whole universe of
micro items is finite and its expected answers can be computed once
(``build_expected.py``).  Every document keeps its total token supply at
most 10, small enough for exhaustive enumeration.

An item is one scenario document (which fixes the split and the
exhaustive-mode ``ceiling``) plus a search depth of 2 or 3.  A seed orders
the whole universe (1288 items).  It does not pick a subset: when each
seed drew 1000 of them, the choice of items alone gave the median query
time an interquartile spread of 5% across seeds, about half of the spread
measured.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

DEPTHS = (2, 3)


def _doc(tokens, wallet, deployments, ceiling):
    """One scenario document per split that leaves a non-empty fragment."""
    for split in range(len(deployments)):
        yield {
            "tokens": [{"symbol": t, "price": 1} for t in tokens],
            "users": [{"name": "M", "wallet": {t: n for t, n in wallet.items() if n},
                       "adversary": True},
                      {"name": "A"}],
            "deployments": deployments,
            "split": split,
            "ceiling": ceiling,
        }


def _dep(contract, name, args, fund):
    return {"contract": contract, "name": name, "args": args,
            "fund": {t: n for t, n in fund.items() if n}, "by": "A"}


def _amm(name, t0, t1, f0, f1):
    return _dep("amm", name, {"t0": t0, "t1": t1}, {t0: f0, t1: f1})


R12 = (1, 2)
R13 = (1, 2, 3)


def _amm_solo():
    for r0, r1, m0, m1, ceiling in itertools.product(R13, R13, (0, 1, 2), (0, 1), (2, 3)):
        yield from _doc(("T0", "T1"), {"T0": m0, "T1": m1},
                        [_amm("AMM", "T0", "T1", r0, r1)], ceiling)


def _amm_pair():
    for m, a, b, c, d in itertools.product((0, 1, 2), R12, R12, R12, R12):
        yield from _doc(("T0", "T1", "T2"), {"T0": m},
                        [_amm("AMM1", "T0", "T1", a, b), _amm("AMM2", "T1", "T2", c, d)], 2)


def _exchange():
    for rate, m, out, ceiling in itertools.product(R13, (0, 1, 2), (1, 2, 3, 4), (3, 4)):
        yield from _doc(("TI", "TO"), {"TI": m},
                        [_dep("exchange", "Ex", {"tout": "TO", "tin": "TI", "rate": rate},
                              {"TO": out})], ceiling)


def _airdrop_exchange():
    for drop, rate, eth, ceiling in itertools.product(R12, R13, (1, 2, 3, 4), (3, 4)):
        yield from _doc(("T", "ETH"), {},
                        [_dep("airdrop", "Drop", {"token": "T"}, {"T": drop}),
                         _dep("exchange", "Ex", {"tout": "ETH", "tin": "T", "rate": rate},
                              {"ETH": eth})], ceiling)


def _relay():
    for k, out, fund, ceiling in itertools.product(R12, R13, (3, 4), (2, 3)):
        yield from _doc(("T0", "T1"), {},
                        [_dep("faucet", "C0", {"token": "T0", "amount": k}, {"T0": k}),
                         _dep("relay", "C1", {"tin": "T0", "amount_in": k, "tout": "T1",
                                              "amount_out": out}, {"T1": fund})], ceiling)


def _cells():
    for kind in ("cell", "once_cell"):
        cell = _dep(kind, "X", {}, {})
        for f in R13:
            yield from _doc(("T",), {}, [cell, _dep("gated_drop", "C", {"cell": "X", "token": "T"},
                                                    {"T": f})], 3)
            yield from _doc(("T",), {}, [cell, _dep("dropper", "D1", {"var": "X", "token": "T"},
                                                    {"T": f})], 3)
        for f1, f2 in itertools.product(R13, R13):
            yield from _doc(("T",), {},
                            [cell, _dep("dropper", "D1", {"var": "X", "token": "T"}, {"T": f1}),
                             _dep("dropper", "D2", {"var": "X", "token": "T"}, {"T": f2})], 3)


def _mutex():
    for m, ceiling in itertools.product((0, 1, 2), (1, 2, 3)):
        yield from _doc(("T",), {"T": m},
                        [_dep("mutex_vault", "C1", {"token": "T"}, {"T": 1}),
                         _dep("mutex_follower", "C2", {"c1": "C1", "token": "T"}, {"T": 1})],
                        ceiling)


def _paid_vault():
    for m, eth, ceiling in itertools.product((0, 1, 2), (1, 2, 3, 4), (3, 4)):
        yield from _doc(("T", "ETH"), {"T": m},
                        [_dep("paid_cell", "C", {"token": "T"}, {}),
                         _dep("gated_vault", "D", {"cell": "C", "token": "ETH"}, {"ETH": eth})],
                        ceiling)


def _micro_bet():
    for m, deadline, pot in itertools.product((0, 1, 2, 3), (1, 2, 3, 4, 5), R12):
        yield from _doc(("ETH", "T"), {"ETH": m},
                        [_amm("AMM", "ETH", "T", 2, 2),
                         _dep("bet", "Bet", {"oracle": "AMM", "token": "T", "rate": 1,
                                             "deadline": deadline}, {"ETH": pot})], 3)


FAMILIES = (_amm_solo, _amm_pair, _exchange, _airdrop_exchange, _relay, _cells,
            _mutex, _paid_vault, _micro_bet)


def universe() -> list:
    """Every micro item as ``(key, family, scn_text, depth)``, in a fixed order.
    ``key`` is a content hash, so expected answers survive reordering."""
    items = []
    for family in FAMILIES:
        for doc in family():
            text = json.dumps(doc, sort_keys=True)
            for depth in DEPTHS:
                key = hashlib.sha256(f"{text}|{depth}".encode()).hexdigest()[:16]
                items.append((key, family.__name__.lstrip("_"), text, depth))
    return items


def stream(seed: int) -> list:
    """Every item of the universe, in an order drawn from ``seed``."""
    items = universe()
    random.Random(seed).shuffle(items)
    return items
