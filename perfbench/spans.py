"""Span recorder for the traced run.

The recorder wraps public functions of mevscope at every module binding that
callers use: a function imported with ``from .vm import execute`` is patched
as ``mevscope.search.execute``, ``mevscope.analysis.execute`` and so on, not
only as ``mevscope.vm.execute``.  Each call records one span (name, start,
end, parent) in flat arrays kept in memory.  Spans nest strictly because the
benchmark drives the program from one thread, so a span's self time is its
duration minus the durations of its direct children.

Only the functions in ``WRAPPED`` are wrapped.  Helpers such as
``vm.trace_key`` are deliberately left out, so their time stays in the self
time of the layer that calls them (the search's tie-break, for example).
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from functools import wraps

# (span name, module, function).  The span name is "<layer>.<function>".
WRAPPED = (
    ("scenario.parse_scenario", "mevscope.scenario", "parse_scenario"),
    ("scenario.build_state", "mevscope.scenario", "build_state"),
    ("ledger.wealth", "mevscope.ledger", "wealth"),
    ("vm.execute", "mevscope.vm", "execute"),
    ("search.lmev", "mevscope.search", "lmev"),
    ("search.rlmev", "mevscope.search", "rlmev"),
    ("search.global_mev", "mevscope.search", "global_mev"),
    ("search.stability_probe", "mevscope.search", "stability_probe"),
    ("search.adversary_moves", "mevscope.search", "adversary_moves"),
    ("search.universal_moves", "mevscope.search", "universal_moves"),
    ("analysis.nonint", "mevscope.analysis", "nonint"),
    ("analysis.richnonint", "mevscope.analysis", "richnonint"),
    ("analysis.epsilon_composable", "mevscope.analysis", "epsilon_composable"),
    ("analysis.verify_stripping", "mevscope.analysis", "verify_stripping"),
    ("analysis.stable_wrt_adversary", "mevscope.analysis", "stable_wrt_adversary"),
    ("analysis.token_independent", "mevscope.analysis", "token_independent"),
    ("analysis.contract_independent", "mevscope.analysis", "contract_independent"),
    ("cli.main", "mevscope.cli", "main"),
)

VERDICT_SPANS = ("analysis.nonint", "analysis.richnonint", "analysis.epsilon_composable")
JUSTIFICATIONS = ("zero-mev", "contract-independent", "stable", "direct-search",
                  "counterexample")


class Segment:
    """The spans of one phase (set-up or one pass), as parallel arrays.
    Parents precede their children, so ``parent[i] < i``; -1 marks a root."""

    def __init__(self, label: str):
        self.label = label
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict = {}


class Recorder:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._patches: list = []
        self._stack = [-1]
        self.segment = Segment("unused")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, label: str) -> Segment:
        """Start recording into a fresh segment and return it."""
        self.segment = Segment(label)
        self._stack[:] = [-1]
        return self.segment

    def span(self, name: str, fn, post=None):
        """``fn`` wrapped so each call records a span; ``post(result,
        counters)`` may add counts taken from the result."""
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter
        rec = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            seg = rec.segment
            i = len(seg.start)
            seg.name.append(nid)
            seg.parent.append(stack[-1])
            seg.end.append(0.0)
            stack.append(i)
            seg.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                seg.end[i] = clock()
                stack.pop()
            if post is not None:
                post(result, seg.counters)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every ``mevscope`` module binding of each wrapped function."""
        if self._patches:
            return
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "mevscope" or n.startswith("mevscope."))}
        for name, modname, fname in WRAPPED:
            if modname not in modules:
                continue
            orig = getattr(modules[modname], fname)
            wrapper = self.span(name, orig, _POST.get(name))
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def write(self, path, segments) -> None:
        """Write the spans of ``segments`` as gzipped TSV:
        segment, id, parent, name, start_us, end_us."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("segment\tid\tparent\tname\tstart_us\tend_us\n")
            for seg in segments:
                names = self.names
                for i in range(len(seg.start)):
                    f.write(f"{seg.label}\t{i}\t{seg.parent[i]}\t{names[seg.name[i]]}\t"
                            f"{seg.start[i] * 1e6:.3f}\t{seg.end[i] * 1e6:.3f}\n")


def _count_valid(res, counters):
    counters["vm.execute.valid"] = counters.get("vm.execute.valid", 0) + res.valid


def _count_moves(res, counters):
    counters["search.adversary_moves.moves"] = (
        counters.get("search.adversary_moves.moves", 0) + len(res))


def _count_verdict(res, counters):
    key = f"analysis.verdict.{res.justification}"
    counters[key] = counters.get(key, 0) + 1


_POST = {"vm.execute": _count_valid, "search.adversary_moves": _count_moves}
_POST.update((name, _count_verdict) for name in VERDICT_SPANS)


def aggregate(rec: Recorder, seg: Segment) -> dict:
    """Per-name totals of one segment: calls, inclusive and self seconds,
    plus the executes under each lmev span and the lmev calls under each
    rlmev / stability_probe span."""
    n = len(seg.start)
    names, parent, start, end = seg.name, seg.parent, seg.start, seg.end
    ids = {name: i for i, name in enumerate(rec.names)}
    lmev_id = ids.get("search.lmev", -2)
    exec_id = ids.get("vm.execute", -2)
    ladder_ids = {ids.get("search.rlmev", -2), ids.get("search.stability_probe", -2)}
    child = [0.0] * n
    lmev_of = [-1] * n          # nearest enclosing lmev span, or -1
    ladder_of = [-1] * n        # nearest enclosing rlmev / stability_probe span
    calls: dict = {}
    incl: dict = {}
    execs_per_lmev: dict = {}
    rungs: dict = {}
    for i in range(n):
        dur = end[i] - start[i]
        p = parent[i]
        nid = names[i]
        if p >= 0:
            child[p] += dur
            lmev_of[i] = lmev_of[p]
            ladder_of[i] = ladder_of[p]
        if nid == lmev_id:
            execs_per_lmev[i] = 0
            if ladder_of[i] >= 0:
                rungs[ladder_of[i]] += 1
            lmev_of[i] = i
        elif nid in ladder_ids:
            rungs[i] = 0
            ladder_of[i] = i
        elif nid == exec_id and lmev_of[i] >= 0:
            execs_per_lmev[lmev_of[i]] += 1
        calls[nid] = calls.get(nid, 0) + 1
        incl[nid] = incl.get(nid, 0.0) + dur
    selft: dict = {}
    for i in range(n):
        nid = names[i]
        selft[nid] = selft.get(nid, 0.0) + (end[i] - start[i]) - child[i]
    return {
        "calls": {rec.names[k]: v for k, v in calls.items()},
        "incl_s": {rec.names[k]: v for k, v in incl.items()},
        "self_s": {rec.names[k]: v for k, v in selft.items()},
        "counters": dict(seg.counters),
        "executes_per_lmev": list(execs_per_lmev.values()),
        "rungs": list(rungs.values()),
    }
