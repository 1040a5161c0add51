"""One workload process: set up the inputs, run timed passes, report raw data.

Started by ``run.py``; not meant to be run by hand.  The worker imports
mevscope from the checkout's ``src`` directory, loads and builds every input
scenario (the set-up phase), prints ``SETUP <CPU seconds so far>`` and, unless
``--setup-only`` is given, repeats passes over all queries until ``--seconds``
have elapsed.  Untraced processes time everything at a reference host speed
(``speed.py``).  Before a query whose input has ``isolate`` set, the heap is
collected, outside the timed region.  A query whose input has ``repeat`` > 1
runs up to that many times in a row within an untraced pass, until it has
used ``MIN_QUERY_S`` of CPU time; its time in the pass is the median of
those runs.  Answers are checked after each pass, outside the timed region.
The last line of its output is ``RESULT <json>``.

With ``--trace 1`` the passes alternate between untraced and traced; the
traced ones record spans (``spans.py``) and the untraced ones give the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import speed  # noqa: E402

if __name__ == "__main__":
    # sample the host speed from the start, so that set-up time is scaled by
    # the speed during imports too; a traced run stops it again
    SAMPLER = speed.Sampler()
    SAMPLER.start()

import mevscope  # noqa: E402
import mevscope.cli  # noqa: E402

from spans import Recorder, aggregate  # noqa: E402

SCENARIOS = ROOT / "src" / "mevscope" / "scenarios"
MIN_QUERY_S = 0.15


def _rat(v):
    return None if v is None else str(v)


def _labels(witness):
    return [tx.label() for tx in witness or ()]


def value_answer(res) -> dict:
    return {"value": _rat(res.value), "witness": _labels(res.witness),
            "complete": res.complete}


def verdict_answer(v) -> dict:
    return {"verdict": v.outcome, "justification": v.justification,
            "unrestricted": _rat(v.lhs_value), "restricted": _rat(v.rhs_value),
            "witness": _labels(v.witness), "complete": v.complete}


def strip_answer(rep) -> dict:
    return {"status": rep.status, "full_value": _rat(rep.full_value),
            "stripped_value": _rat(rep.stripped_value)}


def cli_answer(out) -> dict:
    """The checked fields of one ``--format json`` report, plus the exit code."""
    rc, text = out
    rep = json.loads(text)
    ans = {"exit_code": rc}
    if "result" in rep:
        ans.update((k, rep["result"][k]) for k in
                   ("verdict", "justification", "unrestricted", "restricted",
                    "witness", "complete"))
    elif "status" in rep:
        ans.update((k, rep[k]) for k in ("status", "full_value", "stripped_value"))
    elif "value" in rep:
        ans.update((k, rep[k]) for k in ("value", "witness", "complete"))
    elif rep["command"] == "examples":
        ans["checks"] = len(rep["checks"])
        ans["failed_checks"] = [c["name"] for c in rep["checks"] if not c["ok"]]
    elif rep["command"] == "table2":
        ans["rows"] = [[r["scenario"], r["verdict"], r["justification"], r["match"]]
                       for r in rep["rows"]]
    elif rep["command"] == "battery":
        ans["failed_rows"] = [r["row"] for r in rep["rows"] if not r["passed"]]
    return ans


def decided(ans: dict) -> bool:
    """A verdict is decided when it holds or is violated, a strip check when
    it verified or found a mismatch, a value when it is complete.  Report
    commands (examples, table2, battery) are decided when they answer."""
    if "verdict" in ans:
        return ans["verdict"] in ("holds", "violated")
    if "status" in ans:
        return ans["status"] in ("verified", "mismatch")
    if "complete" in ans:
        return ans["complete"]
    return True


class Query:
    def __init__(self, key, call, answer, isolate, repeat):
        self.key = key
        self.call = call
        self.answer = answer
        self.isolate = isolate
        self.repeat = repeat


def _budget(q, scn):
    return mevscope.SearchBudget(
        max_depth=q["depth"], grid=q["grid"], exhaustive=q["exhaustive"],
        ceiling=scn.ceiling if q["exhaustive"] else None)


def _lib_query(q, built):
    scn, state, delta = built
    prices = scn.prices()
    budget = _budget(q, scn)
    op = q["op"]
    if op == "lmev":
        return lambda: mevscope.lmev(state, delta, None, prices, budget), value_answer
    if op == "rlmev":
        return lambda: mevscope.rlmev(state, delta, None, prices, budget), value_answer
    if op == "nonint":
        return lambda: mevscope.nonint(state, delta, prices, budget), verdict_answer
    if op == "richnonint":
        return lambda: mevscope.richnonint(state, delta, prices, budget), verdict_answer
    if op == "strip-check":
        return (lambda: mevscope.verify_stripping(state, delta, None, prices, budget),
                strip_answer)
    raise ValueError(f"unknown op {op!r}")


def _cli_query(argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = mevscope.cli.main(argv)
        return rc, buf.getvalue()
    return call, cli_answer


def setup(spec: list) -> list:
    """Load and build every input scenario, then bind each query to it."""
    built: dict = {}

    def scenario(source, text=None):
        if source not in built:
            scn = (mevscope.parse_scenario(text, source) if text is not None
                   else mevscope.load_scenario(SCENARIOS / source))
            built[source] = (scn, *mevscope.build_state(scn))
        return built[source]

    queries = []
    for q in spec:
        if q["op"] == "cli":
            argv = [str(ROOT / a) if a.endswith(".scn") else a for a in q["argv"]]
            for a in argv:
                if a.endswith(".scn"):
                    scenario(a)
            call, answer = _cli_query(argv)
        elif "scn" in q:
            call, answer = _lib_query(q, scenario(q["name"], q["scn"]))
        else:
            call, answer = _lib_query(q, scenario(q["scenario"]))
        queries.append(Query(q["key"], call, answer, q.get("isolate", False),
                             q.get("repeat", 1)))
    return queries


def run_pass(calls, isolates, repeats, clock) -> tuple:
    """Run every query ``repeats[i]`` times at most (see ``MIN_QUERY_S``),
    after a collection if ``isolates[i]``; returns (wall seconds, per-query
    runs, outputs).  A query's runs are ``(begin, end)`` marks of ``clock``;
    ``query_times`` turns them into times.  An output is ``(True, result)``
    or ``(False, exception text)``, from the query's last run."""
    gc.collect()
    runs, outputs = [], []
    wall = time.perf_counter()
    for call, isolate, repeat in zip(calls, isolates, repeats):
        if isolate:
            gc.collect()
        marks, used = [], 0.0
        while not marks or len(marks) < repeat and used < MIN_QUERY_S:
            begin = clock.mark()
            try:
                out = (True, call())
            except Exception as e:      # a raising query is a failure, not a crash
                out = (False, f"{type(e).__name__}: {e}")
            end = clock.mark()
            marks.append((begin, end))
            used += end[0] - begin[0]
        runs.append(marks)
        outputs.append(out)
    return time.perf_counter() - wall, runs, outputs


def query_times(runs, clock) -> list:
    """Per query of one pass: the median of its runs' times."""
    return [statistics.median(clock.scaled(b, e) for b, e in marks) for marks in runs]


def check(queries, outputs, expected) -> list:
    """Per query: (problem, decided).  ``problem`` is None when the answer
    matches the expected one, else ("raised" | "wrong", one-line reason)."""
    verdicts = []
    for q, (ok, out) in zip(queries, outputs):
        if not ok:
            verdicts.append((("raised", out), False))
            continue
        try:
            ans = q.answer(out)
        except (ValueError, KeyError, TypeError) as e:
            verdicts.append((("wrong", f"unreadable answer: {e}"), False))
            continue
        want = expected.get(q.key)
        if want is None:
            problem = ("wrong", "no expected answer")
        elif ans != want:
            problem = ("wrong", f"got {ans}, want {want}")
        else:
            problem = None
        verdicts.append((problem, decided(ans)))
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--expected", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    if not Path(mevscope.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"mevscope imported from {mevscope.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    spec = json.loads(Path(args.inputs).read_text())
    clock = SAMPLER
    if args.trace:
        clock.stop()
        clock = speed.Unscaled()
    rec = Recorder() if args.trace else None
    if rec:
        setup_seg = rec.begin("setup")
        rec.install()
    queries = setup(spec)
    if rec:
        rec.uninstall()
    # CPU time since the process started: interpreter start, imports, set-up
    # scaled by the samples taken during it, before any query runs
    print(f"SETUP {clock.scaled((0.0, 0.0), clock.mark())!r}", flush=True)
    if args.setup_only:
        return 0

    expected = json.loads(Path(args.expected).read_text())
    calls = [q.call for q in queries]
    isolates = [q.isolate for q in queries]
    repeats = [q.repeat for q in queries]
    traced_calls = [rec.span("bench.query", c) for c in calls] if rec else None
    result = {"keys": [q.key for q in queries], "pass_wall": [], "problems": {},
              "decided": [], "aggregates": []}
    pass_runs, traced_runs = [], []
    last_seg = None
    start = time.perf_counter()
    while True:
        wall, runs, outputs = run_pass(calls, isolates, repeats, clock)
        result["pass_wall"].append(wall)
        pass_runs.append(runs)
        passes = [outputs]
        if rec:
            last_seg = rec.begin(f"pass{len(traced_runs)}")
            rec.install()
            try:
                _, truns, toutputs = run_pass(traced_calls, isolates, [1] * len(calls),
                                              clock)
            finally:
                rec.uninstall()
            traced_runs.append(truns)
            result["aggregates"].append(aggregate(rec, last_seg))
            passes.append(toutputs)
        for outs in passes:
            verdicts = check(queries, outs, expected)
            for q, (problem, _) in zip(queries, verdicts):
                if problem is not None:
                    result["problems"].setdefault(q.key, []).append(problem)
            if not result["decided"]:
                result["decided"] = [d for _, d in verdicts]
        if time.perf_counter() - start >= args.seconds:
            break
    clock.stop()
    # a pass's CPU time is the sum of its per-query times
    result["times"] = [query_times(runs, clock) for runs in pass_runs]
    result["pass_cpu"] = [sum(ts) for ts in result["times"]]
    result["traced_cpu"] = [sum(query_times(runs, clock)) for runs in traced_runs]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec:
        result["setup_aggregate"] = aggregate(rec, setup_seg)
        if args.spans_out:
            rec.write(args.spans_out, [setup_seg, last_seg])
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        SAMPLER.stop()      # on every way out, or SIGPROF would end the process
    sys.exit(status)
