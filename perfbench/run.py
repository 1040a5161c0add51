"""mevscope benchmark: one workload per invocation, checked answers, one JSON line.

    python3 perfbench/run.py --workload deep-oracle --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports mevscope from its ``src``.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, make_inputs  # noqa: E402
from spans import JUSTIFICATIONS  # noqa: E402

SETUP_REPS = 5               # set-up-only processes besides the measuring one
WORKER_TIMEOUT_S = 170       # a run must end within 180 s
TAIL_PERCENTILES = (99.9, 99.5, 99, 95, 90, 75, 50)
DETERMINISTIC = ("vm.execute.calls", "ledger.wealth.calls", "search.rlmev.rungs",
                 "search.executes_per_lmev") + tuple(
                     f"analysis.verdict.{j}" for j in JUSTIFICATIONS)


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args, inputs, expected, setup_only=False, spans_out=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
           "--expected", str(expected), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    setup = next(float(ln.split()[1]) for ln in lines if ln.startswith("SETUP "))
    result = None if setup_only else json.loads(lines[-1].removeprefix("RESULT "))
    return setup, result


def tail(per_query: list) -> tuple:
    """(value, percentile, samples beyond it) over per-query times.  The
    percentile is the highest of TAIL_PERCENTILES that leaves at least ten
    queries beyond it; with too few queries for any, the slowest query."""
    ranked = sorted(per_query)
    n = len(ranked)
    for p in TAIL_PERCENTILES:
        beyond = int(n * (100 - p) / 100)
        if beyond >= 10:
            return ranked[n - 1 - beyond], p, beyond
    return ranked[-1], 100, 0


def end_to_end(res: dict, setups: list) -> tuple:
    """Each query's time is its median over the run's passes, so the figures
    do not depend on how many passes fitted in the run."""
    per_query = [statistics.median(ts) for ts in zip(*res["times"])]
    tail_s, tail_p, beyond = tail(per_query)
    n = len(res["keys"])
    failed = len(res["problems"])
    metrics = {
        "wall_s": (statistics.median(res["pass_cpu"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (statistics.median(per_query) * 1e3, "ms"),
        "query_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        # rule-of-succession estimate over the distinct queries of one pass:
        # never 0, and within 1/(n+2) of failed/attempted
        "error_rate": ((failed + 1) / (n + 2), "ratio"),
        "decided_frac": (sum(res["decided"]) / n, "ratio"),
    }
    notes = {"query_tail_percentile": tail_p, "query_tail_samples_beyond": beyond,
             "query_samples": n, "passes": len(res["pass_cpu"]),
             "failed_distinct_queries": failed, "setup_samples_s": setups,
             "pass_cpu_s": res["pass_cpu"], "pass_wall_s": res["pass_wall"]}
    return metrics, notes


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(agg: dict, setup_agg: dict) -> dict:
    """Per-layer figures of one traced pass."""
    calls, selft, incl, cnt = agg["calls"], agg["self_s"], agg["incl_s"], agg["counters"]

    def c(name):
        return calls.get(name, 0)

    def us_self(name):
        return _ratio(selft.get(name, 0.0), c(name)) * 1e6

    both = {k: setup_agg["calls"].get(k, 0) + c(k)
            for k in ("scenario.parse_scenario", "scenario.build_state")}
    both_s = {k: setup_agg["incl_s"].get(k, 0.0) + incl.get(k, 0.0) for k in both}
    m = {
        "vm.execute.calls": (c("vm.execute"), "count"),
        "vm.execute.us_per_call": (us_self("vm.execute"), "us"),
        "vm.execute.valid_frac": (_ratio(cnt.get("vm.execute.valid", 0), c("vm.execute")),
                                  "ratio"),
        "ledger.wealth.calls": (c("ledger.wealth"), "count"),
        "ledger.wealth.us_per_call": (us_self("ledger.wealth"), "us"),
        "search.lmev.calls": (c("search.lmev"), "count"),
        "search.lmev.self_ms": (selft.get("search.lmev", 0.0) * 1e3, "ms"),
        "search.executes_per_lmev": (_ratio(sum(agg["executes_per_lmev"]),
                                            len(agg["executes_per_lmev"])), "execs/lmev"),
        "search.rlmev.rungs": (_ratio(sum(agg["rungs"]), len(agg["rungs"])), "lmev/rlmev"),
        "search.adversary_moves.calls": (c("search.adversary_moves"), "count"),
        "search.adversary_moves.us_per_call": (us_self("search.adversary_moves"), "us"),
        "search.moves_per_state": (_ratio(cnt.get("search.adversary_moves.moves", 0),
                                          c("search.adversary_moves")), "moves/state"),
        "search.universal_moves.calls": (c("search.universal_moves"), "count"),
        "search.universal_moves.us_per_call": (us_self("search.universal_moves"), "us"),
        "analysis.stable_wrt_adversary.ms": (
            incl.get("analysis.stable_wrt_adversary", 0.0) * 1e3, "ms"),
        "analysis.token_independent.ms": (
            incl.get("analysis.token_independent", 0.0) * 1e3, "ms"),
    }
    for j in JUSTIFICATIONS:
        m[f"analysis.verdict.{j}"] = (cnt.get(f"analysis.verdict.{j}", 0), "count")
    m["scenario.parse.us_per_call"] = (
        _ratio(both_s["scenario.parse_scenario"], both["scenario.parse_scenario"]) * 1e6, "us")
    m["scenario.build_state.ms_per_call"] = (
        _ratio(both_s["scenario.build_state"], both["scenario.build_state"]) * 1e3, "ms")
    m["cli.main.self_ms"] = (selft.get("cli.main", 0.0) * 1e3, "ms")
    return m


def per_layer(res: dict) -> tuple:
    passes = [layer_metrics(a, res["setup_aggregate"]) for a in res["aggregates"]]
    metrics = {k: (statistics.median(p[k][0] for p in passes), unit)
               for k, (_, unit) in passes[0].items()}
    for k in DETERMINISTIC:
        metrics[k] = passes[0][k]
    metrics["trace.overhead_s"] = (statistics.median(res["traced_cpu"])
                                   - statistics.median(res["pass_cpu"]), "s")
    mismatched = [k for k in DETERMINISTIC if any(p[k][0] != passes[0][k][0] for p in passes)]
    notes = {"traced_passes": len(passes), "untraced_pass_s": statistics.median(res["pass_cpu"]),
             "traced_pass_s": statistics.median(res["traced_cpu"]),
             "nondeterministic_counts": mismatched,
             "executes_per_lmev_call": res["aggregates"][0]["executes_per_lmev"],
             "lmev_per_rlmev_call": res["aggregates"][0]["rungs"]}
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args)
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        status = max(status, run_workload(workload, args))
    return status


def run_workload(workload: str, args) -> int:
    expected = HERE / "expected" / f"{workload}.json"
    for need in (ROOT / "src" / "mevscope" / "__init__.py", expected):
        if not need.is_file():
            print(f"missing {need}: run from the root of a mevscope checkout",
                  file=sys.stderr)
            return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-s{args.seed}-t{args.trace}"
    inputs = OUT / f"inputs-{tag}.json"
    inputs.write_text(json.dumps(make_inputs(workload, args.seed)))

    try:
        setups = [] if args.trace else [spawn(args, inputs, expected, setup_only=True)[0]
                                        for _ in range(SETUP_REPS)]
        setup, res = spawn(args, inputs, expected,
                           spans_out=OUT / f"spans-{tag}.tsv.gz" if args.trace else None)
    except (RuntimeError, subprocess.TimeoutExpired, StopIteration, ValueError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    setups.append(setup)

    if args.trace:
        metrics, notes = per_layer(res)
    else:
        metrics, notes = end_to_end(res, setups)
    wrong = {k: v for k, v in res["problems"].items() if any(p[0] == "wrong" for p in v)}
    correct = not wrong and not notes.get("nondeterministic_counts")
    attempted = len(res["keys"]) * (len(res["pass_cpu"]) + len(res["traced_cpu"]))
    failed = sum(len(v) for v in res["problems"].values())
    record = {
        "workload": workload, "workload_seed": args.seed,
        "battery_seed": args.seed if workload == "cli-sweep" else None,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "platform": platform.platform(), "git_commit": git_commit(),
        **notes,
        "problems": {k: v[0] for k, v in res["problems"].items()},
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1))
    for key, (kind, why) in record["problems"].items():
        print(f"{kind}: {key}: {why[:200]}")
    print("record: " + json.dumps({k: v for k, v in record.items() if k not in (
        "problems", "metrics", "executes_per_lmev_call", "lmev_per_rlmev_call")}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
