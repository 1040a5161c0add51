"""Determinism self-check and baseline anchors of the traced run.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [--workload NAME ...]

1. Runs each workload's traced run twice with the same seed, one process
   after the other, and requires the deterministic counts (executes, wealth
   calls, ladder rungs, executes per lmev, verdicts by justification) to be
   identical across the two.
2. Checks the anchors measured on the commit that introduced the benchmark:
   - 142,428 executes in the wealthy depth-5 ``lmev`` that ``richnonint
     bet_on_amm_oracle.scn --depth 5`` runs (``deep-oracle``);
   - 38,720 executes in the wealthy depth-4 ``lmev`` of
     ``rlmev bet_on_amm_oracle.scn``;
   - ``search.rlmev.rungs`` = 2 on ``two_amms`` (``ladder-pools``), whose
     escalation ladder is ``[(1, 1), (2, 1)]``.

Exits 1 and names the failed checks if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from fractions import Fraction

import worker
from inputs import WORKLOADS
from run import DETERMINISTIC, OUT
from spans import Recorder, aggregate

import mevscope  # noqa: E402  (from the checkout, via worker)


def traced_run(workload, seed, seconds) -> tuple:
    cmd = [sys.executable, str(worker.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((OUT / f"record-{workload}-s{seed}-t1.json").read_text())
    return result, record


def in_process_anchors() -> list:
    """(name, got, want) for the anchors measured by calling the library."""
    bet = mevscope.load_scenario(worker.SCENARIOS / "bet_on_amm_oracle.scn")
    state, delta = mevscope.build_state(bet)
    rec = Recorder()
    seg = rec.begin("anchor")
    rec.install()
    try:
        mevscope.rlmev(state, delta, None, bet.prices(), mevscope.SearchBudget(max_depth=4))
    finally:
        rec.uninstall()
    execs = aggregate(rec, seg)["executes_per_lmev"]
    pools = mevscope.load_scenario(worker.SCENARIOS / "two_amms.scn")
    state, delta = mevscope.build_state(pools)
    ladder = mevscope.stability_probe(state, delta, None, pools.prices())
    return [("executes of the wealthy depth-4 bet lmev", execs, [38720]),
            ("two_amms escalation ladder", ladder, ((1, Fraction(1)), (2, Fraction(1))))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = ap.parse_args(argv)

    checks = in_process_anchors()
    for w in args.workload:
        (first, rec1), (second, _) = (traced_run(w, args.seed, args.seconds)
                                      for _ in range(2))
        for k in DETERMINISTIC:
            checks.append((f"{w}: {k} equal in two traced runs",
                           second["metrics"][k]["value"], first["metrics"][k]["value"]))
        checks.append((f"{w}: answers correct", first["correct"] and second["correct"], True))
        if w == "deep-oracle":
            checks.append(("executes of the wealthy depth-5 bet lmev",
                           142428 in rec1["executes_per_lmev_call"], True))
        if w == "ladder-pools":
            checks.append(("two_amms search.rlmev.rungs",
                           first["metrics"]["search.rlmev.rungs"]["value"], 2))
    failed = 0
    for name, got, want in checks:
        ok = got == want
        failed += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: got {got}" + ("" if ok else f", want {want}"))
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
