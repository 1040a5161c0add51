"""Build the expected answers the benchmark checks every query against.

    python3 perfbench/build_expected.py [--workload NAME ...]

Writes ``perfbench/expected/<workload>.json``: one answer per query key.
Run it once, and again only when the workloads change; the benchmark never
computes expected answers during a run.

- ``micro-exhaustive`` covers every item of the micro universe, so any seed
  draws from it.  Each exhaustive ``lmev`` value is checked against the
  independent brute force ``tests/oracle.py:brute_lmev``, and so is every
  value a search-decided ``nonint`` verdict reports.
- ``deep-oracle``, ``ladder-pools`` and the scenario commands of
  ``cli-sweep`` record the answers of the program at the commit that built
  them; they guard against a change that alters a value, verdict or witness.
  ``mevscope mev`` crashes there, so its expected answer comes from the
  library call the command is meant to make (``global_mev``).
- ``examples`` and ``table2`` are expected to pass every paper golden, and
  ``battery`` every structural law, whatever the seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import worker
from inputs import WORKLOADS, make_inputs
from micro import universe

sys.path.insert(0, str(worker.ROOT / "tests"))
from oracle import brute_lmev  # noqa: E402

import mevscope  # noqa: E402


def _answers(spec) -> dict:
    out = {}
    for q in worker.setup(spec):
        out[q.key] = q.answer(q.call())
    return out


def build_micro() -> dict:
    spec = []
    for key, family, text, depth in universe():
        for op in ("lmev", "nonint"):
            spec.append({"key": f"{key} {op}", "op": op, "name": key, "scn": text,
                         "depth": depth, "grid": 8, "exhaustive": True})
    answers = _answers(spec)
    for key, _, text, depth in universe():
        scn = mevscope.parse_scenario(text, key)
        state, delta = mevscope.build_state(scn)
        supply = sum(n for _, n in mevscope.total_supply(state).items())
        if supply > 10:
            raise SystemExit(f"{key}: total supply {supply} > 10")
        prices = scn.prices()

        def brute(restriction):
            return brute_lmev(state, delta, restriction, prices, depth, scn.ceiling)

        unrestricted = brute(None)
        got = answers[f"{key} lmev"]
        if Fraction(got["value"]) != unrestricted or not got["complete"]:
            raise SystemExit(f"{key}: lmev {got} disagrees with the brute force")
        v = answers[f"{key} nonint"]
        if v["unrestricted"] is not None and Fraction(v["unrestricted"]) != unrestricted:
            raise SystemExit(f"{key}: nonint unrestricted {v} disagrees with the brute force")
        if v["restricted"] is not None and Fraction(v["restricted"]) != brute(delta):
            raise SystemExit(f"{key}: nonint restricted {v} disagrees with the brute force")
    return answers


def build_cli() -> dict:
    spec = make_inputs("cli-sweep", 0)
    answers = {}
    for q in spec:
        argv = q["argv"]
        if argv[0] == "mev":
            scn = mevscope.load_scenario(worker.ROOT / argv[1])
            state, _ = mevscope.build_state(scn)
            res = mevscope.global_mev(state, scn.prices(),
                                      mevscope.SearchBudget(max_depth=int(argv[3])))
            answers[q["key"]] = {"exit_code": 3 if res.warning else 0,
                                 **worker.value_answer(res)}
        elif argv[0] == "battery":
            answers[q["key"]] = {"exit_code": 0, "failed_rows": []}
        else:
            answers.update(_answers([q]))
    examples, table2 = answers["examples"], answers["table2"]
    if examples["failed_checks"] or examples["exit_code"] != 0:
        raise SystemExit(f"examples fail a paper golden: {examples}")
    if not all(row[3] for row in table2["rows"]) or table2["exit_code"] != 0:
        raise SystemExit(f"table2 misses a paper row: {table2}")
    return answers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = ap.parse_args(argv)
    out_dir = worker.HERE / "expected"
    out_dir.mkdir(exist_ok=True)
    for w in args.workload:
        if w == "micro-exhaustive":
            answers = build_micro()
        elif w == "cli-sweep":
            answers = build_cli()
        else:
            answers = _answers(make_inputs(w, 0))
        lines = [f"{json.dumps(k)}: {json.dumps(answers[k], sort_keys=True)}"
                 for k in sorted(answers)]
        (out_dir / f"{w}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"{w}: {len(answers)} expected answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
