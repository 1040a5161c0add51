"""Pin the 300 CLI reports: exit code and sha256 prefix of each.

The reports are ``examples``, ``table2`` and ``battery``, plus ``lmev``,
``rlmev``, ``mev``, ``nonint``, ``richnonint``, ``strip-check`` and
``epsilon --eps 0`` over every bundled scenario at ``--depth 3``, each in
text and JSON.  The digest covers stdout and stderr.  A change that means to
alter a report re-pins the table in a commit of its own; regenerate it with

    PYTHONPATH=src python tests/test_reports_pinned.py

and paste the printed ``PINNED`` literal over the one below.

Nine deeper JSON reports are pinned beside them (``DEEP_PINNED``): the
stress queries at depths 5 to 8 and at ``--grid 16``, where the search's
cuts prune the most and its visiting order matters most.  The same command
prints their literal too.

Four reports of the bundled bet with its deadline moved to heights 1 and 2
(``DEADLINE_PINNED``) pin the edge of the search's horizon: at depth 5 the
witness wins at height 2, the last one a deadline of 2 allows.  The same
command prints their literal too.  Their ``search.execute_delta`` calls are
pinned beside them (``DEADLINE_EXECUTES``).

The exhaustive reports (``EXHAUSTIVE_PINNED``) are the seven scenario
commands under ``--exhaustive --depth 2``, in JSON, over every bundled
scenario but the bet and row 2, whose signature-driven enumeration is too
large for the suite (row 2's ``lmev`` alone makes 750,318 executes).
Exhaustive mode searches every valid move, so these pin the moves the
generators never propose.  The same command prints their literal too.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from mevscope.cli import main

from helpers import BUNDLED_SCENARIOS, EXHAUSTIVE_SCENARIOS, _SCENARIO_DIR, counted_executes

SCENARIO_COMMANDS = (
    ("lmev",), ("rlmev",), ("mev",), ("nonint",), ("richnonint",),
    ("strip-check",), ("epsilon", "--eps", "0"),
)


def report_argvs():
    """{report id: argv} of the 300 pinned reports."""
    runs = {}
    for fmt in ("text", "json"):
        for cmd in ("examples", "table2", "battery"):
            runs[f"{cmd} {fmt}"] = [cmd, "--format", fmt]
        for name in BUNDLED_SCENARIOS:
            for cmd in SCENARIO_COMMANDS:
                runs[f"{' '.join(cmd)} {name} {fmt}"] = [
                    cmd[0], str(_SCENARIO_DIR / name), *cmd[1:],
                    "--depth", "3", "--format", fmt]
    return runs


# the deep stress queries: (command, scenario, extra flags)
DEEP_QUERIES = (
    ("richnonint", "bet_on_amm_oracle.scn", "--depth", "5"),
    ("nonint", "bet_on_amm_oracle.scn", "--depth", "6"),
    ("nonint", "bet_on_amm_oracle.scn", "--grid", "16"),
    ("rlmev", "two_amms.scn", "--depth", "5"),
    ("strip-check", "two_amms.scn", "--depth", "5"),
    ("richnonint", "bet_on_amm_oracle.scn", "--depth", "7"),
    ("nonint", "bet_on_amm_oracle.scn", "--depth", "8"),
    ("mev", "bet_on_amm_oracle.scn", "--depth", "5"),
    ("rlmev", "two_amms.scn", "--depth", "6"),
)


def deep_report_argvs():
    """{report id: argv} of the deep JSON reports."""
    return {f"{' '.join(q)} json": [q[0], str(_SCENARIO_DIR / q[1]), *q[2:],
                                    "--format", "json"]
            for q in DEEP_QUERIES}


def deadline_report_argvs(directory) -> dict:
    """{report id: argv} of the bet reports with a near deadline; their
    scenario files are written into ``directory``."""
    doc = json.loads((_SCENARIO_DIR / "bet_on_amm_oracle.scn").read_text(encoding="utf-8"))
    runs = {}
    for deadline in (1, 2):
        doc["deployments"][1]["args"]["deadline"] = deadline
        path = Path(directory) / f"bet_deadline_{deadline}.scn"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for cmd in ("richnonint", "mev"):
            runs[f"{cmd} {path.name} --depth 5 json"] = [
                cmd, str(path), "--depth", "5", "--format", "json"]
    return runs


def exhaustive_report_argvs():
    """{report id: argv} of the exhaustive JSON reports."""
    return {f"{' '.join(cmd)} {name} --exhaustive json": [
                cmd[0], str(_SCENARIO_DIR / name), *cmd[1:],
                "--exhaustive", "--depth", "2", "--format", "json"]
            for name in EXHAUSTIVE_SCENARIOS for cmd in SCENARIO_COMMANDS}


def digest(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue() + "\0" + err.getvalue()
    return code, hashlib.sha256(text.encode()).hexdigest()[:16]


def test_the_300_reports_are_unchanged():
    got = {rid: digest(argv) for rid, argv in report_argvs().items()}
    assert len(got) == 300
    changed = {rid: (PINNED.get(rid), d) for rid, d in got.items() if PINNED.get(rid) != d}
    assert not changed, f"{len(changed)} reports changed (pinned, got): {changed}"
    assert set(PINNED) == set(got)


def test_the_deep_reports_are_unchanged():
    got = {rid: digest(argv) for rid, argv in deep_report_argvs().items()}
    assert got == DEEP_PINNED


def test_the_near_deadline_reports_are_unchanged(tmp_path, monkeypatch):
    """Each near-deadline report keeps its digest and makes exactly its
    pinned number of ``search.execute_delta`` calls, so a change that makes
    the search do more work on them shows here."""
    calls = counted_executes(monkeypatch)
    got, executes = {}, {}
    for rid, argv in deadline_report_argvs(tmp_path).items():
        calls[0] = 0
        got[rid] = digest(argv)
        executes[rid] = calls[0]
    assert got == DEADLINE_PINNED
    assert executes == DEADLINE_EXECUTES


def test_the_exhaustive_reports_are_unchanged():
    got = {rid: digest(argv) for rid, argv in exhaustive_report_argvs().items()}
    assert len(got) == 133
    assert got == EXHAUSTIVE_PINNED


PINNED = {
    'examples text': (0, 'f0d6db096fe3026b'),
    'table2 text': (0, 'f1af3df6ced6689e'),
    'battery text': (0, '8471cdf140d8d0a7'),
    'lmev airdrop_beside_amm.scn text': (0, 'cc086b9a99ee0dad'),
    'rlmev airdrop_beside_amm.scn text': (0, '23fa81ea4b4c1e4f'),
    'mev airdrop_beside_amm.scn text': (0, 'f810df3be110bb7a'),
    'nonint airdrop_beside_amm.scn text': (0, '276d6bc414b177d7'),
    'richnonint airdrop_beside_amm.scn text': (0, '943c5293db05a1f8'),
    'strip-check airdrop_beside_amm.scn text': (0, 'bc6388246f7c10f5'),
    'epsilon --eps 0 airdrop_beside_amm.scn text': (1, '8ef405207b72b724'),
    'lmev airdrop_feeds_exchange.scn text': (0, 'c7d6a34ed4f29e1b'),
    'rlmev airdrop_feeds_exchange.scn text': (0, 'dbd7df5c309b52c4'),
    'mev airdrop_feeds_exchange.scn text': (0, '1d5e8c12b8e64268'),
    'nonint airdrop_feeds_exchange.scn text': (1, 'd7df5bed8b8988ab'),
    'richnonint airdrop_feeds_exchange.scn text': (0, '943c5293db05a1f8'),
    'strip-check airdrop_feeds_exchange.scn text': (0, 'eb8b33027c1028dd'),
    'epsilon --eps 0 airdrop_feeds_exchange.scn text': (1, '87ea83110146844b'),
    'lmev bet_on_amm_oracle.scn text': (0, '796237c0d3020151'),
    'rlmev bet_on_amm_oracle.scn text': (0, '1092ce2debd0ed1a'),
    'mev bet_on_amm_oracle.scn text': (0, '963f93b670f2fb70'),
    'nonint bet_on_amm_oracle.scn text': (1, 'f895059dfcb1ace5'),
    'richnonint bet_on_amm_oracle.scn text': (1, '8bdf48136d2469dd'),
    'strip-check bet_on_amm_oracle.scn text': (0, '4f241009ed43ab9f'),
    'epsilon --eps 0 bet_on_amm_oracle.scn text': (0, 'd54ba246636f132e'),
    'lmev cell_gate.scn text': (0, '584321aea7ceea35'),
    'rlmev cell_gate.scn text': (0, '432adfc511d356a5'),
    'mev cell_gate.scn text': (0, '2d2d5bb32b9bc0f9'),
    'nonint cell_gate.scn text': (1, '490c1c44f7fb1813'),
    'richnonint cell_gate.scn text': (1, 'f86c511c5b3d8aaa'),
    'strip-check cell_gate.scn text': (0, 'd77ba6661890ab46'),
    'epsilon --eps 0 cell_gate.scn text': (1, 'c5dd60b02b093222'),
    'lmev cell_gate_proxy.scn text': (0, '4d52b61fbbb7dd0c'),
    'rlmev cell_gate_proxy.scn text': (0, 'a0bbd9e9cb925182'),
    'mev cell_gate_proxy.scn text': (0, '980997cead4e6799'),
    'nonint cell_gate_proxy.scn text': (0, '0e33dbc64946a6ae'),
    'richnonint cell_gate_proxy.scn text': (0, '989e2ddea29bb782'),
    'strip-check cell_gate_proxy.scn text': (0, 'd77ba6661890ab46'),
    'epsilon --eps 0 cell_gate_proxy.scn text': (1, 'c5b861b0fb04d519'),
    'lmev cell_gated_vault.scn text': (0, '280ed8fe258f3e3f'),
    'rlmev cell_gated_vault.scn text': (0, '14120acaa4ec19f4'),
    'mev cell_gated_vault.scn text': (0, '963f93b670f2fb70'),
    'nonint cell_gated_vault.scn text': (0, 'f7188f2ca2d85051'),
    'richnonint cell_gated_vault.scn text': (1, '4505ffb9f3f993c6'),
    'strip-check cell_gated_vault.scn text': (0, '98cde57498513227'),
    'epsilon --eps 0 cell_gated_vault.scn text': (0, 'd54ba246636f132e'),
    'lmev compositions/row1_amm_amm.scn text': (0, '5ab45de8e8b82691'),
    'rlmev compositions/row1_amm_amm.scn text': (0, 'b84d20060498cd5d'),
    'mev compositions/row1_amm_amm.scn text': (0, '963f93b670f2fb70'),
    'nonint compositions/row1_amm_amm.scn text': (2, '6be133427d134742'),
    'richnonint compositions/row1_amm_amm.scn text': (0, '943c5293db05a1f8'),
    'strip-check compositions/row1_amm_amm.scn text': (0, 'd77ba6661890ab46'),
    'epsilon --eps 0 compositions/row1_amm_amm.scn text': (0, 'd54ba246636f132e'),
    'lmev compositions/row2_bet_on_amm.scn text': (0, '5e6e68f9466c8040'),
    'rlmev compositions/row2_bet_on_amm.scn text': (0, '1092ce2debd0ed1a'),
    'mev compositions/row2_bet_on_amm.scn text': (0, '963f93b670f2fb70'),
    'nonint compositions/row2_bet_on_amm.scn text': (2, '6be133427d134742'),
    'richnonint compositions/row2_bet_on_amm.scn text': (1, '8bdf48136d2469dd'),
    'strip-check compositions/row2_bet_on_amm.scn text': (0, '4f241009ed43ab9f'),
    'epsilon --eps 0 compositions/row2_bet_on_amm.scn text': (0, 'd54ba246636f132e'),
    'lmev compositions/row3_bet_on_exchange.scn text': (0, '5e6e68f9466c8040'),
    'rlmev compositions/row3_bet_on_exchange.scn text': (0, '6a986c0454169e0b'),
    'mev compositions/row3_bet_on_exchange.scn text': (0, '963f93b670f2fb70'),
    'nonint compositions/row3_bet_on_exchange.scn text': (2, '6be133427d134742'),
    'richnonint compositions/row3_bet_on_exchange.scn text': (0, 'f18c6ed67b745a8d'),
    'strip-check compositions/row3_bet_on_exchange.scn text': (0, '4f241009ed43ab9f'),
    'epsilon --eps 0 compositions/row3_bet_on_exchange.scn text': (0, 'd54ba246636f132e'),
    'lmev compositions/row4_best_swap.scn text': (0, '4a11738614c81670'),
    'rlmev compositions/row4_best_swap.scn text': (0, '7a63b8e568cafead'),
    'mev compositions/row4_best_swap.scn text': (0, '963f93b670f2fb70'),
    'nonint compositions/row4_best_swap.scn text': (0, '00f096be482da103'),
    'richnonint compositions/row4_best_swap.scn text': (0, '36bb06fda2bac372'),
    'strip-check compositions/row4_best_swap.scn text': (0, 'a31c2222570dbe5b'),
    'epsilon --eps 0 compositions/row4_best_swap.scn text': (0, 'd54ba246636f132e'),
    'lmev compositions/row5_swap_router.scn text': (0, '078f8f0c44b12d60'),
    'rlmev compositions/row5_swap_router.scn text': (0, '1d0702a756cb2942'),
    'mev compositions/row5_swap_router.scn text': (0, '963f93b670f2fb70'),
    'nonint compositions/row5_swap_router.scn text': (0, '00f096be482da103'),
    'richnonint compositions/row5_swap_router.scn text': (0, '36bb06fda2bac372'),
    'strip-check compositions/row5_swap_router.scn text': (0, 'a31c2222570dbe5b'),
    'epsilon --eps 0 compositions/row5_swap_router.scn text': (0, 'd54ba246636f132e'),
    'lmev compositions/row6_best_swap_router.scn text': (0, '4a11738614c81670'),
    'rlmev compositions/row6_best_swap_router.scn text': (0, '7a63b8e568cafead'),
    'mev compositions/row6_best_swap_router.scn text': (0, '963f93b670f2fb70'),
    'nonint compositions/row6_best_swap_router.scn text': (0, '00f096be482da103'),
    'richnonint compositions/row6_best_swap_router.scn text': (0, '36bb06fda2bac372'),
    'strip-check compositions/row6_best_swap_router.scn text': (0, 'a31c2222570dbe5b'),
    'epsilon --eps 0 compositions/row6_best_swap_router.scn text': (0, 'd54ba246636f132e'),
    'lmev compositions/row7_lp_arbitrage.scn text': (0, '631fc5ee07e4f4ed'),
    'rlmev compositions/row7_lp_arbitrage.scn text': (0, 'a387888b61922684'),
    'mev compositions/row7_lp_arbitrage.scn text': (0, '963f93b670f2fb70'),
    'nonint compositions/row7_lp_arbitrage.scn text': (0, '00f096be482da103'),
    'richnonint compositions/row7_lp_arbitrage.scn text': (0, '36bb06fda2bac372'),
    'strip-check compositions/row7_lp_arbitrage.scn text': (0, 'a31c2222570dbe5b'),
    'epsilon --eps 0 compositions/row7_lp_arbitrage.scn text': (0, 'd54ba246636f132e'),
    'lmev compositions/row8_flash_loan_arbitrage.scn text': (0, '631fc5ee07e4f4ed'),
    'rlmev compositions/row8_flash_loan_arbitrage.scn text': (0, 'a387888b61922684'),
    'mev compositions/row8_flash_loan_arbitrage.scn text': (0, '963f93b670f2fb70'),
    'nonint compositions/row8_flash_loan_arbitrage.scn text': (0, '00f096be482da103'),
    'richnonint compositions/row8_flash_loan_arbitrage.scn text': (0, '36bb06fda2bac372'),
    'strip-check compositions/row8_flash_loan_arbitrage.scn text': (0, 'a31c2222570dbe5b'),
    'epsilon --eps 0 compositions/row8_flash_loan_arbitrage.scn text': (0, 'd54ba246636f132e'),
    'lmev exchange_round_trip.scn text': (0, '40c60aa461d3f25b'),
    'rlmev exchange_round_trip.scn text': (0, '563c05c0f297b187'),
    'mev exchange_round_trip.scn text': (0, 'e4aa4695eb84f7b8'),
    'nonint exchange_round_trip.scn text': (2, '6be133427d134742'),
    'richnonint exchange_round_trip.scn text': (0, '943c5293db05a1f8'),
    'strip-check exchange_round_trip.scn text': (0, 'a31c2222570dbe5b'),
    'epsilon --eps 0 exchange_round_trip.scn text': (1, '1365b1b09b959a85'),
    'lmev faucet_forwarder.scn text': (0, 'c258d03a59373eb6'),
    'rlmev faucet_forwarder.scn text': (0, '1005dc8e6af3315d'),
    'mev faucet_forwarder.scn text': (0, '6ca5c9483e498e30'),
    'nonint faucet_forwarder.scn text': (0, '00f096be482da103'),
    'richnonint faucet_forwarder.scn text': (0, '36bb06fda2bac372'),
    'strip-check faucet_forwarder.scn text': (0, 'a31c2222570dbe5b'),
    'epsilon --eps 0 faucet_forwarder.scn text': (0, '202b755df4d2cc07'),
    'lmev gated_faucet_pair.scn text': (0, 'c258d03a59373eb6'),
    'rlmev gated_faucet_pair.scn text': (0, '1005dc8e6af3315d'),
    'mev gated_faucet_pair.scn text': (0, '58858f31332622bd'),
    'nonint gated_faucet_pair.scn text': (0, 'f7188f2ca2d85051'),
    'richnonint gated_faucet_pair.scn text': (0, 'f18c6ed67b745a8d'),
    'strip-check gated_faucet_pair.scn text': (0, 'a31c2222570dbe5b'),
    'epsilon --eps 0 gated_faucet_pair.scn text': (1, '23807affe0c5e42d'),
    'lmev mutex_vaults.scn text': (0, '5fa1ae6decd62f78'),
    'rlmev mutex_vaults.scn text': (0, '5277e28778b0dc8f'),
    'mev mutex_vaults.scn text': (0, '8369bbdf63e9b3a4'),
    'nonint mutex_vaults.scn text': (1, 'e9cbe59d97785d41'),
    'richnonint mutex_vaults.scn text': (1, '04ae18579d81c01b'),
    'strip-check mutex_vaults.scn text': (0, 'd77ba6661890ab46'),
    'epsilon --eps 0 mutex_vaults.scn text': (0, '2f78a803ba852961'),
    'lmev once_cell_droppers.scn text': (0, '0ac22e275aac19a0'),
    'rlmev once_cell_droppers.scn text': (0, '27ef946c178cdf5a'),
    'mev once_cell_droppers.scn text': (0, '8e54d42d39a3cb0b'),
    'nonint once_cell_droppers.scn text': (1, 'f84f425ebfdd28bf'),
    'richnonint once_cell_droppers.scn text': (1, '039d854a5514c501'),
    'strip-check once_cell_droppers.scn text': (0, 'e4b1deece64fe9f9'),
    'epsilon --eps 0 once_cell_droppers.scn text': (1, 'f543c621a38c43e6'),
    'lmev relay_chain.scn text': (0, 'df76495baf81f7fc'),
    'rlmev relay_chain.scn text': (0, '478b4a34ff0a4494'),
    'mev relay_chain.scn text': (0, '4d357344e9aad925'),
    'nonint relay_chain.scn text': (1, '787d68ec0123cf3c'),
    'richnonint relay_chain.scn text': (0, '943c5293db05a1f8'),
    'strip-check relay_chain.scn text': (0, 'f44e7736475c1324'),
    'epsilon --eps 0 relay_chain.scn text': (1, '434bbe484a0160f9'),
    'lmev two_amms.scn text': (0, '3a7fde9a76628a9b'),
    'rlmev two_amms.scn text': (0, 'b84d20060498cd5d'),
    'mev two_amms.scn text': (0, '963f93b670f2fb70'),
    'nonint two_amms.scn text': (1, '71dd72602d39a8e6'),
    'richnonint two_amms.scn text': (0, '943c5293db05a1f8'),
    'strip-check two_amms.scn text': (0, 'd77ba6661890ab46'),
    'epsilon --eps 0 two_amms.scn text': (0, 'd54ba246636f132e'),
    'examples json': (0, 'e664701340f1a934'),
    'table2 json': (0, '37093671e012a15d'),
    'battery json': (0, '0aad1c4e377507eb'),
    'lmev airdrop_beside_amm.scn json': (0, '22605d0cd203cd1b'),
    'rlmev airdrop_beside_amm.scn json': (0, '36def0decc4ea115'),
    'mev airdrop_beside_amm.scn json': (0, 'f72b38ee0ff8a455'),
    'nonint airdrop_beside_amm.scn json': (0, 'e47c9cc2c6e2d542'),
    'richnonint airdrop_beside_amm.scn json': (0, 'a1fb54013982ae9e'),
    'strip-check airdrop_beside_amm.scn json': (0, '3591649596ccd0ed'),
    'epsilon --eps 0 airdrop_beside_amm.scn json': (1, 'b1c9bd33e1329c24'),
    'lmev airdrop_feeds_exchange.scn json': (0, '5c6f5069a0752cfd'),
    'rlmev airdrop_feeds_exchange.scn json': (0, '79984520cdf6cb72'),
    'mev airdrop_feeds_exchange.scn json': (0, 'e728a4346a7a0c9d'),
    'nonint airdrop_feeds_exchange.scn json': (1, '01a48ac0d5202811'),
    'richnonint airdrop_feeds_exchange.scn json': (0, 'b1d205b5d82c257c'),
    'strip-check airdrop_feeds_exchange.scn json': (0, '4e1e92c3eec63bb6'),
    'epsilon --eps 0 airdrop_feeds_exchange.scn json': (1, '8ee6503c752a7790'),
    'lmev bet_on_amm_oracle.scn json': (0, 'bfb8f1ba27ba3ba8'),
    'rlmev bet_on_amm_oracle.scn json': (0, '4ca97e374f8b11f3'),
    'mev bet_on_amm_oracle.scn json': (0, '0362004d59ef5564'),
    'nonint bet_on_amm_oracle.scn json': (1, 'e75c4678d5ce9b59'),
    'richnonint bet_on_amm_oracle.scn json': (1, '86fb5f4a5a29d8ff'),
    'strip-check bet_on_amm_oracle.scn json': (0, '33d0925ee4347260'),
    'epsilon --eps 0 bet_on_amm_oracle.scn json': (0, '3c9736bba9bce16a'),
    'lmev cell_gate.scn json': (0, '8436c45346b42290'),
    'rlmev cell_gate.scn json': (0, 'eea74e5d65f6a869'),
    'mev cell_gate.scn json': (0, 'e3a33c0d3aaed9f0'),
    'nonint cell_gate.scn json': (1, '0055f32a89b176cc'),
    'richnonint cell_gate.scn json': (1, 'e58155b169cd8f76'),
    'strip-check cell_gate.scn json': (0, 'ff6daa96dc75da67'),
    'epsilon --eps 0 cell_gate.scn json': (1, '772b6a2b7d8f4f3c'),
    'lmev cell_gate_proxy.scn json': (0, '91c5835d9d7e6dcd'),
    'rlmev cell_gate_proxy.scn json': (0, 'f01591b875d0ff14'),
    'mev cell_gate_proxy.scn json': (0, '544dfca29b919dd6'),
    'nonint cell_gate_proxy.scn json': (0, '7d0b9ab5dbc7032a'),
    'richnonint cell_gate_proxy.scn json': (0, 'e164b2f7b80c5617'),
    'strip-check cell_gate_proxy.scn json': (0, '0ded1197ef4831ce'),
    'epsilon --eps 0 cell_gate_proxy.scn json': (1, 'e8d4a3303a7a3539'),
    'lmev cell_gated_vault.scn json': (0, 'cf05cad68fb9d7b9'),
    'rlmev cell_gated_vault.scn json': (0, '94088863de7b56c6'),
    'mev cell_gated_vault.scn json': (0, '59272b53dec710a4'),
    'nonint cell_gated_vault.scn json': (0, 'fb0184d0ce6ab24b'),
    'richnonint cell_gated_vault.scn json': (1, '4d0f15436d790304'),
    'strip-check cell_gated_vault.scn json': (0, '0f96004fa311c3cb'),
    'epsilon --eps 0 cell_gated_vault.scn json': (0, 'c9a5d991980e6553'),
    'lmev compositions/row1_amm_amm.scn json': (0, '05dd3ebd6c68639d'),
    'rlmev compositions/row1_amm_amm.scn json': (0, '9fd19724fe76e27c'),
    'mev compositions/row1_amm_amm.scn json': (0, 'd72a210605028a29'),
    'nonint compositions/row1_amm_amm.scn json': (2, '73b134d9dacbb7af'),
    'richnonint compositions/row1_amm_amm.scn json': (0, '96f7d9f0751724e5'),
    'strip-check compositions/row1_amm_amm.scn json': (0, 'ccf99ce6f92bc1a1'),
    'epsilon --eps 0 compositions/row1_amm_amm.scn json': (0, '5a5f0b82a0f85448'),
    'lmev compositions/row2_bet_on_amm.scn json': (0, '6915545fa89fa855'),
    'rlmev compositions/row2_bet_on_amm.scn json': (0, '91f8cbecdb92bbea'),
    'mev compositions/row2_bet_on_amm.scn json': (0, '17de83eabee00821'),
    'nonint compositions/row2_bet_on_amm.scn json': (2, 'd3fea4ccc5f93508'),
    'richnonint compositions/row2_bet_on_amm.scn json': (1, 'e79388a3b1a420ec'),
    'strip-check compositions/row2_bet_on_amm.scn json': (0, '5dc92068a4bb3f34'),
    'epsilon --eps 0 compositions/row2_bet_on_amm.scn json': (0, 'd1e780db72fa490f'),
    'lmev compositions/row3_bet_on_exchange.scn json': (0, 'aa9c3763002ec97f'),
    'rlmev compositions/row3_bet_on_exchange.scn json': (0, 'b7d425acc83d1179'),
    'mev compositions/row3_bet_on_exchange.scn json': (0, 'b5a043854e38012e'),
    'nonint compositions/row3_bet_on_exchange.scn json': (2, '19af2b0490d36885'),
    'richnonint compositions/row3_bet_on_exchange.scn json': (0, 'a1802c672226b369'),
    'strip-check compositions/row3_bet_on_exchange.scn json': (0, '124ca4f475ba77f5'),
    'epsilon --eps 0 compositions/row3_bet_on_exchange.scn json': (0, '4a842f2dc39f3a9f'),
    'lmev compositions/row4_best_swap.scn json': (0, '4a4ce76f25af9d28'),
    'rlmev compositions/row4_best_swap.scn json': (0, '881849c17ea569f7'),
    'mev compositions/row4_best_swap.scn json': (0, '5a201225dfb02b1c'),
    'nonint compositions/row4_best_swap.scn json': (0, '8e9c3e89300fa022'),
    'richnonint compositions/row4_best_swap.scn json': (0, 'd3a4449766bd97b7'),
    'strip-check compositions/row4_best_swap.scn json': (0, '34fafc6463e5d50b'),
    'epsilon --eps 0 compositions/row4_best_swap.scn json': (0, 'd2cd4fe86dbe509b'),
    'lmev compositions/row5_swap_router.scn json': (0, '66cf624e4ebc7652'),
    'rlmev compositions/row5_swap_router.scn json': (0, '5de63401b47428f1'),
    'mev compositions/row5_swap_router.scn json': (0, '8e5bc39e6f59691a'),
    'nonint compositions/row5_swap_router.scn json': (0, 'deac129d86c7ff5b'),
    'richnonint compositions/row5_swap_router.scn json': (0, 'f09e20ea89ea496d'),
    'strip-check compositions/row5_swap_router.scn json': (0, '0d5c7e69507c7ac1'),
    'epsilon --eps 0 compositions/row5_swap_router.scn json': (0, '0341befb75e4c1b5'),
    'lmev compositions/row6_best_swap_router.scn json': (0, '18c565127fdb460d'),
    'rlmev compositions/row6_best_swap_router.scn json': (0, '045ab67173d58e5a'),
    'mev compositions/row6_best_swap_router.scn json': (0, 'bfdfc9b914b77ed9'),
    'nonint compositions/row6_best_swap_router.scn json': (0, '9b9d83bc2f8f5ef5'),
    'richnonint compositions/row6_best_swap_router.scn json': (0, 'e66a297ac9e34c0d'),
    'strip-check compositions/row6_best_swap_router.scn json': (0, 'f0c4cddaffc80ca2'),
    'epsilon --eps 0 compositions/row6_best_swap_router.scn json': (0, 'a9f82ef54ecf3189'),
    'lmev compositions/row7_lp_arbitrage.scn json': (0, 'f4ce0492adcad261'),
    'rlmev compositions/row7_lp_arbitrage.scn json': (0, '5560de06c0d96572'),
    'mev compositions/row7_lp_arbitrage.scn json': (0, '3356ac68752ee735'),
    'nonint compositions/row7_lp_arbitrage.scn json': (0, '31c038d3f11fbd3b'),
    'richnonint compositions/row7_lp_arbitrage.scn json': (0, '2e6a94596f629543'),
    'strip-check compositions/row7_lp_arbitrage.scn json': (0, '02cdb8a958564eb9'),
    'epsilon --eps 0 compositions/row7_lp_arbitrage.scn json': (0, '22604bcb3b13789f'),
    'lmev compositions/row8_flash_loan_arbitrage.scn json': (0, '765be33e110b4f0f'),
    'rlmev compositions/row8_flash_loan_arbitrage.scn json': (0, '63b8bb1f3a838d92'),
    'mev compositions/row8_flash_loan_arbitrage.scn json': (0, 'e84a843074a2f7c4'),
    'nonint compositions/row8_flash_loan_arbitrage.scn json': (0, 'f814faeef7a04e21'),
    'richnonint compositions/row8_flash_loan_arbitrage.scn json': (0, '986623b935f5ecb8'),
    'strip-check compositions/row8_flash_loan_arbitrage.scn json': (0, 'd62a765e19228e39'),
    'epsilon --eps 0 compositions/row8_flash_loan_arbitrage.scn json': (0, '4d6c4d547cadfdfe'),
    'lmev exchange_round_trip.scn json': (0, 'ad6e3b1240c269a7'),
    'rlmev exchange_round_trip.scn json': (0, 'f195d466091b4b6e'),
    'mev exchange_round_trip.scn json': (0, '06a777f6fc815a22'),
    'nonint exchange_round_trip.scn json': (2, '62210b3830f9b1c6'),
    'richnonint exchange_round_trip.scn json': (0, '083ad722e6af4d56'),
    'strip-check exchange_round_trip.scn json': (0, '49401539cddfe12c'),
    'epsilon --eps 0 exchange_round_trip.scn json': (1, 'ab76955f0a597689'),
    'lmev faucet_forwarder.scn json': (0, '66cb8b63a63be434'),
    'rlmev faucet_forwarder.scn json': (0, 'd89ba71c785bfe7e'),
    'mev faucet_forwarder.scn json': (0, '93a73787b6624182'),
    'nonint faucet_forwarder.scn json': (0, '51b335576e662c51'),
    'richnonint faucet_forwarder.scn json': (0, 'fc0949fb24ecba35'),
    'strip-check faucet_forwarder.scn json': (0, 'a6c563f323f8300d'),
    'epsilon --eps 0 faucet_forwarder.scn json': (0, 'f8d7a501aeb8b2fa'),
    'lmev gated_faucet_pair.scn json': (0, '0020b1731a9f2815'),
    'rlmev gated_faucet_pair.scn json': (0, 'c1e98f709a86d54d'),
    'mev gated_faucet_pair.scn json': (0, 'c8e4049c030154ac'),
    'nonint gated_faucet_pair.scn json': (0, '85207eef8602bc03'),
    'richnonint gated_faucet_pair.scn json': (0, '54b560fc50ed638c'),
    'strip-check gated_faucet_pair.scn json': (0, '6117ea34ed21a3ef'),
    'epsilon --eps 0 gated_faucet_pair.scn json': (1, 'e855d3bc53beb4fc'),
    'lmev mutex_vaults.scn json': (0, '202385a884112b25'),
    'rlmev mutex_vaults.scn json': (0, '8fc582ea9614c448'),
    'mev mutex_vaults.scn json': (0, '22ebfeaa440c8af1'),
    'nonint mutex_vaults.scn json': (1, '03e9bc3c6f60e830'),
    'richnonint mutex_vaults.scn json': (1, '7f9b01c60ba1192b'),
    'strip-check mutex_vaults.scn json': (0, 'acc58bd05b244b15'),
    'epsilon --eps 0 mutex_vaults.scn json': (0, 'd306110247150904'),
    'lmev once_cell_droppers.scn json': (0, '9be10a0fa7906b46'),
    'rlmev once_cell_droppers.scn json': (0, '9755f09dcde8a86c'),
    'mev once_cell_droppers.scn json': (0, 'e775cae76af387a9'),
    'nonint once_cell_droppers.scn json': (1, '725cdf25cdd35c05'),
    'richnonint once_cell_droppers.scn json': (1, '498557a2c2a386a9'),
    'strip-check once_cell_droppers.scn json': (0, '09d2a0c8146f66f9'),
    'epsilon --eps 0 once_cell_droppers.scn json': (1, '8a5e8b88f9d01196'),
    'lmev relay_chain.scn json': (0, '780588eb06e49d7f'),
    'rlmev relay_chain.scn json': (0, 'db1115cf1579998b'),
    'mev relay_chain.scn json': (0, '6383b04bbadfe95c'),
    'nonint relay_chain.scn json': (1, '265d501cb9c22261'),
    'richnonint relay_chain.scn json': (0, '2f7f197122597e0b'),
    'strip-check relay_chain.scn json': (0, 'f570d5d70c324eed'),
    'epsilon --eps 0 relay_chain.scn json': (1, '18a61a75b7f25d8d'),
    'lmev two_amms.scn json': (0, '5e9de5a645c06e9a'),
    'rlmev two_amms.scn json': (0, '3a2cbf85d4061f12'),
    'mev two_amms.scn json': (0, '26254e9dab1d346b'),
    'nonint two_amms.scn json': (1, 'da09010728a21a2b'),
    'richnonint two_amms.scn json': (0, 'c74e510c9eca52ee'),
    'strip-check two_amms.scn json': (0, '50e8327f1b1cb2d7'),
    'epsilon --eps 0 two_amms.scn json': (0, 'da49535abb1c18d0'),
}


DEEP_PINNED = {
    'richnonint bet_on_amm_oracle.scn --depth 5 json': (1, '4a23d4ccff00e936'),
    'nonint bet_on_amm_oracle.scn --depth 6 json': (1, '00f8fdf0f4e7c1cf'),
    'nonint bet_on_amm_oracle.scn --grid 16 json': (1, '63c1c2b4818e54b5'),
    'rlmev two_amms.scn --depth 5 json': (0, '397f9fc23c8162a5'),
    'strip-check two_amms.scn --depth 5 json': (0, 'ddef349b71a42c1d'),
    'richnonint bet_on_amm_oracle.scn --depth 7 json': (1, 'f96f15dfde224b05'),
    'nonint bet_on_amm_oracle.scn --depth 8 json': (1, '724ed3aee07fc0cf'),
    'mev bet_on_amm_oracle.scn --depth 5 json': (0, 'ceba77bd85c01b2c'),
    'rlmev two_amms.scn --depth 6 json': (0, '47069546c209db14'),
}


DEADLINE_PINNED = {
    'richnonint bet_deadline_1.scn --depth 5 json': (2, 'a127fc970a399528'),
    'mev bet_deadline_1.scn --depth 5 json': (0, '8b41df715e01a3a8'),
    'richnonint bet_deadline_2.scn --depth 5 json': (1, '0d7a3158a2469957'),
    'mev bet_deadline_2.scn --depth 5 json': (0, '30be12a372850826'),
}


# ``search.execute_delta`` calls per near-deadline report
DEADLINE_EXECUTES = {
    'richnonint bet_deadline_1.scn --depth 5 json': 245_043,
    'mev bet_deadline_1.scn --depth 5 json': 3_156,
    'richnonint bet_deadline_2.scn --depth 5 json': 4_107,
    'mev bet_deadline_2.scn --depth 5 json': 522,
}


EXHAUSTIVE_PINNED = {
    'lmev airdrop_beside_amm.scn --exhaustive json': (0, 'cf330b126ad2aacb'),
    'rlmev airdrop_beside_amm.scn --exhaustive json': (0, 'd3180bceebd88915'),
    'mev airdrop_beside_amm.scn --exhaustive json': (0, '9e08702f3807c567'),
    'nonint airdrop_beside_amm.scn --exhaustive json': (0, 'd0326b799a0bbfd7'),
    'richnonint airdrop_beside_amm.scn --exhaustive json': (0, '6fb13cd9ae88eb85'),
    'strip-check airdrop_beside_amm.scn --exhaustive json': (0, '76b91f763e50f4bb'),
    'epsilon --eps 0 airdrop_beside_amm.scn --exhaustive json': (1, '5cfd182cf5c6c341'),
    'lmev airdrop_feeds_exchange.scn --exhaustive json': (0, '7b428ff439586f16'),
    'rlmev airdrop_feeds_exchange.scn --exhaustive json': (0, 'a3940b42688b1770'),
    'mev airdrop_feeds_exchange.scn --exhaustive json': (0, '04becb6308b10119'),
    'nonint airdrop_feeds_exchange.scn --exhaustive json': (1, 'd384d317d3467dd5'),
    'richnonint airdrop_feeds_exchange.scn --exhaustive json': (0, '80cd0651526b5b62'),
    'strip-check airdrop_feeds_exchange.scn --exhaustive json': (0, 'a4eda4d939d85924'),
    'epsilon --eps 0 airdrop_feeds_exchange.scn --exhaustive json': (1, 'f5a4586f9fdf9118'),
    'lmev cell_gate.scn --exhaustive json': (0, 'a5194f30d60c0c6f'),
    'rlmev cell_gate.scn --exhaustive json': (0, '8a22d942dca3871c'),
    'mev cell_gate.scn --exhaustive json': (0, 'ac8a47c9bf367193'),
    'nonint cell_gate.scn --exhaustive json': (1, 'e4ec3046f3900016'),
    'richnonint cell_gate.scn --exhaustive json': (1, '7a6826fb0e5732b1'),
    'strip-check cell_gate.scn --exhaustive json': (0, '6d1c1ef10974b443'),
    'epsilon --eps 0 cell_gate.scn --exhaustive json': (1, '657692d404b8d719'),
    'lmev cell_gate_proxy.scn --exhaustive json': (0, 'f57b71efaf76a2c3'),
    'rlmev cell_gate_proxy.scn --exhaustive json': (0, 'bf11d5e5e60d22c5'),
    'mev cell_gate_proxy.scn --exhaustive json': (0, '48e76d4d067300f3'),
    'nonint cell_gate_proxy.scn --exhaustive json': (0, 'c3241eea7c59b6f9'),
    'richnonint cell_gate_proxy.scn --exhaustive json': (0, '3e020d0f7fdbbb7f'),
    'strip-check cell_gate_proxy.scn --exhaustive json': (0, '22abcfc59a67471c'),
    'epsilon --eps 0 cell_gate_proxy.scn --exhaustive json': (1, 'ededcddcba43bfbb'),
    'lmev cell_gated_vault.scn --exhaustive json': (0, '8a12806521f80eca'),
    'rlmev cell_gated_vault.scn --exhaustive json': (0, '23f2ef28866ac898'),
    'mev cell_gated_vault.scn --exhaustive json': (0, '9b4c93bdb6905104'),
    'nonint cell_gated_vault.scn --exhaustive json': (0, '3c4764ad077d1704'),
    'richnonint cell_gated_vault.scn --exhaustive json': (1, '0866cee7b39c7d91'),
    'strip-check cell_gated_vault.scn --exhaustive json': (0, '2e5dfdcfcb20ee55'),
    'epsilon --eps 0 cell_gated_vault.scn --exhaustive json': (0, '0c86bac256f9dada'),
    'lmev compositions/row1_amm_amm.scn --exhaustive json': (0, '502559ce45e40c49'),
    'rlmev compositions/row1_amm_amm.scn --exhaustive json': (0, '0058111a067a4ffd'),
    'mev compositions/row1_amm_amm.scn --exhaustive json': (0, '14959c8a29062f3d'),
    'nonint compositions/row1_amm_amm.scn --exhaustive json': (0, '38f64ea004c27dda'),
    'richnonint compositions/row1_amm_amm.scn --exhaustive json': (0, '77929984426237a1'),
    'strip-check compositions/row1_amm_amm.scn --exhaustive json': (0, '20448aa6bb89820e'),
    'epsilon --eps 0 compositions/row1_amm_amm.scn --exhaustive json': (0, '4877371813fad2d8'),
    'lmev compositions/row3_bet_on_exchange.scn --exhaustive json': (0, '8c266b603765f8b4'),
    'rlmev compositions/row3_bet_on_exchange.scn --exhaustive json': (0, '2c2240e90f65b699'),
    'mev compositions/row3_bet_on_exchange.scn --exhaustive json': (0, 'b1e596dc97d1d791'),
    'nonint compositions/row3_bet_on_exchange.scn --exhaustive json': (0, '9dd66c0f5a56c834'),
    'richnonint compositions/row3_bet_on_exchange.scn --exhaustive json': (0, '89be81a32555f09c'),
    'strip-check compositions/row3_bet_on_exchange.scn --exhaustive json': (0, '3ee0cbf12283720b'),
    'epsilon --eps 0 compositions/row3_bet_on_exchange.scn --exhaustive json': (0, '292bf8d303aade3d'),
    'lmev compositions/row4_best_swap.scn --exhaustive json': (0, '47e9e06336d8f6de'),
    'rlmev compositions/row4_best_swap.scn --exhaustive json': (0, '3b7538e9f1eae6af'),
    'mev compositions/row4_best_swap.scn --exhaustive json': (0, 'cb23f561568eb40d'),
    'nonint compositions/row4_best_swap.scn --exhaustive json': (0, 'd8ff4f68884b265e'),
    'richnonint compositions/row4_best_swap.scn --exhaustive json': (0, 'cd45dc4cb774c8bc'),
    'strip-check compositions/row4_best_swap.scn --exhaustive json': (0, '684fcc0cf4f774d7'),
    'epsilon --eps 0 compositions/row4_best_swap.scn --exhaustive json': (0, 'f7cb4e103965e920'),
    'lmev compositions/row5_swap_router.scn --exhaustive json': (0, '844831ce3b78117c'),
    'rlmev compositions/row5_swap_router.scn --exhaustive json': (0, '08e61e74ae202e78'),
    'mev compositions/row5_swap_router.scn --exhaustive json': (0, 'f2ec1c4ca45e3358'),
    'nonint compositions/row5_swap_router.scn --exhaustive json': (0, '5a133acb2fb00b95'),
    'richnonint compositions/row5_swap_router.scn --exhaustive json': (0, '2a205592fb88c1be'),
    'strip-check compositions/row5_swap_router.scn --exhaustive json': (0, '45f3e00b2dbd4be8'),
    'epsilon --eps 0 compositions/row5_swap_router.scn --exhaustive json': (0, '5286b04cb40f2e2f'),
    'lmev compositions/row6_best_swap_router.scn --exhaustive json': (0, '044e76f23a99e2e9'),
    'rlmev compositions/row6_best_swap_router.scn --exhaustive json': (0, '8b6f939fb2606241'),
    'mev compositions/row6_best_swap_router.scn --exhaustive json': (0, 'f78565b701b3d5b7'),
    'nonint compositions/row6_best_swap_router.scn --exhaustive json': (0, '985182ee3e89e50b'),
    'richnonint compositions/row6_best_swap_router.scn --exhaustive json': (0, 'c84f03d9076bd845'),
    'strip-check compositions/row6_best_swap_router.scn --exhaustive json': (0, 'f8b7b4151233c2dd'),
    'epsilon --eps 0 compositions/row6_best_swap_router.scn --exhaustive json': (0, 'df28128741017afa'),
    'lmev compositions/row7_lp_arbitrage.scn --exhaustive json': (0, 'dae99b7ad427e92e'),
    'rlmev compositions/row7_lp_arbitrage.scn --exhaustive json': (0, 'da1e47a65217f191'),
    'mev compositions/row7_lp_arbitrage.scn --exhaustive json': (0, '7f8e53a1f2958964'),
    'nonint compositions/row7_lp_arbitrage.scn --exhaustive json': (0, '6071c017dc679979'),
    'richnonint compositions/row7_lp_arbitrage.scn --exhaustive json': (0, 'bda0d9f1da0f3b34'),
    'strip-check compositions/row7_lp_arbitrage.scn --exhaustive json': (0, '9d47da6458e03944'),
    'epsilon --eps 0 compositions/row7_lp_arbitrage.scn --exhaustive json': (0, 'f16b6e7349076e36'),
    'lmev compositions/row8_flash_loan_arbitrage.scn --exhaustive json': (0, '6735119308dd71af'),
    'rlmev compositions/row8_flash_loan_arbitrage.scn --exhaustive json': (0, '9faedf31df989c25'),
    'mev compositions/row8_flash_loan_arbitrage.scn --exhaustive json': (0, '284e4d1043da1a73'),
    'nonint compositions/row8_flash_loan_arbitrage.scn --exhaustive json': (0, '02791accd4ed268a'),
    'richnonint compositions/row8_flash_loan_arbitrage.scn --exhaustive json': (0, 'e91f1997a4f7fea5'),
    'strip-check compositions/row8_flash_loan_arbitrage.scn --exhaustive json': (0, '04fd27ccb09c209d'),
    'epsilon --eps 0 compositions/row8_flash_loan_arbitrage.scn --exhaustive json': (0, 'fe567714228f01d6'),
    'lmev exchange_round_trip.scn --exhaustive json': (0, '62f03b51698dd6f2'),
    'rlmev exchange_round_trip.scn --exhaustive json': (0, '5b9b6111fc89d465'),
    'mev exchange_round_trip.scn --exhaustive json': (0, 'e5ba767c64eee066'),
    'nonint exchange_round_trip.scn --exhaustive json': (0, 'ff36e14a2a0987b4'),
    'richnonint exchange_round_trip.scn --exhaustive json': (0, 'efcea3fed2bca5ce'),
    'strip-check exchange_round_trip.scn --exhaustive json': (0, '83d299e46fbad40e'),
    'epsilon --eps 0 exchange_round_trip.scn --exhaustive json': (1, 'b6ca4fb80463297f'),
    'lmev faucet_forwarder.scn --exhaustive json': (0, '8041a3d8c43f9308'),
    'rlmev faucet_forwarder.scn --exhaustive json': (0, '46c86cc278ba1b38'),
    'mev faucet_forwarder.scn --exhaustive json': (0, 'aa723788bd29178f'),
    'nonint faucet_forwarder.scn --exhaustive json': (0, '2646cd84f35284cb'),
    'richnonint faucet_forwarder.scn --exhaustive json': (0, 'd49560bc3b807965'),
    'strip-check faucet_forwarder.scn --exhaustive json': (0, 'ae9658a4e9e7fb2f'),
    'epsilon --eps 0 faucet_forwarder.scn --exhaustive json': (0, '82314b4658265307'),
    'lmev gated_faucet_pair.scn --exhaustive json': (0, 'ed0ce1e72d56310f'),
    'rlmev gated_faucet_pair.scn --exhaustive json': (0, '73e544d12a9369f1'),
    'mev gated_faucet_pair.scn --exhaustive json': (0, '732f735df7a0ec02'),
    'nonint gated_faucet_pair.scn --exhaustive json': (0, '88f74472394c027a'),
    'richnonint gated_faucet_pair.scn --exhaustive json': (0, '7b211d1cc0d2b73b'),
    'strip-check gated_faucet_pair.scn --exhaustive json': (0, '274a92705f18e11f'),
    'epsilon --eps 0 gated_faucet_pair.scn --exhaustive json': (1, 'daee42b61f3969eb'),
    'lmev mutex_vaults.scn --exhaustive json': (0, 'c28297ac06e7efa3'),
    'rlmev mutex_vaults.scn --exhaustive json': (0, '099be9276315b92d'),
    'mev mutex_vaults.scn --exhaustive json': (0, '9d8727e12f338c24'),
    'nonint mutex_vaults.scn --exhaustive json': (1, 'd0102c511f233775'),
    'richnonint mutex_vaults.scn --exhaustive json': (1, 'f47768e9a5cfa84c'),
    'strip-check mutex_vaults.scn --exhaustive json': (0, 'a2ec4771ae1a9491'),
    'epsilon --eps 0 mutex_vaults.scn --exhaustive json': (0, '63782a3a4d857516'),
    'lmev once_cell_droppers.scn --exhaustive json': (0, '8c624be73069a562'),
    'rlmev once_cell_droppers.scn --exhaustive json': (0, 'd0fa938feac497fd'),
    'mev once_cell_droppers.scn --exhaustive json': (0, 'bac5f0743ba9f130'),
    'nonint once_cell_droppers.scn --exhaustive json': (0, '3b966c3f5d89a48a'),
    'richnonint once_cell_droppers.scn --exhaustive json': (0, 'b9a68c75fc628e92'),
    'strip-check once_cell_droppers.scn --exhaustive json': (0, '42a8bac9a606ca2b'),
    'epsilon --eps 0 once_cell_droppers.scn --exhaustive json': (1, '44d045562d78f0d7'),
    'lmev relay_chain.scn --exhaustive json': (0, 'adc82826954219bf'),
    'rlmev relay_chain.scn --exhaustive json': (0, '5d6daaf1089f26d3'),
    'mev relay_chain.scn --exhaustive json': (0, '7614feeca0822f84'),
    'nonint relay_chain.scn --exhaustive json': (0, '00c3b802a43e71ad'),
    'richnonint relay_chain.scn --exhaustive json': (0, '975d8dd5017e9204'),
    'strip-check relay_chain.scn --exhaustive json': (0, 'a4d21a8431f44189'),
    'epsilon --eps 0 relay_chain.scn --exhaustive json': (0, '93bd3b749231a867'),
    'lmev two_amms.scn --exhaustive json': (0, 'bc025f2fba5aa07f'),
    'rlmev two_amms.scn --exhaustive json': (0, '2b9cf19abf015ed4'),
    'mev two_amms.scn --exhaustive json': (0, '4c8d3d055a93e8a3'),
    'nonint two_amms.scn --exhaustive json': (1, '9fd663c86c3a7c91'),
    'richnonint two_amms.scn --exhaustive json': (0, '368ffd0e313a9943'),
    'strip-check two_amms.scn --exhaustive json': (0, 'cd10cc6cfb8c064c'),
    'epsilon --eps 0 two_amms.scn --exhaustive json': (0, 'a333cef1a12349da'),
}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for table, argvs in (("PINNED", report_argvs()), ("DEEP_PINNED", deep_report_argvs()),
                             ("DEADLINE_PINNED", deadline_report_argvs(scratch)),
                             ("EXHAUSTIVE_PINNED", exhaustive_report_argvs())):
            print(f"{table} = {{")
            for rid, argv in argvs.items():
                print(f"    {rid!r}: {digest(argv)!r},")
            print("}")
