import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import lnme
from lnme import cli
from lnme.cli import EXIT_DATA, EXIT_EXHAUSTED, EXIT_OK, EXIT_USAGE, format_btc, main


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def gen_inputs(workdir, snapshots=120, counts="0,5000,0", txs=2000, blocks=120):
    assert run("gen", "timeline", "--bands", "0,10,50", "--counts", counts,
               "--snapshots", snapshots, "--interval", 600, "--out", "tl.csv") == EXIT_OK
    assert run("gen", "blocks", "--count", blocks, "--txs", txs,
               "--interval", 600, "--out", "bl.csv") == EXIT_OK


class TestFormatBtc:
    def test_round_numbers(self):
        assert format_btc(100_000_000) == "1.00000000"
        assert format_btc(0) == "0.00000000"

    def test_fraction_and_sign(self):
        assert format_btc(168_513_000_000) == "1685.13000000"
        assert format_btc(-450_000_000) == "-4.50000000"


class TestGen:
    def test_graph_deterministic(self, workdir):
        assert run("gen", "graph", "--scale-free", "--n", 100, "--m", 2,
                   "--seed", 9, "--out", "a.csv") == EXIT_OK
        assert run("gen", "graph", "--scale-free", "--n", 100, "--m", 2,
                   "--seed", 9, "--out", "b.csv") == EXIT_OK
        a = (workdir / "a.csv").read_text()
        assert a == (workdir / "b.csv").read_text()
        assert a.startswith("node_a,node_b,capacity_sat\n")

    def test_timeline_and_blocks(self, workdir):
        gen_inputs(workdir, snapshots=5, blocks=5)
        tl = (workdir / "tl.csv").read_text().splitlines()
        assert tl[0] == "timestamp,0,10,50"
        assert len(tl) == 6
        bl = (workdir / "bl.csv").read_text().splitlines()
        assert bl[0] == "height,timestamp,tx_count"
        assert bl[1].endswith(",2000")

    @pytest.mark.parametrize("argv, flag", [
        (("blocks", "--count", -3, "--txs", 100), "--count"),
        (("blocks", "--count", 0, "--txs", 100), "--count"),
        (("timeline", "--snapshots", 0), "--snapshots"),
        (("timeline", "--snapshots", -1), "--snapshots"),
        (("timeline", "--snapshots", 2, "--interval", 0), "--interval"),
    ])
    def test_empty_output_is_usage_error(self, workdir, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            run("gen", *argv, "--out", "x.csv")
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (("blocks", "--count", 2, "--txs", -5), "argument --txs: must be >= 0"),
        (("blocks", "--count", 2, "--txs", 1, "--interval", -600), "argument --interval: must be >= 0"),
        (("timeline", "--snapshots", 2, "--count", -4), "argument --count: must be >= 0"),
        (("timeline", "--snapshots", 2, "--bands", "0,abc"), "argument --bands: not a fee rate: 'abc'"),
        (("timeline", "--snapshots", 2, "--bands", "5,5"), "argument --bands: band edges must be strictly"),
        (("timeline", "--snapshots", 2, "--bands", "0,5", "--counts", "1,x"), "argument --counts: not an integer"),
        (("timeline", "--snapshots", 2, "--bands", "0,5", "--counts", "1,-2"), "argument --counts: must be >= 0"),
        (("timeline", "--snapshots", 2, "--bands", "0,5", "--counts", "1,2,3"), "one count per band (2)"),
        (("timeline", "--snapshots", 2, "--counts", "1,2"), "one count per band (36)"),
        (("timeline", "--snapshots", 2, "--count", 10**19), "argument --count: must be <= 9223372036854775807"),
        (("timeline", "--snapshots", 2, "--bands", "0,5", "--counts", f"1,{2**63}"),
         "argument --counts: must be <= 9223372036854775807"),
        (("timeline", "--snapshots", 2, "--start", 2**63 - 1), "= 9223372036854775867, exceeds int64"),
        (("timeline", "--snapshots", 2, "--start", 2**63), "argument --start: must be <= 9223372036854775807"),
        (("timeline", "--snapshots", 2, "--start", -(2**63) - 1), "argument --start: must be >= -9223372036854775808"),
        (("timeline", "--snapshots", 10**17, "--interval", 100), "exceeds int64"),
    ])
    def test_bad_value_is_usage_error(self, workdir, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run("gen", *argv, "--out", "x.csv")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_int64_extremes_are_accepted(self, workdir):
        assert run("gen", "timeline", "--snapshots", 2, "--start", 2**63 - 2, "--interval", 1, "--bands", "0,5",
                   "--count", 2**63 - 1, "--out", "tl.csv") == EXIT_OK
        rows = (workdir / "tl.csv").read_text().splitlines()
        assert rows[-1] == f"{2**63 - 1},{2**63 - 1},{2**63 - 1}"

    def test_zero_txs_and_interval_are_accepted(self, workdir):
        assert run("gen", "blocks", "--count", 2, "--txs", 0, "--interval", 0, "--out", "b.csv") == EXIT_OK
        rows = (workdir / "b.csv").read_text().splitlines()
        assert rows[1:] == ["1,1600000000,0", "2,1600000000,0"]

    @pytest.mark.parametrize(
        "capacity", ["bogus", "constant:abc", "constant:-1", "uniform:5:3", "uniform:1:2:3"]
    )
    def test_bad_capacity_is_usage_error(self, workdir, capsys, capacity):
        with pytest.raises(SystemExit) as exc:
            run("gen", "graph", "--n", 10, "--m", 2, "--capacity", capacity, "--out", "g.csv")
        assert exc.value.code == 2
        assert "argument --capacity" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("n, m, message", [
        (3, 3, "--n must be > --m, got --n 3 --m 3"),
        (2, 5, "--n must be > --m, got --n 2 --m 5"),
        (10, 0, "argument --m: must be >= 1"),
        (10, -2, "argument --m: must be >= 1"),
    ])
    def test_bad_graph_size_is_usage_error(self, workdir, capsys, n, m, message):
        with pytest.raises(SystemExit) as exc:
            run("gen", "graph", "--n", n, "--m", m, "--out", "g.csv")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(workdir.iterdir()) == []


class TestSolve:
    def test_cut_and_curve(self, workdir):
        run("gen", "graph", "--scale-free", "--n", 80, "--m", 2, "--seed", 3, "--out", "g.csv")
        assert run("solve", "--graph", "g.csv", "--k", 5, "--k-max", 20,
                   "--objective", "capacity", "--out", "sol") == EXIT_OK
        cut = json.loads((workdir / "sol.cut.json").read_text())
        assert cut["k"] == 5
        assert len(cut["coalition"]) == 5
        assert cut["edge_count"] == len(cut["cut_channels"])
        curve = (workdir / "sol.curve.csv").read_text().splitlines()
        assert curve[0] == "k,edge_count,cut_capacity_sat"
        assert len(curve) == 21
        manifest = json.loads((workdir / "sol.manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert "graph" in manifest["inputs"]

    def test_missing_graph_is_data_error(self, workdir, capsys):
        assert run("solve", "--graph", "nope.csv", "--k", 2, "--out", "x") == EXIT_DATA
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("g.json", '{"nodes": [{"pub_key": "A"}, {"pub_key": "B"}], "edges": [5]}'),
        ("g.json", '{"nodes": [{"pub_key": ["A"]}], "edges": []}'),
        ("g.json", '{"nodes": [{"pub_key": "A"}, {"pub_key": "B"}],'
                   ' "edges": [{"node1_pub": ["A"], "node2_pub": "B", "capacity": 5}]}'),
        ("g.json", '{"nodes": [{"pub_key": "A"}, {"pub_key": "B"}],'
                   ' "edges": [{"node1_pub": "A", "node2_pub": "B", "capacity": 3.7}]}'),
        ("g.csv", "a,b," + "9" * 200_000 + "\n"),
    ])
    def test_malformed_graph_is_data_error(self, workdir, capsys, name, text):
        (workdir / name).write_text(text)
        assert run("solve", "--graph", name, "--k", 1, "--out", "x") == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: ")
        assert not (workdir / "x.manifest.json").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--k", 0), ("--k", -1), ("--k", "abc"), ("--k-max", -2), ("--k-max", "1.5"),
    ])
    def test_bad_k_is_usage_error(self, workdir, capsys, flag, value):
        run("gen", "graph", "--scale-free", "--n", 10, "--m", 1, "--seed", 0, "--out", "g.csv")
        with pytest.raises(SystemExit) as exc:
            run("solve", "--graph", "g.csv", flag, value, "--out", "x")
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (workdir / "x.manifest.json").exists()

    def test_k_above_node_count_is_data_error(self, workdir, capsys):
        run("gen", "graph", "--scale-free", "--n", 10, "--m", 1, "--seed", 0, "--out", "g.csv")
        assert run("solve", "--graph", "g.csv", "--k", 11, "--out", "x") == EXIT_DATA
        assert "k must be in [1, 10], got 11" in capsys.readouterr().err

    def test_requires_k_or_kmax(self, workdir):
        run("gen", "graph", "--scale-free", "--n", 10, "--m", 1, "--seed", 0, "--out", "g.csv")
        with pytest.raises(SystemExit) as exc:
            run("solve", "--graph", "g.csv", "--out", "x")
        assert exc.value.code == 2


def graph_forms_alive(workdir, monkeypatch):
    """Which forms of an lnd graph are still alive when a ``solve`` run
    builds its LnGraph: the text that ``_read_input`` returned, and the JSON
    tree (its top-level object or its ``nodes`` or ``edges`` array)."""

    class Text(str):
        pass

    class Tree(dict):
        pass

    class Array(list):
        pass

    (workdir / "g.json").write_text(json.dumps({
        "nodes": [{"pub_key": pub} for pub in "ABCD"],
        "edges": [{"channel_id": str(i), "node1_pub": a, "node2_pub": b, "capacity": "5"}
                  for i, (a, b) in enumerate(["AB", "AC", "AD", "BC"])],
    }))
    read_input, loads, build = cli._read_input, json.loads, lnme.graph.LnGraph
    refs, alive = {}, {}

    def read_text(args, name):
        text = Text(read_input(args, name))
        refs["text"] = weakref.ref(text)
        return text

    def load_tree(document, **kwargs):
        doc = loads(document, **kwargs)
        tree = Tree({key: Array(value) if type(value) is list else value for key, value in doc.items()})
        refs["tree"] = [weakref.ref(tree), weakref.ref(tree["nodes"]), weakref.ref(tree["edges"])]
        return tree

    def spy(*columns):
        alive["text"] = refs["text"]() is not None
        alive["tree"] = any(ref() is not None for ref in refs["tree"])
        return build(*columns)

    monkeypatch.setattr(cli, "_read_input", read_text)
    monkeypatch.setattr(json, "loads", load_tree)
    monkeypatch.setattr(lnme.graph, "LnGraph", spy)
    assert run("solve", "--graph", "g.json", "--k", 1, "--out", "x") == EXIT_OK
    assert loads((workdir / "x.cut.json").read_text())["edge_count"] == 3
    return alive


class TestGraphFormLifetimes:
    """An lnd graph is held in one form at a time: the text until the JSON
    tree exists, the tree until the channel columns exist. At paper scale
    this keeps the run's peak at the end of json.loads."""

    def test_the_json_tree_is_dropped_before_the_graph_is_built(self, workdir, monkeypatch):
        assert graph_forms_alive(workdir, monkeypatch)["tree"] is False

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="CPython 3.10 keeps a call's arguments on the caller's stack until the call "
               "returns, so the text lives to the end of the parse",
    )
    def test_the_text_is_dropped_before_the_graph_is_built(self, workdir, monkeypatch):
        assert graph_forms_alive(workdir, monkeypatch)["text"] is False


class TestZombie:
    def test_single_run(self, workdir):
        gen_inputs(workdir)
        assert run("zombie", "--channels", 3000, "--fee", 70, "--timeline", "tl.csv",
                   "--blocks", "bl.csv", "--out", "z") == EXIT_OK
        summary = json.loads((workdir / "z.summary.json").read_text())
        assert summary["blocks_to_close_all"] == 2
        series = (workdir / "z.series.csv").read_text().splitlines()
        assert series[0] == "height,remaining"

    def test_zero_fee_on_congested_window_exhausts(self, workdir):
        gen_inputs(workdir, counts="5000,0,0")
        assert run("zombie", "--channels", 10, "--fee", 0, "--timeline", "tl.csv",
                   "--blocks", "bl.csv", "--out", "z") == EXIT_EXHAUSTED
        summary = json.loads((workdir / "z.summary.json").read_text())
        assert summary["horizon_exhausted"] is True

    def test_fee_sweep_rows(self, workdir):
        gen_inputs(workdir)
        assert run("zombie", "--channels", 1000, "--fee", "5,20,70", "--timeline", "tl.csv",
                   "--blocks", "bl.csv", "--out", "zs") == EXIT_EXHAUSTED
        rows = (workdir / "zs.sweep.csv").read_text().splitlines()
        assert len(rows) == 4  # header + one row per fee

    def test_cut_file_supplies_channel_count(self, workdir):
        gen_inputs(workdir)
        run("gen", "graph", "--scale-free", "--n", 60, "--m", 2, "--seed", 1, "--out", "g.csv")
        run("solve", "--graph", "g.csv", "--k", 4, "--out", "sol")
        assert run("zombie", "--cut-file", "sol.cut.json", "--fee", 70, "--timeline", "tl.csv",
                   "--blocks", "bl.csv", "--out", "z") == EXIT_OK
        cut = json.loads((workdir / "sol.cut.json").read_text())
        summary = json.loads((workdir / "z.summary.json").read_text())
        assert f"n={cut['edge_count']}," in summary["config"]

    def test_empty_cut_file_is_data_error(self, workdir, capsys):
        # a coalition of every node crosses no channel: doublespend attacks
        # none, but zombie has no channel to close
        gen_inputs(workdir, snapshots=3, blocks=3)
        (workdir / "g.csv").write_text("a,b,5\nc,d,7\n")
        assert run("solve", "--graph", "g.csv", "--k", 4, "--out", "sol") == EXIT_OK
        assert json.loads((workdir / "sol.cut.json").read_text())["edge_count"] == 0
        assert run("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70, "--timeline", "tl.csv",
                   "--blocks", "bl.csv", "--out", "d") == EXIT_OK
        capsys.readouterr()
        assert run("zombie", "--cut-file", "sol.cut.json", "--fee", 70, "--timeline", "tl.csv",
                   "--blocks", "bl.csv", "--out", "z") == EXIT_DATA
        assert capsys.readouterr().err == "error: cut file sol.cut.json has edge_count 0: no channel to close\n"
        assert not (workdir / "z.manifest.json").exists()

    @pytest.mark.parametrize("avg", ["inf", "nan", "0", "-3"])
    def test_bad_block_average_is_usage_error(self, workdir, avg, capsys):
        gen_inputs(workdir, snapshots=3, blocks=3)
        with pytest.raises(SystemExit) as exc:
            run("zombie", "--channels", 10, "--fee", 70, "--avg-block-txs", avg,
                "--timeline", "tl.csv", "--blocks", "bl.csv", "--out", "z")
        assert exc.value.code == 2
        assert "--avg-block-txs" in capsys.readouterr().err
        assert not (workdir / "z.summary.json").exists()

    @pytest.mark.parametrize("flags, flag", [
        (("--channels", 10, "--fee", "abc"), "--fee"),
        (("--channels", 10, "--fee", ","), "--fee"),
        (("--channels", 10, "--fee", -5), "--fee"),
        (("--channels", -5, "--fee", 70), "--channels"),
        (("--channels", 0, "--fee", 70), "--channels"),
        (("--channels", 10, "--dynamic", "--initial-fee", "x"), "--initial-fee"),
        (("--channels", 10, "--dynamic", "--initial-fee", 5, "--step", 0), "--step"),
        (("--channels", 10, "--dynamic", "--initial-fee", 5, "--step", "5,-1"), "--step"),
        (("--channels", 10, "--dynamic", "--initial-fee", 5, "--step", "abc"), "--step"),
        (("--channels", 10, "--dynamic", "--initial-fee", 5, "--beta", "nan"), "--beta"),
        (("--channels", 10, "--dynamic", "--initial-fee", 5, "--beta", "inf"), "--beta"),
        (("--channels", 10, "--dynamic", "--initial-fee", 5, "--beta", 0.5), "--beta"),
        (("--channels", 10, "--dynamic", "--initial-fee", 5, "--beta", 1), "--beta"),
        (("--channels", 10, "--dynamic", "--initial-fee", 5, "--beta", "abc"), "--beta"),
    ])
    def test_bad_flag_is_usage_error(self, workdir, capsys, flags, flag):
        gen_inputs(workdir, snapshots=3, blocks=3)
        with pytest.raises(SystemExit) as exc:
            run("zombie", *flags, "--timeline", "tl.csv", "--blocks", "bl.csv", "--out", "z")
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (workdir / "z.manifest.json").exists()

    def test_non_finite_timeline_count_is_data_error(self, workdir, capsys):
        gen_inputs(workdir, snapshots=3, blocks=3)
        tl = workdir / "tl.csv"
        tl.write_text(tl.read_text().replace(",5000,", ",inf,", 1))
        assert run("zombie", "--channels", 10, "--fee", 70,
                   "--timeline", "tl.csv", "--blocks", "bl.csv", "--out", "z") == EXIT_DATA
        assert "line 2: bad count 'inf'" in capsys.readouterr().err

    def test_wrapping_cumulative_outflow_is_data_error(self, workdir, capsys):
        gen_inputs(workdir, snapshots=3, blocks=3)
        # the 10 sat/vB band drops by 9e18 twice: 1.8e19 overflows int64
        big = 9_000_000_000_000_000_000
        rows = [(0, big, 0), (0, 0, 0), (0, big, 0), (0, 0, 0)]
        (workdir / "tl.csv").write_text("timestamp,0,10,50\n" + "".join(
            f"{1_600_000_000 + 600 * i},{a},{b},{c}\n" for i, (a, b, c) in enumerate(rows)
        ))
        assert run("zombie", "--channels", 10, "--fee", 70,
                   "--timeline", "tl.csv", "--blocks", "bl.csv", "--out", "z") == EXIT_DATA
        assert "cumulative outflow does not fit in int64" in capsys.readouterr().err
        assert not (workdir / "z.summary.json").exists()

    def test_dynamic_flags(self, workdir):
        gen_inputs(workdir, counts="0,5000,0")
        assert run("zombie", "--channels", 50, "--dynamic", "--initial-fee", 5,
                   "--step", 2, "--beta", 1.5, "--timeline", "tl.csv",
                   "--blocks", "bl.csv", "--out", "z") == EXIT_OK


class TestDoublespend:
    def make_cut(self, workdir):
        run("gen", "graph", "--scale-free", "--n", 60, "--m", 2, "--seed", 1, "--out", "g.csv")
        run("solve", "--graph", "g.csv", "--k", 4, "--objective", "capacity", "--out", "sol")

    def test_report_outputs(self, workdir):
        gen_inputs(workdir)
        self.make_cut(workdir)
        assert run("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70,
                   "--delay", "fixed:5", "--timeline", "tl.csv", "--blocks", "bl.csv",
                   "--out", "ds") == EXIT_OK
        report = json.loads((workdir / "ds.report.json").read_text())
        assert report["attacked"] == report["compromised"] + report["defended"] + report["undecided"]
        assert report["profit_mode"] == "per-channel"
        series = (workdir / "ds.series.csv").read_text().splitlines()
        assert series[0] == "height,cumulative_compromised"

    def test_average_profit_mode_formula(self, workdir):
        gen_inputs(workdir)
        self.make_cut(workdir)
        assert run("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70,
                   "--delay", "fixed:5", "--profit-mode", "average", "--avg-capacity", 4_500_000,
                   "--timeline", "tl.csv", "--blocks", "bl.csv", "--out", "ds") == EXIT_OK
        report = json.loads((workdir / "ds.report.json").read_text())
        n, a = report["compromised"], report["attacked"]
        assert report["realized_profit_sat"] == 4_500_000 * (2 * n - a) // 2

    @pytest.mark.parametrize("delay, message", [
        ("fixed:-5", "delay blocks must be >= 0"),
        ("fixed:abc", "delay must be 'scaled' or 'fixed:<blocks>', got 'fixed:abc'"),
        ("bogus", "delay must be 'scaled' or 'fixed:<blocks>', got 'bogus'"),
    ])
    def test_bad_delay_is_usage_error(self, workdir, delay, message, capsys):
        gen_inputs(workdir, snapshots=3, blocks=3)
        self.make_cut(workdir)
        with pytest.raises(SystemExit) as exc:
            run("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70,
                "--delay", delay, "--timeline", "tl.csv", "--blocks", "bl.csv", "--out", "ds")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--delay" in err and message in err
        assert not (workdir / "ds.report.json").exists()

    @pytest.mark.parametrize("flags, flag", [
        (("--honest-step", 0), "--honest-step"),
        (("--sweep-dynamic", "--sweep-step", 0), "--sweep-step"),
    ])
    def test_bad_step_is_usage_error(self, workdir, capsys, flags, flag):
        gen_inputs(workdir, snapshots=3, blocks=3)
        self.make_cut(workdir)
        with pytest.raises(SystemExit) as exc:
            run("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70, *flags,
                "--timeline", "tl.csv", "--blocks", "bl.csv", "--out", "ds")
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err
        assert not (workdir / "ds.report.json").exists()

    def test_fee_flags_echo_their_text(self, workdir):
        gen_inputs(workdir, snapshots=3, blocks=3)
        self.make_cut(workdir)
        run("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", "70.0", "--sweep-fee", "40.5",
            "--delay", "fixed:5", "--timeline", "tl.csv", "--blocks", "bl.csv", "--out", "ds")
        parameters = json.loads((workdir / "ds.manifest.json").read_text())["parameters"]
        assert (parameters["attacker_fee"], parameters["sweep_fee"]) == ("70.0", "40.5")

    @pytest.mark.parametrize("flags, message", [
        (("--honest-step", 7, "--honest-beta", "nan"), "argument --honest-beta: beta must be finite and > 1"),
        (("--honest-step", 7, "--honest-beta", 0), "argument --honest-beta: beta must be finite and > 1"),
        (("--sweep-dynamic", "--sweep-beta", 0.9), "argument --sweep-beta: beta must be finite and > 1"),
        (("--sweep-dynamic", "--sweep-beta", "inf"), "argument --sweep-beta: beta must be finite and > 1"),
        (("--profit-mode", "average", "--avg-capacity", -5), "argument --avg-capacity: must be >= 0"),
        (("--profit-mode", "average", "--avg-capacity", "1.5"), "argument --avg-capacity: not an integer"),
        (("--attacker-fee", "abc"), "argument --attacker-fee: not a fee rate: 'abc'"),
        (("--attacker-fee", "nan"), "argument --attacker-fee: not a fee rate: 'nan'"),
        (("--sweep-fee", -3), "argument --sweep-fee: fee rate must be non-negative"),
    ])
    def test_bad_flag_is_usage_error(self, workdir, capsys, flags, message):
        gen_inputs(workdir, snapshots=3, blocks=3)
        self.make_cut(workdir)
        with pytest.raises(SystemExit) as exc:
            run("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70, *flags,
                "--timeline", "tl.csv", "--blocks", "bl.csv", "--out", "ds")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (workdir / "ds.manifest.json").exists()

    def test_average_mode_requires_avg_capacity(self, workdir):
        gen_inputs(workdir)
        self.make_cut(workdir)
        with pytest.raises(SystemExit) as exc:
            run("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70,
                "--profit-mode", "average", "--timeline", "tl.csv", "--blocks", "bl.csv",
                "--out", "ds")
        assert exc.value.code == 2

    def test_undecided_warning_and_exit(self, workdir, capsys):
        gen_inputs(workdir, blocks=40, snapshots=40)
        self.make_cut(workdir)
        code = run("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70,
                   "--delay", "fixed:2000", "--timeline", "tl.csv", "--blocks", "bl.csv",
                   "--out", "ds")
        assert code == EXIT_EXHAUSTED
        assert "undecided" in capsys.readouterr().err

    def test_event_log_written(self, workdir):
        gen_inputs(workdir)
        self.make_cut(workdir)
        assert run("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70,
                   "--delay", "fixed:5", "--event-log", "--timeline", "tl.csv",
                   "--blocks", "bl.csv", "--out", "ds") == EXIT_OK
        lines = (workdir / "ds.events.jsonl").read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert set(first) == {"height", "confirmed"}
        assert first["confirmed"]

    def test_event_log_golden(self, workdir):
        # 12 transactions a block against 75 channels, so commitments,
        # penalties and sweeps that share a cohort confirm in tie order;
        # both sides bump, and 49 channels are compromised, 26 defended
        run("gen", "timeline", "--bands", "0,10,50", "--counts", "0,30,0",
            "--snapshots", 80, "--interval", 600, "--out", "tl.csv")
        run("gen", "blocks", "--count", 80, "--txs", 12, "--interval", 600, "--out", "bl.csv")
        run("gen", "graph", "--scale-free", "--n", 80, "--m", 2, "--seed", 3,
            "--capacity", "uniform:20000:16000000", "--out", "g.csv")
        run("solve", "--graph", "g.csv", "--k", 5, "--objective", "capacity", "--out", "sol")
        assert run("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70,
                   "--delay", "fixed:3", "--honest-step", 2, "--honest-beta", 1.2,
                   "--sweep-fee", 40, "--sweep-dynamic", "--sweep-step", 3, "--sweep-beta", 1.5,
                   "--event-log", "--timeline", "tl.csv", "--blocks", "bl.csv",
                   "--out", "ds") == EXIT_OK
        digests = {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
                   for name in ("ds.events.jsonl", "ds.report.json")}
        assert digests == {
            "ds.events.jsonl": "598bc8d3a6c1e303a12e81c161fda0b1b50bc6adfef07b94be0ced9c35dde56d",
            "ds.report.json": "113c90884cd8459b8dfe7208c0f7b2983679b2d47145038af13d056aa1149e16",
        }

    def test_scenario2_requires_average(self, workdir):
        gen_inputs(workdir)
        self.make_cut(workdir)
        with pytest.raises(SystemExit) as exc:
            run("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70,
                "--scenario", "2", "--timeline", "tl.csv", "--blocks", "bl.csv", "--out", "ds")
        assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ("zombie", "--channels", 10, "--fee", 70),
    ("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70),
])
@pytest.mark.parametrize("preset, match", [
    (("--scenario", "1", "--start", 1_600_000_600), "--start applies to --scenario custom"),
    (("--scenario", "2", "--avg-block-txs", 1000, "--start", 1_600_000_600), "--start applies to --scenario custom"),
    (("--scenario", "1", "--avg-block-txs", 1000), "--avg-block-txs applies to 2 and custom"),
])
def test_a_preset_refuses_the_values_it_ignores(workdir, capsys, command, preset, match):
    # a preset has its own start, and scenario 1 replays historical block
    # sizes: a value it would ignore is a usage error, and nothing is written
    with pytest.raises(SystemExit) as exc:
        run(*command, *preset, "--timeline", "tl.csv", "--blocks", "bl.csv", "--out", "x")
    assert exc.value.code == 2
    assert match in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("command, match", [
    (("zombie", "--channels", 10, "--dynamic", "--initial-fee", 5, "--fee", 70),
     "--fee applies to static runs; --dynamic starts at --initial-fee"),
    (("zombie", "--channels", 10, "--fee", 70, "--initial-fee", 5), "--initial-fee applies to --dynamic runs"),
    (("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70, "--avg-capacity", 4_500_000),
     "--avg-capacity applies to --profit-mode average"),
    (("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70, "--profit-mode", "per-channel",
      "--avg-capacity", 4_500_000), "--avg-capacity applies to --profit-mode average"),
])
def test_a_flag_the_run_would_ignore_is_refused(workdir, capsys, command, match):
    # a static zombie reads no --initial-fee, a dynamic one no --fee, and
    # per-channel profit no --avg-capacity: the manifest would record a
    # value that changed nothing, so it is a usage error, and nothing is
    # written
    with pytest.raises(SystemExit) as exc:
        run(*command, "--timeline", "tl.csv", "--blocks", "bl.csv", "--out", "x")
    assert exc.value.code == 2
    assert match in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("value", ["1e5000", "1e4000000"])
@pytest.mark.parametrize("argv, flag", [
    (("zombie", "--channels", 10, "--fee"), "--fee"),
    (("zombie", "--channels", 10, "--dynamic", "--initial-fee"), "--initial-fee"),
    (("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee"), "--attacker-fee"),
    (("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70, "--sweep-fee"), "--sweep-fee"),
    (("gen", "timeline", "--snapshots", 2, "--bands"), "--bands"),
])
def test_fee_flag_with_huge_exponent_is_usage_error(workdir, capsys, argv, flag, value):
    # refused from the exponent alone, before the number is built
    scenario = () if argv[0] == "gen" else ("--timeline", "tl.csv", "--blocks", "bl.csv")
    with pytest.raises(SystemExit) as exc:
        run(*argv, value, *scenario, "--out", "x")
    assert exc.value.code == 2
    assert f"argument {flag}: fee rate '{value}' out of range" in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("command", [
    ("zombie", "--fee", 70),
    ("doublespend", "--attacker-fee", 70),
])
@pytest.mark.parametrize("cut", [
    "[1, 2]",
    '{"k": 1}',
    '{"k": 1, "edge_count": 5, "cut_capacity_sat": 0, "cut_channels": []}',
    '{"k": 1, "edge_count": 1.9, "cut_capacity_sat": 100,'
    ' "cut_channels": [{"id": "x", "node1": "a", "node2": "b", "capacity_sat": 100}]}',
    '{"k": 1, "edge_count": 1, "cut_capacity_sat": 100, "coalition": "abc",'
    ' "cut_channels": [{"id": "x", "node1": "a", "node2": "b", "capacity_sat": 100}]}',
    '{"k": 1, "edge_count": 1, "cut_capacity_sat": 100,'
    ' "cut_channels": [{"id": {"x": 1}, "node1": "a", "node2": "b", "capacity_sat": 100}]}',
])
def test_malformed_cut_is_data_error(workdir, capsys, command, cut):
    gen_inputs(workdir, snapshots=3, blocks=3)
    (workdir / "cut.json").write_text(cut)
    assert run(*command, "--cut-file", "cut.json", "--timeline", "tl.csv", "--blocks", "bl.csv",
               "--out", "x") == EXIT_DATA
    assert "malformed cut JSON" in capsys.readouterr().err
    assert not (workdir / "x.manifest.json").exists()


class TestManifest:
    def test_rerun_is_bit_identical(self, workdir):
        gen_inputs(workdir, snapshots=10, blocks=10)
        run("gen", "graph", "--scale-free", "--n", 40, "--m", 2, "--seed", 5, "--out", "g.csv")
        run("solve", "--graph", "g.csv", "--k", 3, "--out", "one")
        run("solve", "--graph", "g.csv", "--k", 3, "--out", "two")
        one = (workdir / "one.cut.json").read_text().replace("one.manifest", "x.manifest")
        two = (workdir / "two.cut.json").read_text().replace("two.manifest", "x.manifest")
        assert one == two
        m1 = json.loads((workdir / "one.manifest.json").read_text())
        m2 = json.loads((workdir / "two.manifest.json").read_text())
        assert m1["inputs"] == m2["inputs"]
        assert m1["parameters"] == m2["parameters"]

    def test_outputs_reference_manifest(self, workdir):
        gen_inputs(workdir, snapshots=10, blocks=10)
        run("zombie", "--channels", 10, "--fee", 70, "--timeline", "tl.csv",
            "--blocks", "bl.csv", "--out", "z")
        summary = json.loads((workdir / "z.summary.json").read_text())
        assert summary["manifest"] == "z.manifest.json"
        manifest = json.loads((workdir / "z.manifest.json").read_text())
        assert "z.series.csv" in manifest["outputs"]

    @pytest.mark.parametrize("loader, name, path, argv", [
        ("load_timeline", "timeline", "tl.csv",
         ("zombie", "--channels", 10, "--fee", 70, "--timeline", "tl.csv", "--blocks", "bl.csv")),
        ("parse_edge_list", "graph", "g.csv", ("solve", "--graph", "g.csv", "--k", 2)),
    ])
    def test_inputs_replaced_after_the_parse_keep_their_digest(self, workdir, monkeypatch, loader, name, path, argv):
        # the manifest hashes the bytes the run parsed, not the file at exit
        gen_inputs(workdir, snapshots=10, blocks=10)
        run("gen", "graph", "--scale-free", "--n", 20, "--m", 2, "--seed", 5, "--out", "g.csv")
        parsed = hashlib.sha256((workdir / path).read_bytes()).hexdigest()
        parse = getattr(cli, loader)

        def parse_then_replace(text):
            result = parse(text)
            (workdir / path).write_text("replaced\n")
            return result

        monkeypatch.setattr(cli, loader, parse_then_replace)
        assert run(*argv, "--out", "x") == EXIT_OK
        assert json.loads((workdir / "x.manifest.json").read_text())["inputs"][name] == parsed


    @pytest.mark.parametrize("form", ["plain", "crlf", "quoted-header"])
    def test_timeline_digest_is_the_sha256_of_its_bytes(self, workdir, form):
        # longer than a slice of the streamed read; the quoted header sends
        # the whole file through the cell-by-cell reader
        rows = "".join(f"{1_600_000_000 + 60 * i},{i % 7},{5000 - i % 4000},{i % 40}\n" for i in range(5_000))
        text = {"plain": "timestamp,0,10,50\n" + rows,
                "crlf": ("timestamp,0,10,50\n" + rows).replace("\n", "\r\n"),
                "quoted-header": '"timestamp","0","10","50"\n' + rows}[form]
        gen_inputs(workdir, snapshots=3, blocks=10)
        (workdir / "tl.csv").write_bytes(text.encode())
        assert run("zombie", "--channels", 10, "--fee", 70, "--timeline", "tl.csv", "--blocks", "bl.csv",
                   "--out", "z") == EXIT_OK
        digest = json.loads((workdir / "z.manifest.json").read_text())["inputs"]["timeline"]
        assert digest == hashlib.sha256(text.encode()).hexdigest()

    def test_the_timeline_is_opened_once(self, workdir, monkeypatch):
        gen_inputs(workdir, snapshots=10, blocks=10)
        opened = []

        def tracked_open(file, *args, **kwargs):
            opened.append(str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", tracked_open, raising=False)
        assert run("zombie", "--channels", 10, "--fee", 70, "--timeline", "tl.csv", "--blocks", "bl.csv",
                   "--out", "z") == EXIT_OK
        assert opened == ["tl.csv"]


# Every command's manifest, pinned: (argv, exit code, manifest, expected fields).
SCENARIO = ("--timeline", "tl.csv", "--blocks", "bl.csv")
MANIFEST_RUNS = [
    (
        ("gen", "timeline", "--constant", "--bands", "0,10,50", "--counts", "0,5000,0",
         "--snapshots", 40, "--interval", 600, "--out", "tl.csv"),
        EXIT_OK,
        "tl.csv.manifest.json",
        {
            "command": "gen timeline",
            "parameters": {"bands": "0,10,50", "count": 0, "counts": "0,5000,0",
                           "interval": 600, "snapshots": 40, "start": 1_600_000_000},
            "seeds": [],
            "outputs": ["tl.csv", "tl.csv.manifest.json"],
        },
    ),
    (
        ("gen", "blocks", "--count", 40, "--txs", 2000, "--interval", 600, "--out", "bl.csv"),
        EXIT_OK,
        "bl.csv.manifest.json",
        {
            "command": "gen blocks",
            "parameters": {"count": 40, "interval": 600, "start": 1_600_000_000,
                           "start_height": 1, "txs": 2000},
            "seeds": [],
            "outputs": ["bl.csv", "bl.csv.manifest.json"],
        },
    ),
    (
        ("gen", "graph", "--scale-free", "--n", 60, "--m", 2, "--seed", 1, "--out", "g.csv"),
        EXIT_OK,
        "g.csv.manifest.json",
        {
            "command": "gen graph",
            "parameters": {"capacity": "constant:4500000", "m": 2, "n": 60},
            "seeds": [1],
            "outputs": ["g.csv", "g.csv.manifest.json"],
        },
    ),
    (
        ("solve", "--graph", "g.csv", "--k", 4, "--k-max", 6, "--objective", "capacity",
         "--out", "sol"),
        EXIT_OK,
        "sol.manifest.json",
        {
            "command": "solve",
            "parameters": {"format": None, "k": 4, "k_max": 6, "objective": "capacity"},
            "seeds": [],
            "outputs": ["sol.curve.csv", "sol.cut.json", "sol.manifest.json"],
        },
    ),
    (
        ("zombie", "--channels", 50, "--fee", 70, *SCENARIO, "--out", "z"),
        EXIT_OK,
        "z.manifest.json",
        {
            "command": "zombie",
            "parameters": {"avg_block_txs": None, "beta": 1.01, "channels": 50, "dynamic": False,
                           "fee": "70", "initial_fee": None, "scenario": "custom", "start": None,
                           "step": "10"},
            "seeds": [],
            "outputs": ["z.manifest.json", "z.series.csv", "z.summary.json"],
        },
    ),
    (
        ("zombie", "--cut-file", "sol.cut.json", "--fee", 70, "--avg-block-txs", 1500.5,
         *SCENARIO, "--out", "zc"),
        EXIT_OK,
        "zc.manifest.json",
        {
            "command": "zombie",
            "parameters": {"avg_block_txs": 1500.5, "beta": 1.01, "channels": 52,
                           "dynamic": False, "fee": "70", "initial_fee": None,
                           "scenario": "custom", "start": None, "step": "10"},
            "seeds": [],
            "outputs": ["zc.manifest.json", "zc.series.csv", "zc.summary.json"],
        },
    ),
    (
        ("zombie", "--channels", 20, "--dynamic", "--initial-fee", 5, "--step", "2,4",
         *SCENARIO, "--out", "zs"),
        EXIT_EXHAUSTED,
        "zs.manifest.json",
        {
            "command": "zombie",
            "parameters": {"avg_block_txs": None, "beta": 1.01, "channels": 20, "dynamic": True,
                           "fee": None, "initial_fee": "5", "scenario": "custom", "start": None,
                           "step": "2,4"},
            "seeds": [],
            "outputs": ["zs.manifest.json", "zs.sweep.csv"],
        },
    ),
    (
        ("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70, "--delay", "fixed:5",
         "--strict-expiry", "--event-log", *SCENARIO, "--out", "ds"),
        EXIT_OK,
        "ds.manifest.json",
        {
            "command": "doublespend",
            "parameters": {"attacker_fee": "70", "avg_block_txs": None, "avg_capacity": None,
                           "delay": "fixed:5", "honest_beta": 1.1, "honest_step": None,
                           "profit_mode": "per-channel", "scenario": "custom", "start": None,
                           "strict_expiry": True, "sweep_beta": 1.1, "sweep_dynamic": False,
                           "sweep_fee": "100", "sweep_step": 7},
            "seeds": [],
            "outputs": ["ds.events.jsonl", "ds.manifest.json", "ds.report.json", "ds.series.csv"],
        },
    ),
]


def test_every_command_manifest_is_pinned(workdir):
    for argv, code, manifest, expected in MANIFEST_RUNS:
        assert run(*argv) == code, argv
        doc = json.loads((workdir / manifest).read_text())
        assert {key: doc[key] for key in expected} == expected, argv
        for output in expected["outputs"]:
            assert (workdir / output).is_file(), output


# -- the cyclic collector ------------------------------------------------------


@pytest.fixture
def collector():
    """Puts the cyclic collector back in the state the test found it in."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def run_code(*argv):
    """main's exit code, argparse's SystemExit included."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("argv, code", [
        (("gen", "blocks", "--count", 2, "--txs", 1, "--out", "b.csv"), EXIT_OK),
        (("zombie", "--channels", 5, "--fee", 70, "--timeline", "missing.csv",
          "--blocks", "missing.csv", "--out", "z"), EXIT_DATA),
        (("gen", "blocks", "--count", 0, "--txs", 1, "--out", "b.csv"), EXIT_USAGE),
        (("solve", "--graph", "g.csv", "--out", "s"), EXIT_USAGE),
    ], ids=["ok", "data-error", "bad-flag", "failed-validation"])
    def test_main_restores_the_callers_state(self, workdir, capsys, collector, enabled, argv, code):
        (gc.enable if enabled else gc.disable)()
        assert run_code(*argv) == code
        assert gc.isenabled() is enabled

    def test_collector_is_off_while_a_command_runs(self, workdir, monkeypatch, collector):
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            raise RuntimeError("a fault no handler in main catches")

        monkeypatch.setattr(cli, "cmd_gen_blocks", command)
        gc.enable()
        with pytest.raises(RuntimeError):
            run("gen", "blocks", "--count", 2, "--txs", 1, "--out", "b.csv")
        assert seen == [False]
        assert gc.isenabled()


# Runs whose input grows with a size: (argv for a size, the two sizes).
GROWING_RUNS = {
    "zombie-static": (lambda n: ("zombie", "--channels", n, "--fee", 70, *SCENARIO, "--out", "z"), (50, 20_000)),
    "zombie-dynamic": (
        lambda n: ("zombie", "--channels", n, "--dynamic", "--initial-fee", 5, "--step", 2, "--beta", 2,
                   *SCENARIO, "--out", "z"),
        (50, 20_000),
    ),
    "doublespend": (
        lambda k: ("doublespend", "--cut-file", f"c{k}.cut.json", "--attacker-fee", 70, "--delay", "fixed:5",
                   "--honest-step", 2, "--event-log", *SCENARIO, "--out", "ds"),
        (2, 12),
    ),
    "solve": (lambda k: ("solve", "--graph", "g.csv", "--k", k, "--out", "s"), (2, 20)),
}


@pytest.mark.parametrize("name", GROWING_RUNS)
def test_cyclic_garbage_does_not_grow_with_the_input(workdir, capsys, collector, name):
    # the CLI runs without the collector, so a reference cycle built per
    # transaction, channel or node would pile up uncollected during a run
    gen_inputs(workdir)
    run("gen", "graph", "--scale-free", "--n", 200, "--m", 2, "--seed", 1, "--out", "g.csv")
    for k in GROWING_RUNS["doublespend"][1]:
        run("solve", "--graph", "g.csv", "--k", k, "--objective", "capacity", "--out", f"c{k}")
    argv_for, sizes = GROWING_RUNS[name]
    gc.collect()
    gc.disable()
    garbage = []
    for size in sizes:
        assert run(*argv_for(size)) == EXIT_OK
        garbage.append(gc.collect())
    assert garbage[0] == garbage[1]


# -- reruns across processes ---------------------------------------------------

RERUN_COMMANDS = [
    ("gen", "timeline", "--bands", "0,10,50", "--counts", "0,5000,0", "--snapshots", 40,
     "--interval", 600, "--out", "tl.csv"),
    ("gen", "blocks", "--count", 40, "--txs", 2000, "--interval", 600, "--out", "bl.csv"),
    ("gen", "graph", "--scale-free", "--n", 80, "--m", 2, "--seed", 3,
     "--capacity", "uniform:1000:9000000", "--out", "g.csv"),
    ("solve", "--graph", "g.csv", "--k", 5, "--k-max", 8, "--objective", "capacity", "--out", "sol"),
    ("zombie", "--channels", 300, "--dynamic", "--initial-fee", "5,8", "--step", "2,3", "--beta", 1.5,
     *SCENARIO, "--out", "zs"),
    ("zombie", "--cut-file", "sol.cut.json", "--dynamic", "--initial-fee", 5, "--step", 2,
     "--beta", 1.5, *SCENARIO, "--out", "zc"),
    ("doublespend", "--cut-file", "sol.cut.json", "--attacker-fee", 70, "--delay", "fixed:5",
     "--honest-step", 2, "--sweep-dynamic", "--sweep-step", 3, "--event-log", *SCENARIO, "--out", "ds"),
]

RERUN_SCRIPT = """
import json, sys
from lnme.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_reruns_are_byte_identical_across_processes_and_hash_seeds(tmp_path):
    src = str(Path(lnme.__file__).resolve().parents[1])
    commands = json.dumps([[str(a) for a in argv] for argv in RERUN_COMMANDS])
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hashseed{seed}"
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", RERUN_SCRIPT, commands], cwd=out, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        runs.append((done.stdout, files))
    (stdout0, files0), (stdout1, files1) = runs
    assert json.loads(stdout0.splitlines()[-1]) == [EXIT_OK] * len(RERUN_COMMANDS)
    assert stdout0 == stdout1
    assert sorted(files0) == sorted(files1)
    for name in ("sol.cut.json", "zs.sweep.csv", "zc.summary.json", "ds.events.jsonl", "ds.manifest.json"):
        assert name in files0
    for name, data in files0.items():
        assert data == files1[name], name
