"""Tests of the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parents[2]


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, type(parser._actions[-1])) and a.choices
        )
        assert {
            "strategies",
            "figure7",
            "figure8",
            "figure9",
            "table1",
            "table2",
            "ablations",
            "sensitivity",
            "dispatch",
        } <= set(subparsers.choices)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_strategies(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        assert "regfile_transpose" in out and "paper" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Robust PCA" in out

    def test_table1_custom_heights(self, capsys):
        assert main(["table1", "--heights", "1000,10000"]) == 0
        out = capsys.readouterr().out
        assert "1k x 192" in out and "10k x 192" in out
        assert "1M" not in out

    def test_figure9_custom_widths(self, capsys):
        assert main(["figure9", "--widths", "64,4096"]) == 0
        out = capsys.readouterr().out
        assert "4096" in out

    def test_dispatch(self, capsys):
        assert main(["dispatch", "--m", "100000", "--n", "64"]) == 0
        out = capsys.readouterr().out
        assert "choice: caqr" in out

    def test_dispatch_square(self, capsys):
        assert main(["dispatch", "--m", "8192", "--n", "8192"]) == 0
        out = capsys.readouterr().out
        assert "choice: blocked" in out

    def test_figure7(self, capsys):
        assert main(["figure7"]) == 0
        assert "128 x 16" in capsys.readouterr().out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "PCIe latency" in out and "DRAM bandwidth" in out

    def test_overlap_matches_committed_table(self):
        # The modeled overlap table is pure shape arithmetic: a host-side
        # change that moves one byte of it changed the model.
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        out = subprocess.run(
            [sys.executable, "-m", "repro", "overlap"],
            cwd=REPO, env=env, capture_output=True, check=True,
        ).stdout
        assert out == (REPO / "benchmarks" / "results" / "overlap.txt").read_bytes()


class TestPathChoices:
    """``plan --path`` and ``trace --policy`` take their names from the
    engine table, and a policy the flags cannot complete is a usage error."""

    def test_choices_are_the_table(self):
        from repro.runtime.policy import PATH_NAMES

        sub = next(a for a in build_parser()._actions if a.choices and "plan" in a.choices)
        for command, flag in (("plan", "--path"), ("trace", "--policy")):
            action = next(
                a for a in sub.choices[command]._actions if flag in a.option_strings
            )
            assert tuple(action.choices) == PATH_NAMES

    def test_unknown_path_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--m", "64", "--n", "8", "--path", "warp-drive"])
        assert exc.value.code == 2
        assert "invalid choice: 'warp-drive'" in capsys.readouterr().err

    def test_plan_streaming_names_the_missing_field(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--m", "64", "--n", "8", "--path", "streaming"])
        assert exc.value.code == 2
        assert "requires chunk_rows=" in capsys.readouterr().err

    def test_trace_sharded_names_the_missing_field(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--shape", "256x16", "--policy", "sharded"])
        assert exc.value.code == 2
        assert "requires shards=" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["plan", "--m", "64", "--n", "8"], ["trace", "--shape", "256x16"]],
        ids=["plan", "trace"],
    )
    def test_workers_flag_is_gone(self, capsys, argv):
        # The look-ahead driver runs on one thread; no command takes a
        # worker count.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["seed", "seed_structured"])
    def test_plan_seed_paths_are_refused(self, capsys, path):
        # The per-node reference lives in tests/, not in the engine table.
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--m", "1000", "--n", "40", "--path", path])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
