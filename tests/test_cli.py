"""CLI tests: every subcommand runs and prints its headline content."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_atlas_release_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["atlas", "--release", "99"])


class TestCommands:
    def test_calibrate(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "bytes/base" in out
        assert "85.0 GiB" in out

    def test_fig3(self, capsys):
        assert main(["fig3", "--rows", "5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "weighted mean speedup" in out

    def test_fig4_custom_policy(self, capsys):
        assert main(["fig4", "--threshold", "0.2", "--check", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "threshold 20%" in out

    def test_mini_fig3(self, capsys):
        assert main(["mini-fig3", "--reads", "120"]) == 0
        assert "index ratio" in capsys.readouterr().out

    def test_index_build_then_hit(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["index", "--build", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "built" in out
        assert "jump-table L" in out
        assert "misses: 1 (this invocation)" in out

        assert main(["index", "--build", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache hit (mmap)" in out
        assert "hits: 1" in out

    def test_index_report_only(self, capsys, tmp_path):
        assert main(["index", "--cache-dir", str(tmp_path / "empty")]) == 0
        assert "Index cache" in capsys.readouterr().out

    def test_mini_fig3_with_cache_dir(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["mini-fig3", "--reads", "120", "--cache-dir", cache_dir]
        ) == 0
        assert "index ratio" in capsys.readouterr().out
        from repro.align.cache import IndexCache

        assert len(IndexCache(cache_dir).entries()) == 2  # r108 + r111

    def test_config_table(self, capsys):
        assert main(["config-table"]) == 0
        out = capsys.readouterr().out
        assert "r6a.4xlarge" in out
        assert "Index fits in RAM?" in out

    def test_architecture(self, capsys):
        assert main(["architecture", "--jobs", "30"]) == 0
        assert "Architecture sweep" in capsys.readouterr().out

    def test_ablation(self, capsys):
        assert main(["ablation", "--corpus", "100"]) == 0
        assert "ablation" in capsys.readouterr().out

    def test_pseudo(self, capsys):
        assert main(["pseudo"]) == 0
        out = capsys.readouterr().out
        assert "pseudo-stock" in out
        assert "Transferability" in out

    def test_hpc(self, capsys):
        assert main(["hpc", "--jobs", "30", "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "node-hours" in out

    def test_atlas_on_demand(self, capsys):
        assert main(["atlas", "--jobs", "30", "--fleet", "4"]) == 0
        out = capsys.readouterr().out
        assert "on-demand" in out
        assert "total cost" in out

    def test_atlas_spot_r108(self, capsys):
        assert main(["atlas", "--jobs", "30", "--spot", "--release", "108"]) == 0
        out = capsys.readouterr().out
        assert "spot" in out
        assert "release 108" in out

    def test_plan(self, capsys):
        assert main(["plan", "--jobs", "20", "--deadline", "24"]) == 0
        out = capsys.readouterr().out
        assert "Campaign plan" in out
        assert "<===" in out

    def test_plan_infeasible_exit_code(self, capsys):
        assert main(["plan", "--jobs", "40", "--deadline", "0.01"]) == 1
        assert "NO feasible option" in capsys.readouterr().out

    def test_diagrams(self, capsys):
        assert main(["diagrams"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out and "Fig. 2" in out

    def test_full_atlas_scaled(self, capsys):
        assert main(["full-atlas", "--files", "200", "--fleet", "8"]) == 0
        out = capsys.readouterr().out
        assert "Full atlas projection" in out
        assert "cheaper" in out

    def test_atlas_spot_drain_columns(self, capsys):
        assert main(["atlas", "--jobs", "30", "--spot"]) == 0
        out = capsys.readouterr().out
        assert "jobs drained" in out
        assert "work saved by drain (h)" in out
        assert "queue redeliveries" in out


class TestPipelineCommand:
    def test_journaled_run_then_resume(self, capsys, tmp_path):
        journal = str(tmp_path / "batch.jsonl")
        assert main(["pipeline", "--accessions", "2", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "0 pending" in out
        assert (
            main(["pipeline", "--accessions", "2", "--journal", journal, "--resume"])
            == 0
        )
        out = capsys.readouterr().out
        assert "journal" in out  # both rows replayed, none re-run
        assert " run " not in out

    def test_streamed_parallel_shard_checkpoints_then_resume(
        self, capsys, tmp_path
    ):
        """--stream combines with --max-parallel and --shard-checkpoints."""
        args = [
            "pipeline",
            "--stream",
            "--max-parallel",
            "2",
            "--shard-checkpoints",
            "--journal",
            str(tmp_path / "batch.jsonl"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "streamed 6 accessions" in out
        assert "0 pending" in out
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert " run " not in out  # every row replayed from the journal

    def test_resume_requires_journal(self, capsys):
        assert main(["pipeline", "--accessions", "2", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_incompatible_journal_exits_2(self, capsys, tmp_path):
        journal = tmp_path / "batch.jsonl"
        journal.write_text(
            '{"t":"batch-start","v":1,"fp":"0000000000000000",'
            '"accessions":["SRR9300001"]}\n'
        )
        code = main(
            [
                "pipeline",
                "--accessions",
                "2",
                "--journal",
                str(journal),
                "--resume",
            ]
        )
        assert code == 2
        assert "refusing to resume" in capsys.readouterr().err
