"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main, resolve_graph
from repro.errors import ReproError
from repro.faithful import DEVIATION_CATALOGUE

#: ``repro deviate <name> C --graph figure1`` for every catalogue entry,
#: in catalogue order, as printed before the deviation runs were folded
#: into ``run_deviation``.
DEVIATE_GOLDEN = Path(__file__).parent / "data" / "deviate_figure1_C.txt"


class TestResolveGraph:
    def test_figure1(self):
        graph = resolve_graph("figure1")
        assert set(graph.nodes) == {"A", "B", "C", "D", "X", "Z"}

    def test_random_spec(self):
        graph = resolve_graph("random:5:3")
        assert len(graph) == 5
        assert graph.is_biconnected()

    def test_random_spec_deterministic(self):
        assert resolve_graph("random:5:3").edges == resolve_graph(
            "random:5:3"
        ).edges

    def test_bad_specs(self):
        with pytest.raises(ReproError):
            resolve_graph("mystery")
        with pytest.raises(ReproError):
            resolve_graph("random:5")


class TestCommands:
    def test_lcp_command(self, capsys):
        assert main(["lcp", "--graph", "figure1", "--source", "Z"]) == 0
        out = capsys.readouterr().out
        assert "Lowest-cost paths from Z" in out
        assert "Z-C-D-X" in out

    def test_lcp_unknown_source(self, capsys):
        assert main(["lcp", "--source", "ghost"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_faithful(self, capsys):
        assert main(["run", "--graph", "random:4:1"]) == 0
        out = capsys.readouterr().out
        assert "certified:  True" in out
        assert "flags:      0" in out

    def test_run_plain(self, capsys):
        assert main(["run", "--graph", "random:4:1", "--plain"]) == 0
        out = capsys.readouterr().out
        assert "plain FPSS" in out

    def test_deviate_command(self, capsys):
        assert (
            main(
                [
                    "deviate",
                    "payment-underreport",
                    "C",
                    "--graph",
                    "figure1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "payment-underreport by C" in out
        assert "plain" in out and "faithful" in out

    def test_deviate_golden_every_catalogue_entry(self, capsys):
        """Gains, detection and restarts, not just labels, for all of
        the catalogue on the paper's network."""
        for name in DEVIATION_CATALOGUE:
            assert main(["deviate", name, "C", "--graph", "figure1"]) == 0
        assert capsys.readouterr().out == DEVIATE_GOLDEN.read_text()

    def test_deviate_unknown_deviation(self, capsys):
        assert main(["deviate", "mind-control", "C"]) == 2
        assert "unknown deviation" in capsys.readouterr().err

    def test_deviate_unknown_node(self, capsys):
        assert main(["deviate", "cost-lie", "ghost"]) == 2

    def test_catalogue_command(self, capsys):
        assert main(["catalogue"]) == 0
        out = capsys.readouterr().out
        assert "copy-drop" in out
        assert "message-passing" in out
        assert "execution" in out


class TestSweepCommand:
    def test_spec_file_sweep(self, capsys, tmp_path):
        import csv
        import json

        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "cli-test",
                    "base": {"size": 6},
                    "axes": {
                        "topology": ["random", "ring"],
                        "traffic": ["uniform", "gravity"],
                        "seed": [0, 1, 2],
                    },
                }
            )
        )
        out_dir = tmp_path / "artifacts"
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec),
                    "--out",
                    str(out_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep 'cli-test': 12 scenarios" in out
        assert "overpayment_ratio" in out
        with open(out_dir / "results.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12
        assert all(row["error"] == "" for row in rows)
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "sweep.json").exists()

    def test_custom_group_by_and_metric(self, capsys, tmp_path):
        import json

        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps({"axes": {"seed": [0, 1], "size": [6, 8]}})
        )
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec),
                    "--out",
                    str(tmp_path / "a"),
                    "--group-by",
                    "size",
                    "--metric",
                    "total_payment",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Per-cell total_payment" in out
        assert "size=6" in out and "size=8" in out

    def test_bad_spec_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["sweep", "--spec", str(missing)]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", "--spec", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bad_grid_field(self, capsys, tmp_path):
        import json

        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"axes": {"colour": ["red"]}}))
        assert main(["sweep", "--spec", str(spec)]) == 2
        assert "unknown grid fields" in capsys.readouterr().err

    def test_wrong_typed_axis_value(self, capsys, tmp_path):
        import json

        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"axes": {"size": ["8"]}}))
        assert main(["sweep", "--spec", str(spec)]) == 2
        assert "size must be an integer" in capsys.readouterr().err

    def test_bad_shard_rejected(self, capsys, tmp_path):
        import json

        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"axes": {"seed": [0, 1]}}))
        for shard in ("0/2", "3/2", "x/2", "2", "1/2/3"):
            assert (
                main(["sweep", "--spec", str(spec), "--shard", shard]) == 2
            )
            assert "bad shard" in capsys.readouterr().err

    def test_bad_group_by_fails_before_running(self, capsys, tmp_path):
        import json
        import time

        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"axes": {"seed": [0, 1]}}))
        started = time.perf_counter()
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec),
                    "--out",
                    str(tmp_path / "o"),
                    "--group-by",
                    "topolgy",
                ]
            )
            == 2
        )
        assert "unknown group_by fields" in capsys.readouterr().err
        # Fail-fast: no scenario ran, no artifact dir appeared.
        assert time.perf_counter() - started < 5.0
        assert not (tmp_path / "o").exists()


class TestTelemetryCLI:
    def _sweep(self, tmp_path, *extra):
        import json

        spec = tmp_path / "sweep.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "obs-test",
                    "base": {"size": 6},
                    "axes": {"seed": [0, 1]},
                }
            )
        )
        out = tmp_path / "artifacts"
        code = main(
            ["sweep", "--spec", str(spec), "--out", str(out), *extra]
        )
        return code, out

    def test_telemetry_flag_writes_feed(self, capsys, tmp_path):
        code, out = self._sweep(tmp_path, "--telemetry")
        assert code == 0
        assert (out / "telemetry.jsonl").exists()
        # Canonical artifacts unaffected.
        assert (out / "results.csv").exists()
        capsys.readouterr()

    def test_no_feed_without_flag(self, capsys, tmp_path):
        code, out = self._sweep(tmp_path)
        assert code == 0
        assert not (out / "telemetry.jsonl").exists()
        capsys.readouterr()

    def test_progress_lines_on_stderr(self, capsys, tmp_path):
        code, _ = self._sweep(tmp_path, "--progress")
        assert code == 0
        err = capsys.readouterr().err
        assert "[1/2] ok" in err and "[2/2] ok" in err

    def test_no_progress_by_default(self, capsys, tmp_path):
        code, _ = self._sweep(tmp_path)
        assert code == 0
        assert "[1/2]" not in capsys.readouterr().err

    def test_failed_cell_line_has_class_and_key(self, capsys, tmp_path):
        import json

        spec = tmp_path / "bad.json"
        spec.write_text(
            json.dumps(
                {
                    "base": {
                        "size": 6,
                        "cost_dist": "pareto",
                        "cost_low": 0.0,
                    },
                    "axes": {"seed": [0]},
                }
            )
        )
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec),
                    "--out",
                    str(tmp_path / "o"),
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "failed cell [GraphError]" in out
        assert "(probe=payments)" in out

    def test_status_command(self, capsys, tmp_path):
        import json

        _, out = self._sweep(tmp_path, "--telemetry")
        capsys.readouterr()
        assert main(["status", str(out)]) == 0
        text = capsys.readouterr().out
        assert "obs-test" in text
        assert "2/2 cells done" in text
        assert main(["status", str(out), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 2
        assert payload["finished"] == 2
        assert payload["complete"] is True

    def test_tail_command(self, capsys, tmp_path):
        import json

        _, out = self._sweep(tmp_path, "--telemetry")
        capsys.readouterr()
        assert main(["tail", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any("sweep_start" in line for line in lines)
        assert any("sweep_finish" in line for line in lines)
        assert main(["tail", str(out), "--format", "json"]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert records[0]["kind"] == "sweep_start"
        assert records[-1]["kind"] == "sweep_finish"

    def test_tail_follow_bounded(self, capsys, tmp_path):
        _, out = self._sweep(tmp_path, "--telemetry")
        capsys.readouterr()
        assert (
            main(
                [
                    "tail",
                    str(out),
                    "--follow",
                    "--interval",
                    "0",
                    "--max-polls",
                    "2",
                ]
            )
            == 0
        )
        assert "sweep_finish" in capsys.readouterr().out

    def test_missing_feed_errors(self, capsys, tmp_path):
        assert main(["status", str(tmp_path)]) == 2
        assert "no telemetry feed" in capsys.readouterr().err
        assert main(["tail", str(tmp_path)]) == 2
        assert "--telemetry" in capsys.readouterr().err


class TestShardMergeCLI:
    """End-to-end orchestration through the CLI: shard, resume, merge."""

    def _spec_file(self, tmp_path):
        import json

        spec = tmp_path / "grid.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "cli-grid",
                    "base": {"size": 6},
                    "axes": {
                        "topology": ["random", "ring"],
                        "seed": [0, 1, 2],
                    },
                }
            )
        )
        return str(spec)

    def _read(self, directory, kind):
        return (directory / kind).read_text()

    def test_shard_resume_merge_round_trip(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        assert (
            main(["sweep", "--spec", spec, "--out", str(tmp_path / "serial")])
            == 0
        )

        # Run 4 shards (more shards than worth it, on purpose).
        shard_dirs = []
        for index in range(1, 5):
            out = tmp_path / f"shard{index}"
            assert (
                main(
                    [
                        "sweep",
                        "--spec",
                        spec,
                        "--shard",
                        f"{index}/4",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            shard_dirs.append(str(out))
        assert "[shard 4/4:" in capsys.readouterr().out

        # Kill-and-resume one shard: truncate its cell store, resume.
        cells = tmp_path / "shard2" / "cells.jsonl"
        lines = cells.read_text().splitlines(True)
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "cells.jsonl").write_text("".join(lines[:1]))
        resumed = tmp_path / "shard2-resumed"
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    spec,
                    "--shard",
                    "2/4",
                    "--resume",
                    str(partial),
                    "--out",
                    str(resumed),
                ]
            )
            == 0
        )
        assert "1 reused" in capsys.readouterr().out
        for kind in ("results.csv", "summary.csv", "sweep.json"):
            assert self._read(resumed, kind) == self._read(
                tmp_path / "shard2", kind
            )
        shard_dirs[1] = str(resumed)

        # Merge the shards; artifacts must equal the serial run's.
        assert (
            main(
                [
                    "sweep-merge",
                    *shard_dirs,
                    "--out",
                    str(tmp_path / "merged"),
                    "--name",
                    "cli-grid",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "6 cells from 4 artifact dir(s)" in out
        for kind in ("results.csv", "summary.csv", "sweep.json"):
            assert self._read(tmp_path / "merged", kind) == self._read(
                tmp_path / "serial", kind
            )

    def test_empty_shard_succeeds(self, capsys, tmp_path):
        import json

        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"axes": {"seed": [0, 1]}}))
        out = tmp_path / "empty"
        assert (
            main(
                [
                    "sweep",
                    "--spec",
                    str(spec),
                    "--shard",
                    "3/3",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert "0 scenarios" in capsys.readouterr().out
        assert (out / "cells.jsonl").exists()
        assert (out / "results.csv").read_text().startswith("cell_key,")

    def test_merge_rejects_non_artifact_dir(self, capsys, tmp_path):
        bogus = tmp_path / "bogus"
        bogus.mkdir()
        assert (
            main(
                ["sweep-merge", str(bogus), "--out", str(tmp_path / "m")]
            )
            == 2
        )
        assert "cells.jsonl" in capsys.readouterr().err

    def test_merge_rejects_conflicting_cells(self, capsys, tmp_path):
        import json

        spec = self._spec_file(tmp_path)
        for name in ("a", "b"):
            assert (
                main(
                    ["sweep", "--spec", spec, "--out", str(tmp_path / name)]
                )
                == 0
            )
        # Corrupt one copy's payload (keep the spec, change a metric).
        cells = tmp_path / "b" / "cells.jsonl"
        records = [
            json.loads(line) for line in cells.read_text().splitlines()
        ]
        records[0]["values"]["overpayment_ratio"] += 1.0
        cells.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "sweep-merge",
                    str(tmp_path / "a"),
                    str(tmp_path / "b"),
                    "--out",
                    str(tmp_path / "m"),
                ]
            )
            == 2
        )
        assert "conflicting results" in capsys.readouterr().err

    def test_merge_custom_group_by(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        assert (
            main(["sweep", "--spec", spec, "--out", str(tmp_path / "a")])
            == 0
        )
        assert (
            main(
                [
                    "sweep-merge",
                    str(tmp_path / "a"),
                    "--out",
                    str(tmp_path / "m"),
                    "--group-by",
                    "topology,seed",
                    "--metric",
                    "total_payment",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Per-cell total_payment" in out
        assert "seed=0" in out
