"""Tests for CSV export and the extended runall/describe harnesses."""

import csv

import pytest

from repro.harness import describe, export, runall
from repro.workloads.profiles import WORKLOAD_NAMES


class TestExport:
    def test_export_all_writes_every_exhibit(self, tmp_path):
        paths = export.export_all(tmp_path)
        names = {p.name for p in paths}
        assert names == {
            "table2.csv", "fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv",
            "fig8.csv", "projection.csv",
        }
        for path in paths:
            assert path.exists() and path.stat().st_size > 0

    def test_sweep_csv_structure(self, tmp_path):
        from repro.harness import fig4

        path = tmp_path / "fig4.csv"
        export.write_sweep_csv(fig4.generate(), path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "workload"
        assert len(rows) == 1 + 8
        assert {r[0] for r in rows[1:]} == set(WORKLOAD_NAMES)
        # Data cells parse as floats.
        float(rows[1][1])

    def test_table2_csv_round_trips_values(self, tmp_path):
        path = tmp_path / "table2.csv"
        export.write_table2_csv(path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        by_name = {r["workload"]: r for r in rows}
        assert float(by_name["PLSA"]["ipc_paper"]) == 1.08
        assert float(by_name["MDS"]["dl2_mpki_model"]) == pytest.approx(18.95, rel=0.1)

    def test_projection_csv_verdicts(self, tmp_path):
        path = tmp_path / "projection.csv"
        export.write_projection_csv(path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        candidates = {r["workload"] for r in rows if r["dram_candidate"] == "True"}
        assert len(candidates) == 5


class TestRunAllCLI:
    def test_default_prints_paper_exhibits(self, capsys):
        assert runall.main([]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output and "Figure 8" in output
        assert "projection" not in output

    def test_csv_flag_writes_files(self, tmp_path, capsys):
        assert runall.main(["--csv", str(tmp_path / "out")]) == 0
        output = capsys.readouterr().out
        assert "wrote" in output
        assert (tmp_path / "out" / "fig7.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--jobs", "2"],
            ["--timeout", "1"],
            ["--retries", "0"],
            ["--deadline", "60"],
            ["--mem-budget", "2GB"],
            ["--executor", "pool"],
            ["--shards", "2"],
            ["--lease-ttl", "30"],
            ["--resume"],
            ["--journal", "sweep.jsonl"],
            ["--inject", "seed=1,crash=0.1"],
            ["--strict"],
            ["--lenient"],
            ["--fail-on-degraded"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_sweep_flags_are_usage_errors(self, argv, capsys):
        # runall is a report with nothing to fan out, supervise or
        # resume; those flags belong to repro-cosim.
        with pytest.raises(SystemExit) as excinfo:
            runall.main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSampledExport:
    def test_exact_csv_has_no_sampled_columns(self, tmp_path):
        from repro.harness import fig4

        path = tmp_path / "fig4.csv"
        export.write_sweep_csv(fig4.generate(), path)
        with open(path) as handle:
            header = next(csv.reader(handle))
        assert "sampled" not in header

    def test_render_labels_sampled_and_attaches_bars(self):
        from repro.harness.report import render_series_table

        rendered = render_series_table(
            "LLC size",
            ["1MB", "2MB"],
            {"FIMI": [3.4, 0.4]},
            title="Sampled sweep",
            errors={"FIMI": [0.15, 0.03]},
            sampled=True,
        )
        assert "[sampled]" in rendered
        assert "3.40±0.15" in rendered

    def test_series_table_errors_without_sampled_flag(self):
        from repro.harness.report import render_series_table

        rendered = render_series_table(
            "axis", ["a"], {"s": [1.0]}, title="T", errors={"s": [0.5]}
        )
        assert "1.00±0.50" in rendered
        assert "[sampled]" not in rendered


class TestDescribe:
    def test_model_card_contents(self):
        card = describe.describe("SHOT")
        assert "SHOT" in card
        assert "Calibrated component mixture" in card
        assert "shot-stream" in card
        assert "Thread scaling" in card

    def test_cli_single_workload(self, capsys):
        assert describe.main(["FIMI"]) == 0
        output = capsys.readouterr().out
        assert "fimi-tree" in output

    def test_cli_all_workloads(self, capsys):
        assert describe.main([]) == 0
        output = capsys.readouterr().out
        for name in WORKLOAD_NAMES:
            assert name in output
