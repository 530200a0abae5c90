"""Tests for the experiment harness: config, report tables, registry, and runs.

The per-experiment runs use a deliberately tiny configuration so the whole
module stays fast; the full-size runs are exercised by the benchmark suite.
"""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, ExperimentConfig, Table, list_experiments, run_experiment
from repro.experiments.estimators import METHOD_ORDER, build_estimators
from repro.experiments.report import render_tables


def _tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset_scale=0.02,
        memory_bits=1 << 14,
        virtual_size=64,
        delta=2e-2,
        checkpoints=3,
        datasets=["chicago", "Orkut"],
    )


class TestExperimentConfig:
    def test_registers_derived_from_memory(self):
        config = ExperimentConfig(memory_bits=1 << 20, register_width=5)
        assert config.registers == (1 << 20) // 5

    def test_presets(self):
        assert ExperimentConfig.quick().dataset_scale < ExperimentConfig.full().dataset_scale
        assert ExperimentConfig.quick().memory_bits < ExperimentConfig().memory_bits

    def test_scaled_copy(self):
        config = ExperimentConfig().scaled(0.1)
        assert config.dataset_scale == 0.1


class TestTable:
    def test_add_row_and_column(self):
        table = Table("t", ["a", "b"])
        table.add_row(1, 2.0)
        table.add_row(3, 4.0)
        assert table.column("a") == [1, 3]
        assert table.row_dicts()[1] == {"a": 3, "b": 4.0}

    def test_add_row_wrong_arity(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_unknown_column(self):
        table = Table("t", ["a"])
        with pytest.raises(KeyError):
            table.column("zzz")

    def test_render_contains_title_and_values(self):
        table = Table("My results", ["x", "value"])
        table.add_row("point", 0.123456)
        table.add_note("a note")
        rendered = table.render()
        assert "My results" in rendered
        assert "point" in rendered
        assert "note: a note" in rendered

    def test_to_csv(self, tmp_path):
        table = Table("t", ["a", "b"])
        table.add_row(1, 2)
        path = tmp_path / "out.csv"
        table.to_csv(path)
        assert path.read_text().splitlines()[0] == "a,b"

    def test_render_tables_joins(self):
        tables = [Table("one", ["a"]), Table("two", ["b"])]
        joined = render_tables(tables)
        assert "one" in joined and "two" in joined


class TestEstimatorFactory:
    def test_builds_all_methods_by_default(self):
        estimators = build_estimators(ExperimentConfig.quick(), expected_users=100)
        assert list(estimators) == METHOD_ORDER

    def test_builds_subset(self):
        estimators = build_estimators(
            ExperimentConfig.quick(), expected_users=100, methods=["FreeBS", "vHLL"]
        )
        assert list(estimators) == ["FreeBS", "vHLL"]

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            build_estimators(ExperimentConfig.quick(), expected_users=10, methods=["nope"])

    def test_equal_memory_budget(self):
        config = ExperimentConfig(memory_bits=1 << 18)
        estimators = build_estimators(config, expected_users=100, methods=["FreeBS", "FreeRS", "CSE", "vHLL"])
        assert estimators["FreeBS"].memory_bits() == 1 << 18
        assert estimators["CSE"].memory_bits() == 1 << 18
        # Register methods account width * count, which equals the budget up
        # to the integer division remainder.
        assert estimators["FreeRS"].memory_bits() == pytest.approx(1 << 18, rel=0.01)
        assert estimators["vHLL"].memory_bits() == pytest.approx(1 << 18, rel=0.01)


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        names = list_experiments()
        for artefact in ["table1", "table2", "figure2", "figure3", "figure4", "figure5", "figure6"]:
            assert artefact in names

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")

    def test_registry_values_are_callables(self):
        assert all(callable(function) for function in EXPERIMENTS.values())

    def test_unknown_kwargs_rejected_eagerly(self):
        with pytest.raises(TypeError, match="unexpected keyword arguments"):
            run_experiment("table1", _tiny_config(), bogus=True)

    def test_known_kwargs_still_pass_through(self):
        table = run_experiment("figure5", _tiny_config(), datasets=["chicago"])
        assert len(table.rows) > 0


class TestExperimentRuns:
    def test_table1(self):
        table = run_experiment("table1", _tiny_config())
        assert len(table.rows) == 2
        assert set(table.column("dataset")) == {"chicago", "Orkut"}

    def test_figure2(self):
        table = run_experiment("figure2", _tiny_config())
        ccdf_values = table.column("ccdf")
        assert all(0.0 <= value <= 1.0 for value in ccdf_values)

    def test_figure4(self):
        table = run_experiment("figure4", _tiny_config(), dataset="Orkut")
        assert set(table.column("method")) == set(METHOD_ORDER)

    def test_figure5_shape(self):
        table = run_experiment("figure5", _tiny_config(), datasets=["chicago"])
        methods = set(table.column("method"))
        assert "FreeBS" in methods and "vHLL" in methods
        assert all(value >= 0 for value in table.column("rse"))

    def test_figure6_checkpoints(self):
        config = _tiny_config()
        table = run_experiment("figure6", config, dataset="chicago", methods=["FreeBS", "FreeRS"])
        checkpoints = {row["checkpoint"] for row in table.row_dicts() if row["method"] == "FreeBS"}
        assert checkpoints == {1, 2, 3}

    def test_table2(self):
        table = run_experiment("table2", _tiny_config(), methods=["FreeBS", "HLL++"])
        rows = table.row_dicts()
        assert {row["method"] for row in rows} == {"FreeBS", "HLL++"}
        assert all(0.0 <= row["fnr"] <= 1.0 for row in rows)
        assert all(0.0 <= row["fpr"] <= 1.0 for row in rows)

    def test_figure3_runtime_columns(self):
        table = run_experiment("figure3", _tiny_config(), sweep=[32, 64], pairs_per_point=300)
        assert table.column("m") == [32, 64]
        for method in METHOD_ORDER:
            assert all(value > 0 for value in table.column(method))

    def test_ablation_bs_vs_rs(self):
        table = run_experiment("ablation_bs_vs_rs", _tiny_config(), group_users=30, cardinality=60)
        assert len(table.rows) == 4

    def test_ablation_memory(self):
        table = run_experiment(
            "ablation_memory", _tiny_config(), dataset="chicago", multipliers=[0.5, 1.0]
        )
        assert len(table.rows) == 8

    def test_ablation_m_sensitivity(self):
        table = run_experiment(
            "ablation_m_sensitivity", _tiny_config(), dataset="chicago", sweep=[32, 64]
        )
        methods = set(table.column("method"))
        assert methods == {"FreeBS", "FreeRS", "CSE", "vHLL"}


class TestRegisterWidthAblation:
    def test_sweep_reports_requested_widths(self):
        table = run_experiment(
            "ablation_register_width", _tiny_config(), dataset="chicago", widths=[4, 5]
        )
        assert table.column("width_bits") == [4, 5]
        assert table.column("max_rank") == [15, 31]

    def test_register_counts_follow_budget(self):
        config = _tiny_config()
        table = run_experiment(
            "ablation_register_width", config, dataset="chicago", widths=[4, 8]
        )
        rows = {row["width_bits"]: row for row in table.row_dicts()}
        assert rows[4]["registers"] == config.memory_bits // 4
        assert rows[8]["registers"] == config.memory_bits // 8

    def test_errors_are_finite_and_nonnegative(self):
        table = run_experiment(
            "ablation_register_width", _tiny_config(), dataset="chicago", widths=[5]
        )
        row = table.row_dicts()[0]
        assert row["rse_light_users"] >= 0.0
        assert row["rse_heavy_users"] >= 0.0
