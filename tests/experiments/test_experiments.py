"""Tests for the experiment drivers (light configurations of each)."""

import pytest

from repro.conversion import compile_program
from repro.experiments import (
    analyse,
    conversion_rows,
    figure2_configurations,
    figure3_machine,
    figure4_machine,
    figure5_machine,
    figure6_machine,
    figure7_machine,
    render_conversion,
    render_table,
    run_figure2,
    run_figure4,
    run_figures_lowering,
    run_lemma15,
    run_table1,
    run_theorem1_sizes,
    run_theorem3_sizes,
)


class TestReportRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [(1, 22), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_bool_and_float_formatting(self):
        text = render_table(["v"], [(True,), (False,), (1.234,)])
        assert "yes" in text and "no" in text and "1.23" in text

    def test_huge_ints_scientific(self):
        text = render_table(["v"], [(10**20,)])
        assert "e+" in text

    def test_none_renders_dash(self):
        assert "-" in render_table(["v"], [(None,)])


class TestTable1Driver:
    def test_report(self):
        report = run_table1(4)
        assert len(report.rows) == 4
        assert report.ordering_holds()
        rendered = report.render()
        assert "this paper" in rendered and "1412" in rendered


class TestTheoremSizeDrivers:
    def test_theorem1_sizes(self):
        report = run_theorem1_sizes(5)
        assert report.linear_states()
        assert report.double_exponential()
        assert "2^(2^(n-1))" in report.render()

    def test_theorem3_sizes(self):
        report = run_theorem3_sizes(6)
        assert report.linear_size()
        assert all(row.bound_met for row in report.rows)


class TestConversionDriver:
    def test_rows_and_bounds(self):
        rows = conversion_rows(
            builders=[
                ("thr2", lambda: __import__(
                    "repro.programs", fromlist=["simple_threshold_program"]
                ).simple_threshold_program(2)),
            ]
        )
        assert len(rows) == 1
        assert rows[0].bound_holds
        assert "P16 bound" in render_conversion(rows)

    def test_every_column_matches_the_full_pipeline(
        self, thr2_pipeline, figure1, lipton1_pipeline
    ):
        # The rows skip the output broadcast; each column must still be
        # what a full compile of the same program reports.
        pipelines = {
            "thr2": thr2_pipeline,
            "figure1": compile_program(figure1, "figure1"),
            "lipton-n1": lipton1_pipeline,
        }
        rows = conversion_rows(
            builders=[(name, lambda p=p: p.program) for name, p in pipelines.items()]
        )
        assert [row.name for row in rows] == list(pipelines)
        for row in rows:
            full = pipelines[row.name]
            assert (
                row.program_size,
                row.machine_size,
                row.inner_states,
                row.bound,
                row.final_states,
                row.shift,
            ) == (
                full.program_size.total,
                full.machine_size,
                full.inner_state_count,
                full.state_bound,
                full.state_count,
                full.shift,
            )


class TestFigure2Driver:
    def test_all_rows_match(self):
        report = run_figure2()
        assert report.all_match
        assert len(report.rows) == 5

    def test_too_small_level_rejected(self):
        with pytest.raises(ValueError):
            figure2_configurations(1)  # N_1 = 1 < 7

    def test_configurations_have_expected_keys(self):
        configs = figure2_configurations(3)
        assert set(configs) == {
            "i-proper",
            "weakly i-proper",
            "i-low",
            "i-high",
            "i-empty",
        }


class TestLoweringFigures:
    def test_all_four_figures_compile(self):
        facts = run_figures_lowering()
        assert [g.name for g in facts] == [
            "figure3",
            "figure5",
            "figure6",
            "figure7",
        ]

    def test_figure3_branch_and_swap_shape(self):
        g = analyse(figure3_machine())
        assert g.facts["branch_follows_every_detect"]
        assert g.register_map_assignments == 3
        assert g.detects == 1 and g.moves == 1

    def test_figure5_negated_condition(self):
        g = analyse(figure5_machine())
        assert g.detects == 1 and g.moves == 1
        assert g.facts["branch_follows_every_detect"]

    def test_figure6_procedure_protocol(self):
        g = analyse(figure6_machine())
        assert g.moves == 2
        assert g.return_pointer_indirect_jumps >= 1

    def test_figure7_restart_helper(self):
        g = analyse(figure7_machine())
        assert g.restart_entry is not None
        # 2 scramble loops per non-hub register (2 of them): 4 detects.
        assert g.detects == 4


class TestFigure4Driver:
    def test_machine_validates(self):
        machine = figure4_machine()
        assert machine.length == 5

    def test_all_facts_hold(self):
        report = run_figure4()
        assert all(report.facts.values()), report.facts

    def test_gadget_counts_nonzero(self):
        report = run_figure4()
        for index in (1, 2, 3, 4):
            assert report.per_instruction_counts[index] > 0


class TestLemma15Driver:
    def test_quick_recovery(self, thr2_pipeline):
        report = run_lemma15(
            pipeline=thr2_pipeline,
            noise_levels=[0, 4],
            trials_per_level=2,
            seed=1,
        )
        assert report.recovered == len(report.trials) == 4
        assert "recovered after" in report.render()
