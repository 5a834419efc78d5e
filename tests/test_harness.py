"""Tests for the experiment harness: stats, runner, table rendering."""

import pytest

from repro.core.parallel import explain_fact
from repro.core.session import ProvenanceSession
from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.datalog.program import DatalogQuery
from repro.harness.runner import DatabaseRun, run_database, sample_answer_tuples
from repro.harness.stats import BoxStats, box_stats, mean, quantile
from repro.harness.tables import (
    figure_build_times,
    figure_comparison,
    figure_delays,
    render_table,
    table1,
)
from repro.scenarios import all_scenarios, get_scenario

TC = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    """
)
TC_QUERY = DatalogQuery(TC, "tc")
TC_DB = Database(parse_database("e(a, b). e(b, c). e(c, d). e(a, c)."))


def tc_record(limit):
    """The per-tuple record of ``tc(a, c)`` (what ``run_database`` keeps)."""
    return explain_fact(ProvenanceSession(TC_QUERY, TC_DB), ("a", "c"), limit=limit)


class TestStats:
    def test_quantiles(self):
        data = sorted([1.0, 2.0, 3.0, 4.0])
        assert quantile(data, 0.0) == 1.0
        assert quantile(data, 1.0) == 4.0
        assert quantile(data, 0.5) == pytest.approx(2.5)

    def test_box_stats(self):
        box = box_stats([5.0, 1.0, 3.0, 2.0, 4.0])
        assert box.minimum == 1.0
        assert box.median == 3.0
        assert box.maximum == 5.0
        assert box.count == 5
        assert box.as_row(scale=1000.0)[2] == pytest.approx(3000.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            box_stats([])
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            mean([])

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_single_value(self):
        box = box_stats([7.0])
        assert box.minimum == box.median == box.maximum == 7.0


class TestSampling:
    def test_deterministic(self):
        t1 = sample_answer_tuples(TC_QUERY, TC_DB, count=3, seed=5)
        t2 = sample_answer_tuples(TC_QUERY, TC_DB, count=3, seed=5)
        assert t1 == t2

    def test_returns_answers_only(self):
        from repro.datalog.engine import answers

        sampled = sample_answer_tuples(TC_QUERY, TC_DB, count=3, seed=1)
        answer_set = answers(TC_QUERY, TC_DB)
        assert all(t in answer_set for t in sampled)

    def test_fewer_answers_than_requested(self):
        small = Database(parse_database("e(a, b)."))
        sampled = sample_answer_tuples(TC_QUERY, small, count=5)
        assert sampled == [("a", "b")]

    def test_no_answers(self):
        assert sample_answer_tuples(TC_QUERY, Database(), count=5) == []


class TestRunner:
    def test_tuple_record_holds_everything(self):
        run = tc_record(limit=10)
        assert len(run.members) == 2  # direct edge or two-hop path
        assert len(run.delays) == 2
        assert run.exhausted
        assert run.build_seconds >= 0
        assert box_stats(run.delays).count == 2

    def test_run_database_smallest_scenario(self):
        scenario = get_scenario("Doctors-2")
        run = run_database(
            scenario, "D1", tuples_per_database=2, member_limit=5, timeout_seconds=10
        )
        assert run.scenario == "Doctors-2"
        assert len(run.tuple_runs) == 2
        assert run.fact_count > 0
        assert all(len(r.members) >= 1 for r in run.tuple_runs)

    def test_member_limit(self):
        run = tc_record(limit=1)
        assert len(run.members) == 1
        assert not run.exhausted


class TestTables:
    def test_render_alignment(self):
        text = render_table(["A", "Bee"], [["x", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("A")
        assert "---" in lines[1]

    def test_table1_lists_all_scenarios(self):
        text = table1(all_scenarios())
        assert "TransClosure" in text
        assert "Doctors-7" in text
        assert "non-linear, recursive" in text

    def test_figure_build_times(self):
        run = tc_record(limit=5)
        db_run = DatabaseRun("TC", "toy", len(TC_DB), [run])
        text = figure_build_times([db_run], "Figure X")
        assert "Closure (s)" in text and "toy" in text

    def test_figure_delays(self):
        run = tc_record(limit=5)
        db_run = DatabaseRun("TC", "toy", len(TC_DB), [run])
        text = figure_delays([db_run], "Figure Y")
        assert "Median (ms)" in text

    def test_figure_delays_empty(self):
        db_run = DatabaseRun("TC", "toy", 4, [])
        text = figure_delays([db_run], "Figure Y")
        assert "toy" in text

    def test_figure_comparison(self):
        text = figure_comparison([["Doctors-1", "(a)", "0.1", "0.2", 3]])
        assert "SAT-based" in text and "All-at-once" in text
