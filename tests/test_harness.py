"""Tests for the experiment harness: stats, runner, table rendering."""

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_database, parse_program
from repro.datalog.program import DatalogQuery
from repro.harness.runner import (
    DatabaseRun,
    TupleRun,
    run_database,
    run_tuple,
    sample_answer_tuples,
)
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
    def test_run_tuple_records_everything(self):
        run = run_tuple(TC_QUERY, TC_DB, ("a", "c"), member_limit=10)
        assert run.members == 2  # direct edge or two-hop path
        assert len(run.delays) == 2
        assert run.exhausted
        assert run.build_seconds >= 0
        assert run.delay_box() is not None

    def test_run_database_smallest_scenario(self):
        scenario = get_scenario("Doctors-2")
        run = run_database(
            scenario, "D1", tuples_per_database=2, member_limit=5, timeout_seconds=10
        )
        assert run.scenario == "Doctors-2"
        assert len(run.tuple_runs) == 2
        assert run.fact_count > 0
        assert all(r.members >= 1 for r in run.tuple_runs)

    def test_member_limit(self):
        run = run_tuple(TC_QUERY, TC_DB, ("a", "c"), member_limit=1)
        assert run.members == 1
        assert not run.exhausted

    def test_run_database_with_deltas_reserves_after_updates(self):
        from repro.datalog.atoms import Atom
        from repro.datalog.database import Delta

        scenario = get_scenario("TransClosure")
        database = scenario.database("bitcoin")
        some_edge = sorted(database.facts(), key=str)[0]
        deltas = [
            Delta.delete(some_edge),
            Delta.insert(Atom("e", ("tnew", "tnew2"))),
        ]
        run = run_database(
            scenario, "bitcoin", tuples_per_database=2, member_limit=3,
            timeout_seconds=5, deltas=deltas,
        )
        assert len(run.update_runs) == 2
        assert [u.database for u in run.update_runs] == [
            "bitcoin+u1", "bitcoin+u2",
        ]
        for update_run in run.update_runs:
            assert update_run.tuple_runs  # re-sampled and re-served
            assert all(r.members >= 1 for r in update_run.tuple_runs)
        # The second update's fact count reflects both deltas.
        assert run.update_runs[1].fact_count == run.fact_count


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
        run = run_tuple(TC_QUERY, TC_DB, ("a", "c"), member_limit=5)
        db_run = DatabaseRun("TC", "toy", len(TC_DB), [run])
        text = figure_build_times([db_run], "Figure X")
        assert "Closure (s)" in text and "toy" in text

    def test_figure_delays(self):
        run = run_tuple(TC_QUERY, TC_DB, ("a", "c"), member_limit=5)
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
