"""Tests for the parallel batch provenance service.

The load-bearing property: a worker pool must be *invisible* in the
results. ``explain_batch(workers=N)`` returns the same witnesses in the
same order as the serial path for every tuple — across scenarios, across
skewed closure sizes, over maintained sessions, and across every fallback
(``workers=1``, tiny batches, no ``fork`` start method). Workers inherit
the parent's session through the fork, so nothing of it is pickled.
"""

import pickle

import pytest

from repro.core.parallel import (
    BatchResult,
    FactResult,
    ParallelProvenanceExplainer,
    explain_fact,
)
from repro.core.session import ProvenanceSession
from repro.datalog.atoms import Atom
from repro.datalog.database import Database, Delta
from repro.datalog.engine import TraceIndex, evaluate
from repro.datalog.parser import parse_database, parse_program, parse_rule
from repro.datalog.program import DatalogQuery, Program
from repro.datalog.terms import Variable

TC = parse_program(
    """
    tc(X, Y) :- e(X, Y).
    tc(X, Z) :- tc(X, Y), e(Y, Z).
    """
)
TC_DB = Database(parse_database("e(a, b). e(b, c). e(c, d). e(a, c). e(b, d)."))
TC_QUERY = DatalogQuery(TC, "tc")

FORK_AVAILABLE = "fork" in __import__("multiprocessing").get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="parallel pool requires the fork start method"
)


def _assert_batches_identical(serial: BatchResult, parallel: BatchResult):
    """Same tuples, same witnesses, same witness order, same flags."""
    assert len(serial.results) == len(parallel.results)
    for left, right in zip(serial.results, parallel.results):
        assert left.index == right.index
        assert left.tuple_value == right.tuple_value
        assert left.is_answer == right.is_answer
        assert left.members == right.members  # same witnesses, same order
        assert left.exhausted == right.exhausted
        assert (left.error is None) == (right.error is None)


class TestPickling:
    def test_core_types_roundtrip(self):
        rule = parse_rule("tc(X, Z) :- tc(X, Y), e(Y, Z).")
        for value in (
            Variable("X"),
            Atom("e", ("a", 1)),
            rule,
            rule.instantiate(
                {Variable("X"): "a", Variable("Y"): "b", Variable("Z"): "c"}
            ),
            TC,
            TC_QUERY,
        ):
            clone = pickle.loads(pickle.dumps(value))
            assert clone == value
            assert hash(clone) == hash(value)

    def test_database_roundtrip_rebuilds_indexes(self):
        clone = pickle.loads(pickle.dumps(TC_DB))
        assert clone == TC_DB
        assert set(clone.matching("e", {0: "a"})) == set(TC_DB.matching("e", {0: "a"}))
        assert clone.count("e") == TC_DB.count("e")

    def test_evaluation_result_roundtrip(self):
        result = evaluate(TC, TC_DB, record_instances=True)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.model == result.model
        assert clone.ranks == result.ranks
        assert set(clone.instances) == set(result.instances)

    def test_snapshot_sheds_gri_cache(self):
        session = ProvenanceSession(TC_QUERY, TC_DB.copy())
        before = session.snapshot_bytes()
        session.gri()  # build the session's GRI index, every head sorted
        blob = session.snapshot_bytes()
        assert blob == before
        assert b"GriIndex" not in blob
        query, database, model, ranks, trace = pickle.loads(blob)
        assert (query, database) == (session.query, session.database)
        assert (model, ranks) == (session.model, session.ranks)
        assert set(trace) == set(session.evaluation.instances)
        # A maintained trace ships as the plain instance tuple.
        session.update(Delta.insert(Atom("e", ("d", "e"))))
        assert b"TraceIndex" not in session.snapshot_bytes()


class TestSerialBatch:
    def test_all_answers_by_default(self):
        session = ProvenanceSession(TC_QUERY, TC_DB)
        batch = session.explain_batch()
        assert [r.tuple_value for r in batch.results] == session.answers()
        assert batch.workers == 1 and not batch.parallel
        assert batch.fallback_reason is None
        assert session.stats.evaluations == 1

    def test_batch_matches_session_why(self):
        session = ProvenanceSession(TC_QUERY, TC_DB)
        batch = session.explain_batch()
        for result in batch.results:
            assert result.is_answer
            assert result.members == session.why(result.tuple_value)
            assert result.exhausted
            assert result.seconds >= 0

    def test_invalid_and_non_answer_tuples(self):
        session = ProvenanceSession(TC_QUERY, TC_DB)
        batch = session.explain_batch([("a", "b"), ("a",), ("zz", "a")])
        ok, invalid, non_answer = batch.results
        assert ok.is_answer and ok.members
        assert invalid.error is not None and not invalid.members
        assert not non_answer.is_answer and non_answer.error is None
        assert len(batch.failures()) == 2

    def test_limit_and_fact_result_shape(self):
        session = ProvenanceSession(TC_QUERY, TC_DB)
        batch = session.explain_batch([("a", "d")], limit=1)
        (result,) = batch.results
        assert len(result.members) == 1
        assert len(result.delays) == 1
        assert not result.exhausted  # stopped by the limit, not the solver
        assert result.build_seconds == result.closure_seconds + result.formula_seconds


@needs_fork
class TestParallelMatchesSerial:
    def test_transitive_closure(self):
        serial = ProvenanceSession(TC_QUERY, TC_DB).explain_batch(workers=1)
        parallel = ProvenanceSession(TC_QUERY, TC_DB).explain_batch(workers=2)
        assert parallel.parallel and parallel.workers == 2
        _assert_batches_identical(serial, parallel)

    def test_andersen_sampled_tuples(self):
        from repro.harness.runner import sample_answer_tuples
        from repro.scenarios import get_scenario

        scenario = get_scenario("Andersen")
        query = scenario.query()
        database = scenario.database("D1").restrict(query.program.edb)
        session = ProvenanceSession(query, database)
        tuples = sample_answer_tuples(
            query, database, count=6, seed=7, evaluation=session.evaluation
        )
        serial = session.explain_batch(tuples, workers=1, limit=10)
        parallel = session.fork().explain_batch(tuples, workers=2, limit=10)
        assert parallel.parallel
        _assert_batches_identical(serial, parallel)

    def test_skewed_closure_batch_with_unit_chunks(self):
        # A long chain gives tc(n0, n9) a deep closure while tc(n0, n1)
        # stays tiny; chunk_size=1 exercises work stealing over the skew.
        chain = Database(
            parse_database(" ".join(f"e(n{i}, n{i + 1})." for i in range(9)))
        )
        session = ProvenanceSession(TC_QUERY, chain)
        tuples = [("n0", f"n{i}") for i in range(1, 10)] + [("n3", "n9")]
        serial = session.explain_batch(tuples, workers=1)
        parallel = ParallelProvenanceExplainer(
            ProvenanceSession(TC_QUERY, chain), workers=3, chunk_size=1
        ).explain_batch(tuples)
        assert parallel.parallel and parallel.chunk_size == 1
        _assert_batches_identical(serial, parallel)

    def test_mixed_validity_batch(self):
        tuples = [("a", "b"), ("a",), ("zz", "a"), ("a", "d")]
        serial = ProvenanceSession(TC_QUERY, TC_DB).explain_batch(tuples, workers=1)
        parallel = ProvenanceSession(TC_QUERY, TC_DB).explain_batch(tuples, workers=2)
        _assert_batches_identical(serial, parallel)

    def test_unpicklable_session_attribute_still_forks(self):
        # The fork hands the session to the workers in memory, so an
        # attribute that cannot be pickled, such as its lock, is no
        # reason to serve serially.
        session = ProvenanceSession(TC_QUERY, TC_DB)
        with pytest.raises(TypeError):
            pickle.dumps(session.lock)
        batch = session.explain_batch(workers=2)
        assert batch.parallel and batch.fallback_reason is None
        _assert_batches_identical(session.fork().explain_batch(workers=1), batch)

    def test_batch_after_update_matches_cold_serial(self):
        # Workers forked from a maintained session inherit its trace
        # index, its GRI with the touched heads forgotten and its
        # retained closures, and must answer as a cold session would.
        session = ProvenanceSession(TC_QUERY, TC_DB.copy())
        session.explain_batch(workers=1)  # warm the GRI, closures, encodings
        for delta in (
            Delta(inserted={Atom("e", ("d", "e"))}, deleted={Atom("e", ("a", "c"))}),
            Delta.delete(Atom("e", ("b", "c"))),
        ):
            session.update(delta)
            assert isinstance(session.evaluation.instances, TraceIndex)
            parallel = session.explain_batch(workers=2)
            assert parallel.parallel and parallel.fallback_reason is None
            cold = ProvenanceSession(TC_QUERY, session.database.copy())
            _assert_batches_identical(cold.explain_batch(workers=1), parallel)
        assert session.stats.evaluations == 1


class TestFallbacks:
    def test_workers_one_is_a_plain_serial_run(self):
        session = ProvenanceSession(TC_QUERY, TC_DB)
        batch = session.explain_batch(workers=1)
        assert not batch.parallel
        assert batch.fallback_reason is None  # serial was requested, not forced

    def test_single_tuple_batch_falls_back(self):
        session = ProvenanceSession(TC_QUERY, TC_DB)
        batch = session.explain_batch([("a", "b")], workers=4)
        assert not batch.parallel
        assert "smaller than two" in batch.fallback_reason
        assert batch.results[0].members == session.why(("a", "b"))

    def test_unavailable_start_method_falls_back(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        session = ProvenanceSession(TC_QUERY, TC_DB)
        batch = session.explain_batch(workers=2)
        assert not batch.parallel
        assert "'fork' unavailable" in batch.fallback_reason
        _assert_batches_identical(session.fork().explain_batch(workers=1), batch)

    def test_workers_zero_means_one_per_core(self):
        from repro.core.parallel import default_worker_count

        session = ProvenanceSession(TC_QUERY, TC_DB)
        for auto in (0, None):
            explainer = ParallelProvenanceExplainer(session, workers=auto)
            assert explainer.workers == default_worker_count()

    def test_explain_fact_is_the_shared_routine(self):
        session = ProvenanceSession(TC_QUERY, TC_DB)
        result = explain_fact(session, ("a", "d"), index=5)
        assert isinstance(result, FactResult)
        assert result.index == 5
        assert result.members == session.why(("a", "d"))


@needs_fork
class TestIntegration:
    def test_cli_batch_workers_matches_serial_output(self, tmp_path, capsys):
        from repro.cli import main

        program = tmp_path / "program.dl"
        program.write_text("tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n")
        database = tmp_path / "data.dl"
        database.write_text("e(a, b). e(b, c). e(a, c).")
        argv = ["batch", str(program), str(database), "--answer", "tc", "--all-answers"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "sharded over 2 worker(s)" in captured.err

    def test_harness_workers_match_serial_member_counts(self):
        from repro.harness.runner import run_database
        from repro.scenarios import get_scenario

        scenario = get_scenario("TransClosure")
        name = scenario.database_names()[0]
        kwargs = dict(tuples_per_database=4, member_limit=5, timeout_seconds=None)
        serial = run_database(scenario, name, workers=1, **kwargs)
        parallel = run_database(scenario, name, workers=2, **kwargs)
        assert [r.tuple_value for r in serial.tuple_runs] == [
            r.tuple_value for r in parallel.tuple_runs
        ]
        assert [r.members for r in serial.tuple_runs] == [
            r.members for r in parallel.tuple_runs
        ]
