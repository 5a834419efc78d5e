"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main, parse_tuple
from repro.core.session import ProvenanceSession
from repro.datalog.io import database_to_text, program_to_text
from repro.provenance.extract import extract_minimal_depth_tree
from repro.scenarios import get_scenario

ROOT = Path(__file__).resolve().parent.parent

PROGRAM_TEXT = """
tc(X, Y) :- e(X, Y).
tc(X, Z) :- tc(X, Y), e(Y, Z).
"""
DATABASE_TEXT = "e(a, b). e(b, c). e(a, c)."


@pytest.fixture
def files(tmp_path):
    program = tmp_path / "program.dl"
    program.write_text(PROGRAM_TEXT)
    database = tmp_path / "data.dl"
    database.write_text(DATABASE_TEXT)
    return str(program), str(database)


def _andersen_d1_files(tmp_path):
    """Andersen/D1's query and database, and the files they are written to."""
    scenario = get_scenario("Andersen")
    query = scenario.query()
    database = scenario.database("D1").restrict(query.program.edb)
    program_path = tmp_path / "program.dl"
    program_path.write_text(program_to_text(query.program))
    database_path = tmp_path / "data.dl"
    database_path.write_text(database_to_text(database))
    return query, database, str(program_path), str(database_path)


def _stdout_under_hash_seeds(argv):
    """The stdout lines of ``python -m repro *argv`` under two hash seeds."""
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout.splitlines())
    return outputs


class TestParseTuple:
    def test_mixed(self):
        assert parse_tuple("a,b,3,-2") == ("a", "b", 3, -2)

    def test_empty(self):
        assert parse_tuple("") == ()

    def test_whitespace(self):
        assert parse_tuple(" a , 7 ") == ("a", 7)


@pytest.mark.parametrize(
    "command", ["why", "decide", "dimacs", "minimal", "semiring", "explain"]
)
def test_wrong_arity_tuple_exits_with_one_line(files, command):
    program, database = files
    argv = [command, program, database, "--answer", "tc", "--tuple", "a"]
    if command == "decide":
        argv += ["--subset", database]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == "--tuple 'a': tc/2 takes 2 values, got 1"


class TestEval:
    def test_lists_answers(self, files, capsys):
        program, database = files
        assert main(["eval", program, database, "--answer", "tc"]) == 0
        out = capsys.readouterr().out
        assert "tc(a, b)" in out
        assert "tc(a, c)" in out

    def test_answer_defaulting(self, files, capsys):
        program, database = files
        assert main(["eval", program, database]) == 0
        assert "tc(a, b)" in capsys.readouterr().out

    def test_answer_required_when_ambiguous(self, tmp_path):
        program = tmp_path / "p.dl"
        program.write_text("p(X) :- e(X, Y).\nq(X) :- e(X, Y).\n")
        database = tmp_path / "d.dl"
        database.write_text("e(a, b).")
        with pytest.raises(SystemExit):
            main(["eval", str(program), str(database)])


class TestWhy:
    def test_enumerates_members(self, files, capsys):
        program, database = files
        assert main(["why", program, database, "--answer", "tc", "--tuple", "a,c"]) == 0
        out = capsys.readouterr().out
        assert "member 0:" in out and "member 1:" in out

    def test_non_answer(self, files, capsys):
        program, database = files
        code = main(["why", program, database, "--answer", "tc", "--tuple", "c,a"])
        assert code == 1

    def test_members_do_not_depend_on_the_hash_seed(self, tmp_path):
        """``why`` prints the session's members whatever the hash seed.

        The first three sorted Andersen/D1 answers each reach the limit of
        20 members, so the search order decides which members are printed.
        """
        query, database, program, data = _andersen_d1_files(tmp_path)
        session = ProvenanceSession(query, database)
        for tup in session.answers()[:3]:
            expected = [
                f"member {index}: " + " ".join(sorted(f"{fact}." for fact in member))
                for index, member in enumerate(session.why(tup, limit=20))
            ]
            assert len(expected) == 20
            argv = [
                "why", program, data, "--answer", query.answer_predicate,
                "--tuple", ",".join(tup), "--limit", "20",
            ]
            for lines in _stdout_under_hash_seeds(argv):
                assert lines == expected, tup

    def test_limit(self, files, capsys):
        program, database = files
        main(["why", program, database, "--answer", "tc", "--tuple", "a,c", "--limit", "1"])
        out = capsys.readouterr().out
        assert "member 0:" in out and "member 1:" not in out

    @pytest.mark.parametrize("order", [[], ["--order", "size"]])
    @pytest.mark.parametrize(
        "limit,summary",
        [
            ([], "% 2 members ("),
            (["--limit", "1"], "% 1 members, list may be incomplete ("),
        ],
    )
    def test_summary_says_when_the_list_may_be_incomplete(
        self, files, capsys, order, limit, summary
    ):
        """(a, c) has two members, so a limit of 1 cuts its list short."""
        program, database = files
        argv = ["why", program, database, "--answer", "tc", "--tuple", "a,c"]
        assert main(argv + order + limit) == 0
        err = capsys.readouterr().err
        assert err.startswith(summary)
        assert ("incomplete" in err) == bool(limit)


class TestBatch:
    @pytest.mark.parametrize(
        "limit,line",
        [
            ([], "tc(a, c): 2 members"),
            (["--limit", "1"], "tc(a, c): 1 members, list may be incomplete"),
        ],
    )
    def test_count_says_when_the_list_may_be_incomplete(self, files, capsys, limit, line):
        """A limit that leaves members out marks the count; a full list is unmarked."""
        program, database = files
        code = main([
            "batch", program, database, "--answer", "tc", "--tuples", "a,b;a,c", *limit,
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert line in lines
        # (a, b) has one member, and the blocking clause proves it the last.
        assert "tc(a, b): 1 members" in lines

    def test_explicit_tuples_share_one_evaluation(self, files, capsys):
        program, database = files
        code = main([
            "batch", program, database, "--answer", "tc",
            "--tuples", "a,b;a,c",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "tc(a, b): 1 members" in captured.out
        assert "tc(a, c): 2 members" in captured.out
        assert "2 tuples served by 1 evaluation(s)" in captured.err

    def test_all_answers(self, files, capsys):
        program, database = files
        code = main(["batch", program, database, "--answer", "tc", "--all-answers"])
        assert code == 0
        captured = capsys.readouterr()
        assert "tc(a, b):" in captured.out
        assert "tc(b, c):" in captured.out
        assert "1 evaluation(s)" in captured.err

    def test_non_answer_flagged(self, files, capsys):
        program, database = files
        code = main([
            "batch", program, database, "--answer", "tc", "--tuples", "c,a",
        ])
        assert code == 1
        assert "not an answer" in capsys.readouterr().out

    def test_requires_tuples_or_all(self, files):
        program, database = files
        with pytest.raises(SystemExit):
            main(["batch", program, database, "--answer", "tc"])

    def test_tuples_and_all_answers_conflict(self, files):
        program, database = files
        with pytest.raises(SystemExit):
            main([
                "batch", program, database, "--answer", "tc",
                "--tuples", "a,b", "--all-answers",
            ])

    def test_arity_mismatch_does_not_kill_the_batch(self, files, capsys):
        program, database = files
        code = main([
            "batch", program, database, "--answer", "tc", "--tuples", "a,b;a;b,c",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "tc(a): invalid tuple" in out
        assert "tc(a, b): 1 members" in out
        assert "tc(b, c): 1 members" in out


class TestBatchWatch:
    def _watch(self, monkeypatch, stdin_text, argv):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        return main(argv)

    def test_insert_reserves_with_new_witness(self, files, capsys, monkeypatch):
        program, database = files
        code = self._watch(
            monkeypatch,
            "+e(c, d).\n\n",
            ["batch", program, database, "--answer", "tc",
             "--all-answers", "--watch"],
        )
        assert code == 0
        captured = capsys.readouterr()
        # Served twice: the initial batch lacks tc(a, d), the re-serve has it.
        assert captured.out.count("tc(a, c):") == 2
        assert "tc(a, d): 2 members" in captured.out
        assert "update v1: 1 inserted, 0 deleted" in captured.err
        # Incremental maintenance, never a second evaluation.
        assert "1 evaluation(s)" in captured.err.splitlines()[-1]

    def test_delete_retires_witness(self, files, capsys, monkeypatch):
        program, database = files
        code = self._watch(
            monkeypatch,
            "-e(b, c).\n\n",
            ["batch", program, database, "--answer", "tc",
             "--tuples", "a,c", "--watch"],
        )
        assert code == 0
        out = capsys.readouterr().out
        # Before: both witnesses; after the deletion only the direct edge.
        assert "tc(a, c): 2 members" in out
        assert "tc(a, c): 1 members" in out

    def test_eof_commits_staged_delta(self, files, capsys, monkeypatch):
        program, database = files
        code = self._watch(
            monkeypatch,
            "+e(c, d).\n",  # no blank line: EOF must commit
            ["batch", program, database, "--answer", "tc",
             "--tuples", "a,d", "--watch"],
        )
        assert code == 1  # the pre-update serve saw a non-answer
        out = capsys.readouterr().out
        assert "tc(a, d): not an answer" in out
        assert "tc(a, d): 2 members" in out

    def test_out_of_schema_insert_rejected_loop_survives(self, files, capsys, monkeypatch):
        program, database = files
        code = self._watch(
            monkeypatch,
            "+zzz(q).\n\n+e(c, d).\n\n",
            ["batch", program, database, "--answer", "tc",
             "--tuples", "a,d", "--watch"],
        )
        assert code == 1  # only the pre-update/rejected serves lack tc(a, d)
        captured = capsys.readouterr()
        assert "update rejected" in captured.err
        assert "zzz" in captured.err
        # The loop survived the rejection and applied the next delta.
        assert "tc(a, d): 2 members" in captured.out

    def test_bad_lines_are_skipped(self, files, capsys, monkeypatch):
        program, database = files
        code = self._watch(
            monkeypatch,
            "wibble\n+not a fact\n\n",
            ["batch", program, database, "--answer", "tc",
             "--tuples", "a,b", "--watch"],
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "ignored watch line" in err

    def test_deleting_last_edges_empties_answers(self, files, capsys, monkeypatch):
        program, database = files
        code = self._watch(
            monkeypatch,
            "-e(a, b). e(b, c).\n-e(a, c).\n\n",
            ["batch", program, database, "--answer", "tc",
             "--all-answers", "--watch"],
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "3 inserted" not in captured.err
        assert "0 inserted, 3 deleted" in captured.err
        # The re-serve has no answers left to print.
        assert "% 0 tuples served" in captured.err


class TestDecide:
    def test_member(self, files, tmp_path, capsys):
        program, database = files
        subset = tmp_path / "subset.dl"
        subset.write_text("e(a, c).")
        code = main([
            "decide", program, database, "--answer", "tc", "--tuple", "a,c",
            "--subset", str(subset),
        ])
        assert code == 0
        assert "MEMBER" in capsys.readouterr().out

    def test_non_member(self, files, tmp_path, capsys):
        program, database = files
        subset = tmp_path / "subset.dl"
        subset.write_text("e(a, b).")
        code = main([
            "decide", program, database, "--answer", "tc", "--tuple", "a,c",
            "--subset", str(subset), "--tree-class", "arbitrary",
        ])
        assert code == 1
        assert "NOT-MEMBER" in capsys.readouterr().out


class TestDimacs:
    def test_export(self, files, capsys):
        program, database = files
        assert main(["dimacs", program, database, "--answer", "tc", "--tuple", "a,c"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("p cnf ")
        assert "c projection" in captured.err

    def test_round_trip_satisfiable(self, files, capsys):
        from repro.sat.cnf import CNF
        from repro.sat.solver import solve_cnf

        program, database = files
        main(["dimacs", program, database, "--answer", "tc", "--tuple", "a,c"])
        text = capsys.readouterr().out
        cnf = CNF.from_dimacs(text)
        assert solve_cnf(cnf) is not None

    def test_acyclicity_flag_selects_the_reference_layer(self, files, capsys):
        """``--acyclicity`` still chooses the acyclicity layer of the export:
        vertex elimination by default, transitive closure on request."""
        from repro.core.encoder import encode_why_provenance
        from repro.datalog.database import Database
        from repro.datalog.parser import parse_database, parse_program
        from repro.datalog.program import DatalogQuery
        from repro.sat.cnf import CNF
        from repro.sat.solver import solve_cnf

        program, database = files
        argv = ["dimacs", program, database, "--answer", "tc", "--tuple", "a,c"]
        outputs = {}
        for layer in (None, "vertex-elimination", "transitive-closure"):
            flag = [] if layer is None else ["--acyclicity", layer]
            assert main(argv + flag) == 0
            outputs[layer] = capsys.readouterr().out
        assert outputs[None] == outputs["vertex-elimination"]
        assert outputs["transitive-closure"] != outputs["vertex-elimination"]
        reference = encode_why_provenance(
            DatalogQuery(parse_program(PROGRAM_TEXT), "tc"),
            Database(parse_database(DATABASE_TEXT)),
            ("a", "c"),
            acyclicity="transitive-closure",
        )
        assert outputs["transitive-closure"] == reference.cnf.to_dimacs()
        assert solve_cnf(CNF.from_dimacs(outputs["transitive-closure"])) is not None

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path, capsys):
        """The formula, acyclicity layer included, is numbered the same way.

        Its reachability variables follow arc insertion order, not the
        order of the strongly connected components that select them.
        """
        query, _, program, data = _andersen_d1_files(tmp_path)
        argv = [
            "dimacs", program, data, "--answer", query.answer_predicate,
            "--tuple", "obj0,obj4",
        ]
        assert main(argv) == 0
        expected = capsys.readouterr().out.splitlines()
        for lines in _stdout_under_hash_seeds(argv):
            assert lines == expected


class TestMinimal:
    def test_smallest_and_minimal(self, files, capsys):
        program, database = files
        code = main(["minimal", program, database, "--answer", "tc", "--tuple", "a,c"])
        assert code == 0
        captured = capsys.readouterr()
        assert "smallest (1 facts): e(a, c)." in captured.out
        assert "minimal 0:" in captured.out
        assert "2 subset-minimal members" in captured.err

    def test_limit(self, files, capsys):
        program, database = files
        code = main([
            "minimal", program, database, "--answer", "tc", "--tuple", "a,c",
            "--limit", "1",
        ])
        assert code == 0
        assert "1 subset-minimal members" in capsys.readouterr().err

    def test_non_answer(self, files, capsys):
        program, database = files
        code = main(["minimal", program, database, "--answer", "tc", "--tuple", "c,a"])
        assert code == 1
        assert "not an answer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["minimal"], ["why", "--order", "size", "--limit", "40"]]
    )
    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path, capsys, command):
        """Subset-minimal and size-ordered members come in one order.

        Their blocking and shrinking clauses must list a support's
        literals in the encoding's order: on Andersen/D1's (obj0, obj4),
        frozenset order reordered both lists with the hash seed.
        """
        query, _, program, data = _andersen_d1_files(tmp_path)
        argv = [
            command[0], program, data, "--answer", query.answer_predicate,
            "--tuple", "obj0,obj4", *command[1:],
        ]
        assert main(argv) == 0
        expected = capsys.readouterr().out.splitlines()
        for lines in _stdout_under_hash_seeds(argv):
            assert lines == expected


class TestSemiring:
    def test_why_members(self, files, capsys):
        program, database = files
        code = main([
            "semiring", program, database, "--answer", "tc", "--tuple", "a,c",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "member 0: e(a, c)." in captured.out
        assert "members" in captured.err

    def test_counting(self, files, capsys):
        program, database = files
        code = main([
            "semiring", program, database, "--answer", "tc", "--tuple", "a,c",
            "--semiring", "counting",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_tropical(self, files, capsys):
        program, database = files
        code = main([
            "semiring", program, database, "--answer", "tc", "--tuple", "a,c",
            "--semiring", "tropical",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_lineage(self, files, capsys):
        program, database = files
        code = main([
            "semiring", program, database, "--answer", "tc", "--tuple", "a,c",
            "--semiring", "lineage",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "e(a, c)." in out and "e(a, b)." in out

    def test_boolean_non_answer(self, files, capsys):
        program, database = files
        code = main([
            "semiring", program, database, "--answer", "tc", "--tuple", "c,a",
            "--semiring", "boolean",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "False"


class TestExplain:
    def test_proof_tree(self, files, capsys):
        program, database = files
        code = main(["explain", program, database, "--answer", "tc", "--tuple", "a,c"])
        assert code == 0
        captured = capsys.readouterr()
        assert "tc(a, c)" in captured.out
        assert "depth 1" in captured.err

    def test_non_answer(self, files, capsys):
        program, database = files
        code = main(["explain", program, database, "--answer", "tc", "--tuple", "c,a"])
        assert code == 1
        assert "nothing to explain" in capsys.readouterr().err

    def test_tree_does_not_depend_on_the_hash_seed(self, tmp_path):
        """``explain`` prints the canonical minimal-depth tree.

        Each of these Andersen/D1 answers has several minimal-depth trees,
        so expanding each fact with the first instance that fired printed
        a tree that changed with the hash seed.
        """
        query, database, program, data = _andersen_d1_files(tmp_path)
        for tup in [("obj4", "obj0"), ("obj4", "obj1"), ("obj4", "obj5")]:
            tree = extract_minimal_depth_tree(
                query.program, database, query.answer_atom(tup)
            )
            argv = [
                "explain", program, data, "--answer", query.answer_predicate,
                "--tuple", ",".join(tup),
            ]
            for lines in _stdout_under_hash_seeds(argv):
                assert lines == tree.pretty().splitlines(), tup


class TestWhyOrder:
    def test_size_order(self, files, capsys):
        program, database = files
        code = main([
            "why", program, database, "--answer", "tc", "--tuple", "a,c",
            "--order", "size",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "member 0 (size 1): e(a, c)." in captured.out
        assert "smallest first" in captured.err

    def test_size_order_non_answer(self, files, capsys):
        program, database = files
        code = main([
            "why", program, database, "--answer", "tc", "--tuple", "c,a",
            "--order", "size",
        ])
        assert code == 1


class TestServeStdio:
    """The daemon over stdin/stdout: NDJSON in, NDJSON out."""

    def _serve(self, monkeypatch, capsys, request_lines):
        import io
        import json

        stdin_text = "".join(json.dumps(r) + "\n" for r in request_lines)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(["serve", "--stdio"])
        out = capsys.readouterr().out
        return code, [json.loads(line) for line in out.splitlines() if line]

    def test_open_why_update_cycle(self, monkeypatch, capsys):
        code, responses = self._serve(
            monkeypatch,
            capsys,
            [
                {"id": 1, "op": "open", "program": PROGRAM_TEXT,
                 "database": DATABASE_TEXT, "answer": "tc"},
                {"id": 2, "op": "why", "program": PROGRAM_TEXT,
                 "database": DATABASE_TEXT, "tuple": ["a", "c"]},
                {"id": 3, "op": "update", "program": PROGRAM_TEXT,
                 "database": DATABASE_TEXT, "lines": ["-e(b, c)."]},
                {"id": 4, "op": "why", "program": PROGRAM_TEXT,
                 "database": DATABASE_TEXT, "tuple": ["a", "c"]},
            ],
        )
        assert code == 0
        assert [r["id"] for r in responses] == [1, 2, 3, 4]
        assert responses[0]["result"]["admitted"] is True
        assert len(responses[1]["result"]["members"]) == 2
        # The update addressed the same digest (warm hit, not re-admission).
        assert responses[2]["session"] == responses[0]["session"]
        assert responses[3]["result"]["members"] == [["e(a, c)."]]
        assert responses[3]["version"] == 1

    def test_shutdown_stops_the_loop(self, monkeypatch, capsys):
        code, responses = self._serve(
            monkeypatch,
            capsys,
            [
                {"id": 1, "op": "shutdown"},
                {"id": 2, "op": "ping"},  # never reached
            ],
        )
        assert code == 0
        assert len(responses) == 1 and responses[0]["result"]["stopping"]

    def test_bad_line_answers_with_error(self, monkeypatch, capsys):
        import io
        import json

        monkeypatch.setattr("sys.stdin", io.StringIO("{not json\n"))
        assert main(["serve", "--stdio"]) == 0
        (response,) = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line
        ]
        assert not response["ok"]
        assert response["error"]["code"] == "parse-error"

    def test_acyclicity_is_not_a_serve_flag(self, capsys):
        """Every daemon builds the vertex-elimination layer; asking for
        another is a usage error, not a silently ignored flag."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--stdio", "--acyclicity", "transitive-closure"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --acyclicity" in capsys.readouterr().err


class TestClientCommand:
    """The client subcommand against a live TCP daemon."""

    @pytest.fixture
    def daemon(self):
        from repro.service.registry import SessionRegistry
        from repro.service.server import ProvenanceService, TCPServiceServer

        service = ProvenanceService(registry=SessionRegistry())
        server = TCPServiceServer(service)
        server.serve_in_thread()
        yield f"127.0.0.1:{server.port}"
        server.shutdown()
        server.server_close()
        service.close()

    def test_requests_from_stdin(self, daemon, monkeypatch, capsys):
        import io
        import json

        requests = [
            {"op": "ping"},
            {"op": "why", "program": PROGRAM_TEXT, "database": DATABASE_TEXT,
             "answer": "tc", "tuple": ["a", "c"]},
        ]
        stdin_text = "".join(json.dumps(r) + "\n" for r in requests)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(["client", "--connect", daemon])
        assert code == 0
        responses = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line
        ]
        assert responses[0]["result"]["pong"] is True
        assert len(responses[1]["result"]["members"]) == 2

    def test_requests_from_file_and_failure_exit(self, daemon, tmp_path, capsys):
        import json

        requests = tmp_path / "requests.ndjson"
        requests.write_text('{"op": "answers", "session": "deadbeef"}\n')
        code = main(["client", "--connect", daemon, str(requests)])
        assert code == 1  # error responses flip the exit status
        (response,) = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line
        ]
        assert response["error"]["code"] == "unknown-session"

    def test_bad_request_line_reported(self, daemon, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("{oops\n"))
        code = main(["client", "--connect", daemon])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad request line" in captured.err

    def test_daemon_vanishing_mid_script_is_diagnosed(self, daemon, monkeypatch, capsys):
        import io
        import json

        # After shutdown the connection dies; the next request must be
        # reported as a failure, not crash with a traceback.
        requests = [{"op": "shutdown"}, {"op": "ping"}]
        stdin_text = "".join(json.dumps(r) + "\n" for r in requests)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(["client", "--connect", daemon])
        captured = capsys.readouterr()
        assert code == 1
        assert "request failed" in captured.err


class TestServeTCP:
    """``serve`` as a real process over TCP, in both topologies."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_ping_then_shutdown_exits_cleanly(self, workers):
        import json
        import os
        import queue
        import re
        import socket
        import subprocess
        import sys
        import threading

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", workers],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        lines = queue.Queue()
        drain = threading.Thread(
            target=lambda: [lines.put(line) for line in proc.stderr], daemon=True
        )
        drain.start()
        try:
            match = None
            while match is None:
                line = lines.get(timeout=15)
                match = re.search(r"listening on ([0-9.]+):(\d+)", line)
            with socket.create_connection(
                (match.group(1), int(match.group(2))), timeout=15
            ) as sock:
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                sock.sendall(b'{"id": 1, "op": "ping"}\n')
                assert json.loads(reader.readline())["result"]["pong"] is True
                sock.sendall(b'{"id": 2, "op": "shutdown"}\n')
                assert json.loads(reader.readline())["result"] == {"stopping": True}
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            drain.join(timeout=5)
            proc.stderr.close()


class TestFuzz:
    """The differential-fuzz subcommand (fast configs: in-process paths)."""

    def test_passing_band_exits_zero_and_writes_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main([
            "fuzz", "--seeds", "0:2", "--family", "chain", "--size", "8",
            "--deltas", "1", "--paths", "cold,warm,incremental",
            "--json", str(report), "--verbose",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "2/2 run(s), 0 failure(s)" in err
        import json as json_module

        payload = json_module.loads(report.read_text())
        assert payload["ok"] and payload["completed"] == 2
        assert [run["ok"] for run in payload["runs"]] == [True, True]
        assert payload["fuzz"]["paths"] == ["cold", "warm", "incremental"]

    def test_single_seed_spec(self, capsys):
        code = main([
            "fuzz", "--seeds", "7", "--family", "tree", "--size", "6",
            "--deltas", "0", "--paths", "cold,warm",
        ])
        assert code == 0
        assert "1/1 run(s)" in capsys.readouterr().err

    def test_divergence_reports_shrunk_repro(self, monkeypatch, tmp_path, capsys):
        # Sabotage one path so the CLI's failure handling (report lines,
        # shrinking, JSON payload, exit status) is exercised end to end.
        from repro.testing import oracle as oracle_module

        real_cold = oracle_module._PATH_RUNNERS["cold"]
        monkeypatch.setitem(
            oracle_module._PATH_RUNNERS, "warm",
            lambda instance, config: [
                text + "!" for text in real_cold(instance, config)
            ],
        )
        report = tmp_path / "report.json"
        code = main([
            "fuzz", "--seeds", "0:1", "--family", "chain", "--size", "6",
            "--deltas", "0", "--paths", "cold,warm", "--json", str(report),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "DIVERGED" in err
        assert "minimal program:" in err
        import json as json_module

        payload = json_module.loads(report.read_text())
        (run,) = payload["runs"]
        assert not run["ok"]
        assert run["repro"].startswith("python -m repro fuzz --family chain")
        assert "shrunk" in run and "c_tc" in run["shrunk"]["program"]

    def test_time_budget_skips_remaining_seeds(self, capsys):
        code = main([
            "fuzz", "--seeds", "0:50", "--family", "chain", "--size", "6",
            "--paths", "cold,warm", "--time-budget", "0.0",
        ])
        assert code == 0
        assert "time budget exhausted" in capsys.readouterr().err

    def test_bad_seed_and_family_specs(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--seeds", "5:2"])
        with pytest.raises(SystemExit):
            main(["fuzz", "--seeds", "x"])
        with pytest.raises(SystemExit):
            main(["fuzz", "--family", "zebra"])
        with pytest.raises(SystemExit):
            main(["fuzz", "--paths", "cold,quantum"])

    def test_smoke_preset_fills_defaults(self, capsys):
        # --smoke with an explicit tiny band: presets fill size/deltas
        # and the run stays inside the (explicit) budget machinery.
        code = main([
            "fuzz", "--smoke", "--seeds", "0:1", "--family", "widejoin",
            "--paths", "cold,incremental",
        ])
        assert code == 0
        assert "1/1 run(s), 0 failure(s)" in capsys.readouterr().err
