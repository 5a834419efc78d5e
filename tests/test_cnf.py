"""Unit tests for CNF formulas, variable pools, and DIMACS I/O."""

import pytest

from repro.sat.cnf import CNF


class TestCNF:
    def test_new_var_sequence(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2
        assert cnf.num_vars == 2

    def test_add_clause_validates(self):
        cnf = CNF(2)
        cnf.add_clause((1, -2))
        with pytest.raises(ValueError):
            cnf.add_clause((3,))
        with pytest.raises(ValueError):
            cnf.add_clause((0,))

    @pytest.mark.parametrize("bad,message", [(3, "unallocated variable 3"), (-3, "unallocated"), (0, "0 is not")])
    def test_add_clauses_checks_the_batch_as_add_clause_would(self, bad, message):
        cnf = CNF(2)
        cnf.add_clauses([[1, 2], (), iter((-1,))])
        assert cnf.clauses == [(1, 2), (), (-1,)]
        # The clauses before the first bad literal are kept, as one by one.
        with pytest.raises(ValueError, match=message):
            cnf.add_clauses([(2,), (1, bad), (-2,)])
        assert cnf.clauses == [(1, 2), (), (-1,), (2,)]

    def test_empty_clause_allowed(self):
        cnf = CNF(1)
        cnf.add_clause(())
        assert () in cnf.clauses

    def test_implies(self):
        cnf = CNF(2)
        cnf.implies(1, 2)
        assert cnf.clauses == [(-1, 2)]

    def test_cardinality_helpers(self):
        cnf = CNF(3)
        cnf.exactly_one([1, 2, 3])
        assert (1, 2, 3) in cnf.clauses
        assert (-1, -2) in cnf.clauses
        assert (-1, -3) in cnf.clauses
        assert (-2, -3) in cnf.clauses

    def test_evaluate(self):
        cnf = CNF(2)
        cnf.add_clause((1, 2))
        cnf.add_clause((-1, 2))
        assert cnf.evaluate({1: False, 2: True})
        assert not cnf.evaluate({1: True, 2: False})

    def test_stats(self):
        cnf = CNF(3)
        cnf.add_clause((1, 2))
        cnf.add_clause((-3,))
        stats = cnf.stats()
        assert stats == {"variables": 3, "clauses": 2, "literals": 3}

    def test_copy_independent(self):
        cnf = CNF(1)
        cnf.add_clause((1,))
        dup = cnf.copy()
        dup.add_clause((-1,))
        assert len(cnf.clauses) == 1


class TestDimacs:
    def test_round_trip(self):
        cnf = CNF(3)
        cnf.add_clause((1, -2, 3))
        cnf.add_clause((-1,))
        parsed = CNF.from_dimacs(cnf.to_dimacs())
        assert parsed.num_vars == 3
        assert parsed.clauses == cnf.clauses

    def test_parse_with_comments(self):
        text = "c a comment\np cnf 2 2\n1 -2 0\n2 0\n"
        cnf = CNF.from_dimacs(text)
        assert cnf.num_vars == 2
        assert cnf.clauses == [(1, -2), (2,)]

    def test_unterminated_clause(self):
        with pytest.raises(ValueError):
            CNF.from_dimacs("p cnf 1 1\n1")

    def test_malformed_header(self):
        with pytest.raises(ValueError):
            CNF.from_dimacs("p wcnf 1 1\n1 0\n")
