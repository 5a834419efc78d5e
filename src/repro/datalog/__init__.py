"""Datalog substrate: syntax, parsing, storage, and bottom-up evaluation."""

from .atoms import Atom, Fact, make_fact, signature
from .database import Database, Delta, check_over_schema
from .engine import (
    EvaluationResult,
    MaintenanceResult,
    answers,
    evaluate,
    ground_instances,
    holds,
    immediate_consequences,
    maintain_evaluation,
    ranks_from_instances,
    stage_sets,
)
from .io import (
    load_csv,
    load_facts_dir,
    load_facts_file,
    save_csv,
    save_facts_dir,
    save_facts_file,
)
from .parser import (
    ParseError,
    parse_atom,
    parse_database,
    parse_program,
    parse_rule,
)
from .program import DatalogQuery, Program
from .rules import GroundRule, Rule, check_variable_matching
from .terms import Variable, fresh_variable, is_constant, is_variable

__all__ = [
    "Atom",
    "Database",
    "DatalogQuery",
    "Delta",
    "EvaluationResult",
    "Fact",
    "MaintenanceResult",
    "GroundRule",
    "ParseError",
    "Program",
    "Rule",
    "Variable",
    "answers",
    "check_over_schema",
    "check_variable_matching",
    "evaluate",
    "fresh_variable",
    "ground_instances",
    "holds",
    "load_csv",
    "load_facts_dir",
    "load_facts_file",
    "save_csv",
    "save_facts_dir",
    "save_facts_file",
    "maintain_evaluation",
    "immediate_consequences",
    "is_constant",
    "is_variable",
    "make_fact",
    "parse_atom",
    "parse_database",
    "parse_program",
    "parse_rule",
    "ranks_from_instances",
    "signature",
    "stage_sets",
]
