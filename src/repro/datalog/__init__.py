"""bddbddb in Python: a Datalog-to-BDD deductive database.

"We have developed a deductive database system called bddbddb (BDD Based
Deductive DataBase) that automatically translates Datalog programs into BDD
algorithms."  This package is that system, built on :mod:`repro.bdd`:

* :func:`parse_program` — the Datalog dialect of the paper's listings,
* :class:`Solver` — stratified, semi-naive, incrementalized evaluation with
  automatic physical-domain assignment and rename minimization,
* :class:`Relation` — attributed BDD relations with tuple-level access.

Typical use::

    from repro.datalog import parse_program, Solver

    program = parse_program(ALGORITHM_1_SOURCE, domain_sizes={"V": 64, "H": 16})
    solver = Solver(program, name_maps={"V": var_names, "H": heap_names})
    solver.add_tuples("vP0", new_statements)
    solver.add_tuples("assign", assignments)
    solver.solve()
    points_to = set(solver.relation("vP").tuples())
"""

from .ast import (
    Atom,
    AttributeDecl,
    Comparison,
    DatalogError,
    DomainDecl,
    DontCare,
    NamedConst,
    NumberConst,
    ProgramAST,
    RelationDecl,
    Rule,
    Variable,
)
from .compiler import compile_rule, instance_requirements
from .explain import Derivation, explain, format_derivation
from .parser import apply_domain_sizes, parse_program
from .passes import PASS_NAMES, PassOptions, run_pipeline
from .plan import (
    HoistedSlot,
    Op,
    PlanUnit,
    RulePlan,
    format_plan,
    format_unit,
    validate_plan,
)
from .relation import Attribute, Relation
from .solver import RuleProfile, SolveStats, Solver
from .stratify import Stratum, stratify

__all__ = [
    "Atom",
    "Attribute",
    "AttributeDecl",
    "Comparison",
    "DatalogError",
    "Derivation",
    "DomainDecl",
    "DontCare",
    "HoistedSlot",
    "Op",
    "PASS_NAMES",
    "PassOptions",
    "PlanUnit",
    "RelationDecl",
    "Relation",
    "Rule",
    "RulePlan",
    "RuleProfile",
    "SolveStats",
    "Solver",
    "Stratum",
    "Variable",
    "NamedConst",
    "NumberConst",
    "ProgramAST",
    "apply_domain_sizes",
    "compile_rule",
    "explain",
    "format_derivation",
    "format_plan",
    "format_unit",
    "instance_requirements",
    "parse_program",
    "run_pipeline",
    "stratify",
    "validate_plan",
]
