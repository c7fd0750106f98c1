"""Schema Modification Operators (paper Table 1) and their language."""

from repro.smo.history import EvolutionHistory, HistoryEntry
from repro.smo.ops import (
    ALL_OPERATORS,
    AddColumn,
    CopyTable,
    CreateTable,
    DecomposeTable,
    DropColumn,
    DropTable,
    MergeTables,
    PartitionTable,
    RenameColumn,
    RenameTable,
    SchemaModificationOperator,
    UnionTables,
)
from repro.smo.parser import parse_predicate, parse_smo
from repro.smo.plan import EvolutionPlan, simulate
from repro.smo.predicate import And, Comparison, Not, Or, Predicate

__all__ = [
    "ALL_OPERATORS",
    "AddColumn",
    "And",
    "Comparison",
    "CopyTable",
    "CreateTable",
    "DecomposeTable",
    "DropColumn",
    "DropTable",
    "EvolutionHistory",
    "EvolutionPlan",
    "HistoryEntry",
    "MergeTables",
    "Not",
    "Or",
    "PartitionTable",
    "Predicate",
    "RenameColumn",
    "RenameTable",
    "SchemaModificationOperator",
    "UnionTables",
    "parse_predicate",
    "parse_smo",
    "simulate",
]
