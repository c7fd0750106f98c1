#!/usr/bin/env python3
"""A Wikipedia-style evolution history: many versions, replayed.

The paper motivates CODS with databases that evolve constantly ("the
Wikipedia database has had more than 170 versions in the past 5
years").  This example drives a long randomized stream of schema
modification operators through the engine, records the PRISM-style
history, persists the final catalog, and then replays the whole history
onto a fresh engine to verify the evolution is deterministic.

Run:  python examples/schema_history_replay.py [versions]
"""

import random
import sys
import tempfile
from pathlib import Path

from repro import (
    AddColumn,
    ColumnSchema,
    CopyTable,
    DataType,
    DropColumn,
    DropTable,
    EvolutionEngine,
    RenameColumn,
    RenameTable,
    UnionTables,
)
from repro.smo import Comparison, PartitionTable
from repro.storage import load_engine, save_engine
from repro.workload import EmployeeWorkload


def random_operator(engine: EvolutionEngine, rng: random.Random, step: int):
    """Pick an applicable operator for the current catalog state."""
    names = engine.catalog.table_names()
    table_name = rng.choice(names)
    table = engine.table(table_name)
    choices = ["copy", "rename_table", "add_column"]
    if len(table.schema.columns) > 2:
        choices += ["drop_column", "rename_column"]
    if table.nrows > 10:
        choices.append("partition")
    if len(names) > 3:
        choices.append("drop")

    kind = rng.choice(choices)
    if kind == "copy":
        return CopyTable(table_name, f"t{step}_copy")
    if kind == "rename_table":
        return RenameTable(table_name, f"t{step}_renamed")
    if kind == "add_column":
        return AddColumn(
            table_name,
            ColumnSchema(f"col{step}", DataType.INT),
            rng.randrange(10),
        )
    if kind == "drop_column":
        droppable = [
            c.name
            for c in table.schema.columns[1:]
            if c.name not in table.schema.primary_key
        ]
        return DropColumn(table_name, rng.choice(droppable))
    if kind == "rename_column":
        column = rng.choice(table.schema.columns[1:]).name
        return RenameColumn(table_name, column, f"{column}_v{step}")
    if kind == "partition":
        first = table.schema.columns[0]
        value = table.column(first.name).dictionary.value(0)
        return PartitionTable(
            table_name,
            f"t{step}_a",
            f"t{step}_b",
            Comparison(first.name, "=", value),
        )
    return DropTable(table_name)


def main() -> None:
    versions = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    rng = random.Random(170)

    base = EmployeeWorkload(5_000, 200, seed=170).build()
    engine = EvolutionEngine()
    engine.load_table(base)

    print(f"Evolving through {versions} schema versions …")
    applied = 0
    while applied < versions:
        op = random_operator(engine, rng, applied)
        try:
            engine.apply(op)
        except Exception:
            continue  # operator raced an earlier rename; pick another
        applied += 1
        # Occasionally fold partitions back so tables keep growing.
        names = engine.catalog.table_names()
        pairs = [
            (a, b)
            for a in names
            for b in names
            if a < b
            and engine.table(a).schema.compatible_with(
                engine.table(b).schema
            )
        ]
        if pairs and rng.random() < 0.3 and applied < versions:
            a, b = rng.choice(pairs)
            engine.apply(UnionTables(a, b, f"t{applied}_union"))
            applied += 1

    print(f"Final catalog ({len(engine.catalog.table_names())} tables, "
          f"version {engine.catalog.version}):")
    for line in engine.catalog.describe().splitlines()[:8]:
        print("   ", line)
    print(f"    … history has {len(engine.history)} operators")

    # Persist and reload the evolved catalog.
    with tempfile.TemporaryDirectory() as tmp:
        save_engine(engine, Path(tmp) / "evolved")
        reloaded = load_engine(Path(tmp) / "evolved").catalog
        assert reloaded.table_names() == engine.catalog.table_names()
    print("Catalog persisted and reloaded (compressed bitmaps verbatim).")

    # Replay the recorded history on a fresh engine.
    fresh = EvolutionEngine()
    fresh.load_table(base)
    engine.history.replay(fresh)
    assert fresh.catalog.table_names() == engine.catalog.table_names()
    for name in engine.catalog.table_names():
        assert fresh.table(name).same_content(engine.table(name))
    print(f"History replay reproduced all "
          f"{len(engine.catalog.table_names())} tables exactly.")


if __name__ == "__main__":
    main()
