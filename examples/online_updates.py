#!/usr/bin/env python3
"""Online updates: the write path behind the `repro.db` façade.

The CODS store keeps every column as WAH-compressed per-value bitmaps —
great for scans and evolution, terrible for point writes.  This
walkthrough shows the `repro.delta` answer through its serving surface:
SQL DML lands in per-table write buffers, reads merge both sides at
query time, whole-catalog transactions pin a frozen epoch vector,
compaction folds the buffer into fresh compressed columns, and the
catalog (buffers included) survives a save/load round trip.

Run:  python examples/online_updates.py
"""

import tempfile

from repro import CompactionPolicy, DataType, table_from_python
from repro.db import Database
from repro.smo.predicate import Comparison


def build_r():
    """The paper's Figure 1 table R(Employee, Skill, Address)."""
    return table_from_python(
        "R",
        {
            "Employee": (
                DataType.STRING,
                ["Jones", "Jones", "Roberts", "Ellis", "Jones", "Ellis",
                 "Harrison"],
            ),
            "Skill": (
                DataType.STRING,
                ["Typing", "Shorthand", "Light Cleaning", "Alchemy",
                 "Whittling", "Juggling", "Light Cleaning"],
            ),
            "Address": (
                DataType.STRING,
                ["425 Grant Ave", "425 Grant Ave", "747 Industrial Way",
                 "747 Industrial Way", "425 Grant Ave",
                 "747 Industrial Way", "425 Grant Ave"],
            ),
        },
    )


def main() -> None:
    print("=" * 64)
    print("CODS online updates — main/delta write path via repro.db")
    print("=" * 64)

    # 1. SQL DML through the façade: every write lands in R's delta
    #    buffer, never in the compressed columns.
    db = Database(policy=CompactionPolicy.never())
    db.load_table(build_r())
    db.execute("INSERT INTO R VALUES (?, ?, ?)",
               ("Smith", "Welding", "12 Elm St"))
    db.execute("UPDATE R SET Skill = 'Filing' WHERE Employee = 'Ellis'")
    db.execute("DELETE FROM R WHERE Employee = 'Jones'")
    stats = db.delta_stats()[0]
    print(f"\nAfter DML: {stats.as_dict()}")
    print("Merged read (main + delta at query time):")
    for row in db.execute("SELECT * FROM R"):
        print("   ", row)

    # 2. Schema evolution *through the same execute()*: the engine
    #    flushes R's delta first and records it in the status log.
    status = db.execute(
        "DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)"
    )
    print(f"\nDECOMPOSE flushed {status.delta_rows_flushed} delta row(s):")
    for event in status.events:
        print(f"    [{event.step}] {event.detail}")
    print("S =", db.execute("SELECT * FROM S"))

    # 3. A read-write transaction: reads pin the whole catalog, writes
    #    apply to the scope's overlay (read-your-writes), and commit
    #    publishes their effects all or nothing (an exception rolls
    #    back; a conflicting commit raises TransactionConflict).
    with db.transaction() as tx:
        frozen = tx.execute("SELECT * FROM S")
        tx.execute("INSERT INTO S VALUES ('Nguyen', 'Poetry')")
        tx.execute("UPDATE S SET Skill = 'Sonnets' "
                   "WHERE Employee = 'Nguyen'")
        # The scope sees its own writes ...
        assert tx.execute("SELECT * FROM S") == frozen + [
            ("Nguyen", "Sonnets")
        ]
        # ... while other sessions read live state until commit.
        assert db.execute("SELECT * FROM S") == frozen
    print("\nAfter the transaction committed, SELECT * FROM S:")
    for row in db.execute("SELECT * FROM S"):
        print("   ", row)

    # 4. Compaction produces a pure-WAH table again.
    table = db.compact("S")
    words = sum(
        bitmap.word_count
        for column in table.columns()
        for bitmap in column.bitmaps
    )
    print(f"\nCompacted S: {table.nrows} rows in {words} WAH words")

    # 5. Delta state survives a save/load round trip of the whole
    #    catalog directory.
    db.execute("INSERT INTO T VALUES ('Nguyen', '1 Verse Blvd')")
    with tempfile.TemporaryDirectory() as directory:
        db.save(directory)
        restored = Database(directory, policy=CompactionPolicy.never())
        print(f"\nSaved and reopened from {directory!r}")
        print("Restored merged T:",
              restored.execute("SELECT * FROM T WHERE Employee = 'Nguyen'"))
        print("Restored delta stats:",
              [s.as_dict() for s in restored.delta_stats()])

    # The lower-level handles remain available underneath the façade:
    mutable = db.engine.mutable("T")
    mutable.delete(Comparison("Employee", "=", "Nguyen"))
    print("\nDirect MutableTable delete still works:",
          db.execute("SELECT * FROM T WHERE Employee = 'Nguyen'"))


if __name__ == "__main__":
    main()
