"""Integration: every save of a catalog directory runs one protocol.

``db.save()`` / ``db.close()`` at every durability and
``db.checkpoint()`` all publish through
:func:`repro.storage.filefmt.save_engine`: versioned main, sidecar
(the table's commit point), manifest, orphan sweep, all under the
commit lock and every table's writer lock.  These tests pin what that
buys a database without a write-ahead log:

* a crash at any point ``close()`` announces reopens to exactly the
  previously saved rows or the new ones;
* a fold racing the save cannot pair a main with the wrong sidecar;
* directories written before every main was versioned still open, and
  the next save moves them onto the protocol.
"""

import json
import shutil
import threading

import pytest

from repro.db import Database
from repro.delta import CompactionPolicy, DeltaStore
from repro.errors import SerializationError
from repro.storage import (
    DataType,
    delta_sidecar_path,
    load_engine,
    save_delta,
    save_table,
    table_from_python,
)
from repro.wal import crash_hook
from tests.harness.crashpoint import crash_opportunities, run_to_crash

NEVER = CompactionPolicy.never()


def four_rows():
    return table_from_python(
        "t",
        {
            "k": (DataType.INT, [1, 2, 3, 4]),
            "v": (DataType.STRING, ["a", "b", "c", "d"]),
        },
    )


def rows_of(directory):
    db = Database(directory, policy=NEVER)
    try:
        return sorted(db.execute("SELECT * FROM t"))
    finally:
        db.close(save=False)


@pytest.fixture
def saved(tmp_path):
    """A saved directory whose table has a pending DELETE and INSERT
    over its 4-row main; returns (directory, its rows)."""
    directory = tmp_path / "saved"
    db = Database(directory, policy=NEVER)
    db.load_table(four_rows())
    db.execute("DELETE FROM t WHERE k = 2")
    db.execute("INSERT INTO t VALUES (5, 'e')")
    db.close()
    return directory, rows_of(directory)


def reopen_and_change(directory):
    """Reopen, fold the saved buffer, and buffer new changes on top:
    the state a crashing ``close()`` is about to publish."""
    db = Database(directory, policy=NEVER)
    db.compact("t")
    db.execute("DELETE FROM t WHERE k = 3")
    db.execute("INSERT INTO t VALUES (6, 'f')")
    return db


def test_crash_anywhere_in_a_plain_close_keeps_old_or_new_rows(
    saved, tmp_path
):
    template, old_rows = saved
    dry = tmp_path / "dry"
    shutil.copytree(template, dry)
    db = reopen_and_change(dry)
    new_rows = sorted(db.execute("SELECT * FROM t"))
    assert new_rows != old_rows
    opportunities = crash_opportunities(db.close)
    assert rows_of(dry) == new_rows
    for run, (label, hit) in enumerate(opportunities):
        directory = tmp_path / f"run{run}"
        shutil.copytree(template, directory)
        db = reopen_and_change(directory)
        crashed, _ = run_to_crash(db.close, label, hit)
        assert crashed, (label, hit)
        assert rows_of(directory) in (old_rows, new_rows), (label, hit)
        # The next save sweeps whatever the crash left behind.
        recovered = Database(directory, policy=NEVER)
        reopened_rows = sorted(recovered.execute("SELECT * FROM t"))
        recovered.close()
        assert rows_of(directory) == reopened_rows
        assert not list(directory.glob("*.tmp")), (label, hit)
    labels = {label for label, _ in opportunities}
    assert {
        "checkpoint.begin",
        "checkpoint.table",
        "checkpoint.cleanup",
        "save.table.replace",
        "save.delta.replace",
        "save.manifest.replace",
    } <= labels, sorted(labels)
    assert "checkpoint.truncate" not in labels  # no log to truncate


@pytest.mark.parametrize(
    "label", ["save.table.replace", "save.delta.temp", "save.manifest.temp"]
)
def test_save_racing_a_fold_publishes_the_rows_it_saw(saved, label):
    directory, _ = saved
    db = Database(directory, policy=NEVER)
    live = sorted(db.execute("SELECT * FROM t"))
    folds = []

    def race(announced):
        # Start one fold from another thread mid-save (a step over
        # both columns completes it); the save holds the table's
        # writer lock, so the fold waits for it.
        if announced == label and not folds:
            fold = threading.Thread(target=db.compact_step, args=("t", 2))
            folds.append(fold)
            fold.start()
            fold.join(timeout=0.5)

    with crash_hook(race):
        db.save()
    (fold,) = folds
    fold.join(timeout=30)
    assert not fold.is_alive()
    db.close(save=False)
    assert rows_of(directory) == live


def test_directory_with_canonical_mains_opens_and_is_republished(tmp_path):
    # The layout every non-durable save wrote before: canonical
    # {name}.cods, a sidecar without `main_file` (or none at all), and
    # the manifest.
    directory = tmp_path / "canonical"
    directory.mkdir()
    table = four_rows()
    save_table(table, directory / "t.cods")
    store = DeltaStore(table.schema)
    store.apply_update([1], [], [])
    store.append_rows([(5, "e")])
    save_delta(store, delta_sidecar_path(directory / "t.cods"))
    save_table(table.renamed("u"), directory / "u.cods")
    (directory / "catalog.json").write_text(
        json.dumps({"tables": ["t", "u"], "version": 3})
    )
    expected = [(1, "a"), (3, "c"), (4, "d"), (5, "e")]
    db = Database(directory, policy=NEVER)
    assert sorted(db.execute("SELECT * FROM t")) == expected
    assert sorted(db.execute("SELECT * FROM u")) == sorted(table.to_rows())
    db.close()
    assert sorted(path.name for path in directory.iterdir()) == [
        "catalog.json", "t.cods.delta", "t.g0.cods",
        "u.cods.delta", "u.g0.cods",
    ]
    sidecar = delta_sidecar_path(directory / "t.cods").read_bytes()
    assert b'"main_file": "t.g0.cods"' in sidecar
    assert b"wal_lsn" not in sidecar
    assert rows_of(directory) == expected


def test_the_manifest_lists_table_names_only(saved):
    directory, _rows = saved
    manifest = json.loads((directory / "catalog.json").read_text())
    assert manifest == {"tables": ["t"]}


@pytest.mark.parametrize("manifest", [
    "not json", '{"version": 3}', '{"tables": 5}', '{"tables": ["../x"]}',
])
def test_a_hostile_manifest_raises_a_typed_error(tmp_path, manifest):
    # "../x" would address a loadable table outside the directory.
    directory = tmp_path / "catalog"
    directory.mkdir()
    save_table(four_rows().renamed("x"), tmp_path / "x.cods")
    (directory / "catalog.json").write_text(manifest)
    with pytest.raises(SerializationError):
        load_engine(directory)
    with pytest.raises(SerializationError):
        Database(directory, policy=NEVER)


@pytest.mark.parametrize("main_file", ["../t.cods", "u.g0.cods", "t.g0.cods"])
def test_a_sidecar_names_only_its_own_tables_main_files(tmp_path, main_file):
    # "../t.cods" would escape the directory and "u.g0.cods" would load
    # another table's rows as t's; "t.g0.cods" is what the save wrote.
    directory = tmp_path / "catalog"
    db = Database(directory, policy=NEVER)
    db.load_table(four_rows())
    db.load_table(four_rows().renamed("u"))
    db.close()
    table = four_rows()
    save_delta(
        DeltaStore(table.schema), delta_sidecar_path(directory / "t.cods"),
        main_file=main_file,
    )
    if main_file != "t.g0.cods":
        with pytest.raises(SerializationError, match="main_file"):
            load_engine(directory)
        return
    assert load_engine(directory).table("t").to_rows() == table.to_rows()


def test_table_created_during_a_save_waits_for_the_next(tmp_path):
    # The manifest lists exactly the tables the save wrote: a table
    # created by another session mid-save has no files there yet.
    directory = tmp_path / "racing"
    db = Database(directory, policy=NEVER)
    db.load_table(four_rows())
    creates = []

    def race(announced):
        if announced == "save.table.replace" and not creates:
            create = threading.Thread(
                target=db.execute, args=("CREATE TABLE z (a INT)",)
            )
            creates.append(create)
            create.start()
            create.join(timeout=30)

    with crash_hook(race):
        db.save()
    assert not creates[0].is_alive()
    assert rows_of(directory) == sorted(four_rows().to_rows())
    db.close()
    reopened = Database(directory, policy=NEVER)
    assert reopened.tables() == ["t", "z"]
    reopened.close(save=False)
