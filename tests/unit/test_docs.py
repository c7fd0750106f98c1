"""Docs freshness: the prose must not drift from the repository.

Fails when a Markdown link in ``README.md``/``docs/*.md`` points at a
missing file, when a documented command references a script or module
that no longer exists, or when the format documentation falls behind
the code's format version.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
DOC_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")],
    key=lambda path: path.name,
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)]*)?\)")
_FENCE = re.compile(r"```(?:sh|bash|console)?\n(.*?)```", re.DOTALL)
_SCRIPT = re.compile(r"python\s+(\S+\.py)")
_MODULE = re.compile(r"python\s+-m\s+([\w.]+)")


def doc_ids():
    return [path.relative_to(REPO).as_posix() for path in DOC_FILES]


@pytest.fixture(params=DOC_FILES, ids=doc_ids())
def doc(request):
    path = request.param
    assert path.exists(), f"missing doc file {path}"
    return path


class TestLinks:
    def test_relative_links_resolve(self, doc):
        text = doc.read_text()
        broken = []
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if not (doc.parent / target).resolve().exists():
                broken.append(target)
        assert not broken, f"{doc.name}: broken links {broken}"

    def test_readme_and_architecture_link_each_other(self):
        readme = (REPO / "README.md").read_text()
        architecture = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "docs/ARCHITECTURE.md" in readme
        assert "README.md" in architecture


    def test_markdown_files_named_in_sources_resolve(self):
        """A ``*.md`` cited from a ``src/`` or ``tests/`` docstring or
        comment must exist: with a directory as written from the repo
        root, bare under the root or ``docs/``."""
        cited = re.compile(r"(?<![\w./-])([\w./-]+\.md)\b")
        dangling = []
        for root in ("src", "tests"):
            for source in sorted((REPO / root).rglob("*.py")):
                for name in set(cited.findall(source.read_text())):
                    candidates = (
                        [REPO / name] if "/" in name
                        else [REPO / name, REPO / "docs" / name]
                    )
                    if not any(path.is_file() for path in candidates):
                        dangling.append(
                            f"{source.relative_to(REPO)}: {name}"
                        )
        assert not dangling, f"dangling markdown references: {dangling}"


class TestCommands:
    def test_referenced_scripts_exist(self, doc):
        missing = []
        for block in _FENCE.findall(doc.read_text()):
            for script in _SCRIPT.findall(block):
                if not (REPO / script).exists():
                    missing.append(script)
        assert not missing, f"{doc.name}: missing scripts {missing}"

    def test_referenced_modules_importable(self, doc, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO / "src"))
        missing = []
        for block in _FENCE.findall(doc.read_text()):
            for module in _MODULE.findall(block):
                if module == "pytest":
                    continue
                if importlib.util.find_spec(module) is None:
                    missing.append(module)
        assert not missing, f"{doc.name}: unimportable modules {missing}"

    def test_readme_quotes_the_tier1_command(self):
        # ROADMAP.md is the source of truth for the tier-1 invocation.
        readme = (REPO / "README.md").read_text()
        assert "python -m pytest -x -q" in readme

    def test_readme_mentions_console_script(self):
        # The cods-demo entry point comes from pyproject.toml.
        pyproject = (REPO / "pyproject.toml").read_text()
        assert "cods-demo" in pyproject
        assert "cods-demo" in (REPO / "README.md").read_text()


class TestFormatDocs:
    def test_delta_format_version_is_current(self):
        import repro.storage.filefmt as filefmt

        text = (REPO / "docs" / "delta-format.md").read_text()
        assert f"format version {filefmt._DELTA_VERSION}" in text, (
            "docs/delta-format.md does not document the current .delta "
            f"format version ({filefmt._DELTA_VERSION})"
        )
        assert f"format version {filefmt._VERSION}" in text

    def test_delta_format_documents_payload_fields(self):
        text = (REPO / "docs" / "delta-format.md").read_text()
        for field in (
            "epoch", "columns", "insert_epochs", "deleted_main",
            "deleted_delta", "index",
        ):
            assert f"`{field}`" in text, f"payload field {field} undocumented"

    def test_architecture_names_the_real_modules(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        for module in (
            "repro.bitmap", "repro.storage", "repro.delta", "repro.core",
            "repro.smo", "repro.sql", "repro.exec", "repro.db",
            "repro.demo", "repro.workload", "repro.bench", "repro.wal",
            "repro.server", "repro.client",
        ):
            spec_dir = REPO / "src" / module.replace(".", "/")
            assert spec_dir.is_dir(), f"{module} vanished from src/"
            assert module in text, f"ARCHITECTURE.md does not map {module}"

    def test_architecture_documents_the_rename_invariant(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "RENAME TABLE" in text and "RENAME COLUMN" in text
        assert "metadata-only" in text


class TestApiDocs:
    def test_readme_quickstarts_on_the_facade(self):
        readme = (REPO / "README.md").read_text()
        assert "from repro.db import Database" in readme
        assert "db.transaction" in readme

    def test_migration_doc_maps_the_old_entry_points(self):
        text = (REPO / "docs" / "migration.md").read_text()
        for old in (
            "EvolutionEngine", "SqlExecutor", "MutableColumnAdapter",
            "save_engine", "snapshot_scope",
        ):
            assert old in text, f"migration.md does not map {old}"
        assert "Database" in text

    def test_architecture_documents_the_api_layer(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "## The API layer: `repro.db`" in text
        assert "epoch vector" in text
        assert "A `Database` serves one engine" in text

    def test_registry_backends_are_documented(self):
        # The backend registry is gone: ARCHITECTURE.md names the one
        # served engine and the two baseline classes, and migration.md
        # lists every removed name.
        import repro.db as db

        architecture = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        for adapter in (
            "MutableColumnAdapter", "RowEngineAdapter", "ColumnStoreAdapter",
        ):
            assert f"`{adapter}`" in architecture, (
                f"ARCHITECTURE.md does not document {adapter}"
            )
        migration = (REPO / "docs" / "migration.md").read_text()
        for removed in (
            "BackendSpec", "register_backend", "backend_spec",
            "available_backends", "create_adapter",
        ):
            assert f"`{removed}`" in migration, (
                f"migration.md does not note the removal of {removed}"
            )
            assert not hasattr(db, removed)
        assert "`repro.core.advisor`" in migration


class TestObservabilityDocs:
    def test_architecture_documents_the_obs_layer(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "## Observability: `repro.obs`" in text
        assert "EXPLAIN" in text
        assert "observability.md" in text

    def test_metric_catalog_covers_the_exported_names(self):
        # Every metric a fresh database exports after a tiny workload
        # must appear in the observability doc's catalog.
        from repro.db import Database

        text = (REPO / "docs" / "observability.md").read_text()
        db = Database()
        db.execute("CREATE TABLE d (k INT, KEY(k))")
        db.execute("INSERT INTO d VALUES (1)")
        db.execute("SELECT * FROM d")
        # An aggregate query so the exec.agg_* counters appear too.
        db.execute("SELECT k, COUNT(*) FROM d GROUP BY k")
        with db.transaction() as tx:
            tx.execute("SELECT * FROM d")
        undocumented = [
            name for name in db.metrics() if f"`{name}`" not in text
        ]
        assert not undocumented, (
            f"observability.md catalog is missing {undocumented}"
        )

    def test_span_schema_names_the_real_columns(self):
        from repro.obs import TRACE_COLUMNS

        text = (REPO / "docs" / "observability.md").read_text()
        for column in TRACE_COLUMNS:
            assert column in text, (
                f"observability.md does not mention trace column "
                f"{column!r}"
            )

    def test_obs_overhead_bench_is_wired(self):
        assert (REPO / "benchmarks" / "bench_obs_overhead.py").exists()
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "bench_obs_overhead.py" in ci


class TestDurabilityDocs:
    def test_wal_format_doc_covers_the_frame_layout(self):
        text = (REPO / "docs" / "wal-format.md").read_text()
        for term in ("CODW", "CRC-32", "base LSN", "fsync"):
            assert term in text, f"wal-format.md does not explain {term!r}"
        assert "torn" in text.lower(), "torn-tail handling undocumented"

    def test_wal_format_doc_names_every_record_type(self):
        # The table of record payloads must keep up with what recovery
        # actually dispatches on (see repro.wal.recovery).
        text = (REPO / "docs" / "wal-format.md").read_text()
        for kind in (
            "insert", "delmain", "deldelta", "update", "compact", "commit",
        ):
            assert f"`{kind}`" in text, f"record type {kind} undocumented"
        assert '"c": 1' in text, "single-frame autocommit undocumented"

    def test_architecture_documents_the_durability_layer(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "## Durability: `repro.wal`" in text
        assert "wal-format.md" in text
        assert "crash_point" in text

    def test_wal_metric_catalog_covers_a_durable_catalog(self, tmp_path):
        # Every metric a durable catalog exports after logging,
        # checkpointing and recovering must appear in the catalog.
        from repro.db import Database

        text = (REPO / "docs" / "observability.md").read_text()
        db = Database(tmp_path / "cat", durability="group")
        db.execute("CREATE TABLE d (k INT)")
        db.execute("INSERT INTO d VALUES (1)")
        db.checkpoint()
        try:
            undocumented = [
                name for name in db.metrics() if f"`{name}`" not in text
            ]
        finally:
            db.close(save=False)
        assert not undocumented, (
            f"observability.md catalog is missing {undocumented}"
        )

    def test_wal_commit_bench_is_wired(self):
        assert (REPO / "benchmarks" / "bench_wal_commit.py").exists()
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "bench_wal_commit.py" in ci

    def test_delta_format_documents_the_checkpoint_fields(self):
        text = (REPO / "docs" / "delta-format.md").read_text()
        assert "`wal_lsn`" in text and "`main_file`" in text
        assert "wal-format.md" in text


class TestServerDocs:
    def test_server_doc_covers_the_wire_protocol(self):
        text = (REPO / "docs" / "server.md").read_text()
        for term in ("CODN", "CRC-32", "u32 payload length", "preamble"):
            assert term in text, f"server.md does not explain {term!r}"

    def test_server_doc_names_every_command(self):
        # The command table must keep up with what the server actually
        # dispatches on (see CodsServer._commands).
        text = (REPO / "docs" / "server.md").read_text()
        for cmd in (
            "hello", "execute", "executemany", "fetch", "close_cursor",
            "begin", "commit", "rollback", "metrics", "goodbye",
        ):
            assert f"`{cmd}`" in text, f"command {cmd} undocumented"

    def test_server_doc_explains_errors_and_lifecycle(self):
        text = (REPO / "docs" / "server.md").read_text()
        for term in (
            "SqlSyntaxError", "NetworkError", "AuthenticationError",
            "read-your-writes", "reaper", "Graceful shutdown",
        ):
            assert term in text, f"server.md does not explain {term!r}"

    def test_architecture_documents_the_network_layer(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "## The network front end: `repro.server`" in text
        assert "repro.client" in text
        assert "server.md" in text

    def test_readme_quickstarts_the_server(self):
        readme = (REPO / "README.md").read_text()
        assert "python -m repro.server" in readme
        assert "from repro.client import connect" in readme

    def test_server_metric_catalog_covers_a_served_database(self):
        # Every metric a database behind a live server exports must
        # appear in the observability catalog.
        from repro.client import connect
        from repro.db import Database
        from repro.server import CodsServer

        text = (REPO / "docs" / "observability.md").read_text()
        db = Database()
        server = CodsServer(db, "127.0.0.1", 0)
        server.start()
        try:
            with connect(*server.address) as conn:
                conn.execute("CREATE TABLE d (k INT)")
                conn.execute("INSERT INTO d VALUES (1)")
                undocumented = [
                    name for name in conn.metrics()
                    if f"`{name}`" not in text
                ]
        finally:
            server.stop()
        assert not undocumented, (
            f"observability.md catalog is missing {undocumented}"
        )

    def test_server_bench_and_stress_are_wired(self):
        assert (REPO / "benchmarks" / "bench_server.py").exists()
        assert (REPO / "tests" / "integration" / "test_server.py").exists()
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "bench_server.py" in ci
        assert "test_server.py" in ci


class TestExecutionPipelineDocs:
    def test_architecture_documents_the_batch_pipeline(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "## The execution pipeline: `repro.exec`" in text
        for term in (
            "ColumnBatch", "TableBatch", "DeltaBatch", "ValuesBatch",
            "sorted, distinct `int64`", "scan_batches",
        ):
            assert term in text, (
                f"ARCHITECTURE.md does not explain {term!r}"
            )

    def test_architecture_names_the_batch_kinds_that_exist(self):
        import repro.exec as exec_module

        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        for name in ("TableBatch", "DeltaBatch", "ValuesBatch"):
            assert hasattr(exec_module, name), f"repro.exec lost {name}"
            assert name in text

    DELETED_READ_NAMES = (
        "scan_rows", "filter_rows", "matching_rows", "copy_on_read_rows",
        "rows_hint", "scan_strategy", "bench_snapshot_scan",
    )

    def doc_texts(self):
        paths = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]
        return {path.name: path.read_text() for path in paths}

    def test_migration_doc_covers_adapter_authors(self):
        """Fact pins: the contract the adapter-author section states is
        the one `EngineAdapter` has, and every helper it names exists."""
        import repro.exec as exec_module
        from repro.sql.adapter import EngineAdapter

        text = (REPO / "docs" / "migration.md").read_text()
        section = text[text.index("## For adapter authors"):]
        section = section[:section.index("\n## ", 1)]
        for method in ("scan_batches", "table_stats", "scan_path"):
            assert f"`{method}" in section or f".{method}" in section
            assert callable(getattr(EngineAdapter, method))
        for helper in ("batches_from_rows", "iter_rows", "ValuesBatch",
                       "TableBatch", "DeltaBatch"):
            assert helper in section
            assert hasattr(exec_module, helper), f"repro.exec lost {helper}"

    def test_every_read_method_the_docs_name_exists(self):
        import re

        from repro.delta import MutableTable, Snapshot
        from repro.sql.adapter import EngineAdapter

        owners = {
            "EngineAdapter": EngineAdapter,
            "MutableTable": MutableTable,
            "Snapshot": Snapshot,
        }
        pattern = re.compile(r"`(EngineAdapter|MutableTable|Snapshot)\.(\w+)")
        named = set()
        for name, text in self.doc_texts().items():
            for owner, attribute in pattern.findall(text):
                named.add((owner, attribute))
                assert hasattr(owners[owner], attribute), (
                    f"{name} names {owner}.{attribute}, which does not exist"
                )
        # The sweep is not vacuous: the contract itself is named.
        assert ("EngineAdapter", "scan_batches") in named
        assert ("MutableTable", "to_rows") in named

    def test_deleted_read_paths_are_gone_from_the_docs(self):
        for name, text in self.doc_texts().items():
            for deleted in self.DELETED_READ_NAMES:
                assert deleted not in text, f"{name} still mentions {deleted}"

    REMOVED_SELECTION_NAMES = ("PlainBitmap", "mask_from_positions")

    def test_removed_selection_names_live_only_in_the_migration_note(self):
        """The dense selection bitmap is gone from the code and from
        every document but its own migration note."""
        import repro
        import repro.bitmap
        import repro.exec

        for module in (repro, repro.bitmap, repro.exec):
            for removed in self.REMOVED_SELECTION_NAMES:
                assert not hasattr(module, removed), (
                    f"{module.__name__} still exports {removed}"
                )
        heading = "## Removed: the dense selection bitmap"
        for name, text in self.doc_texts().items():
            note = ""
            if name == "migration.md":
                note = text[text.index(heading):]
                note = note[:note.index("\n## ", 1)]
            for removed in self.REMOVED_SELECTION_NAMES:
                assert text.count(removed) == note.count(removed), (
                    f"{name} mentions {removed} outside the migration note"
                )
                if name == "migration.md":
                    assert removed in note

    def test_vectorized_scan_bench_is_wired(self):
        # The benchmark the execution-pipeline section points at must
        # exist and CI must smoke it alongside the other benches.
        assert (REPO / "benchmarks" / "bench_vectorized_scan.py").exists()
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "bench_vectorized_scan.py" in ci


class TestWritePathDocs:
    def test_every_function_the_write_path_passage_names_exists(self):
        """Fact pins on "The main/delta split": how victims are located
        and where old images come from, by the names that do it."""
        from repro.delta import DeltaStore, MutableTable
        from repro.delta import mutable, snapshot
        from repro.exec import DeltaBatch, TableBatch, ValuesBatch
        from repro.smo.predicate import Predicate
        from repro.storage.dictionary import Dictionary

        owners = {
            "MutableTable": MutableTable, "DeltaStore": DeltaStore,
            "Dictionary": Dictionary, "Predicate": Predicate,
            "TableBatch": TableBatch, "DeltaBatch": DeltaBatch,
            "ValuesBatch": ValuesBatch,
        }
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        section = text[text.index("## The main/delta split"):]
        section = section[:section.index("\n## ", 1)]
        named = set(re.findall(r"`(\w+)\.(\w+)`", section))
        for owner, attribute in named:
            assert callable(getattr(owners[owner], attribute, None)), (
                f"ARCHITECTURE.md names {owner}.{attribute}, which does "
                "not exist"
            )
        assert {
            ("MutableTable", "delete"),
            ("MutableTable", "update"),
            ("Dictionary", "vid_or_none"),
            ("Predicate", "bitmap"),
            ("TableBatch", "rows"),
            ("DeltaBatch", "rows"),
        } <= named
        assert "`decoded_main_rows`" in section
        assert callable(snapshot.decoded_main_rows)
        assert "`find_victims`" in section
        assert callable(mutable.find_victims)

    def test_the_filtering_read_of_old_images_is_gone(self):
        roots = [REPO / "docs", REPO / "src"]
        for path in sorted(p for root in roots for p in root.rglob("*")):
            if path.suffix in (".md", ".py"):
                assert "select_rows" not in path.read_text(), path

    def test_ci_runs_the_write_path_crash_oracle(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert (
            "benchmarks/e2e/run.py --workload oltp_durable --seconds 3" in ci
        )


class TestBatchedConstructorDocs:
    def test_architecture_names_the_constructor_and_its_callers(self):
        import repro.bitmap.batch as batch

        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "batch kernels" in text and "builders" not in text
        for name in (
            "batch_from_positions", "batch_select",
            "batch_concat_positions", "batch_split",
        ):
            assert hasattr(batch, name), f"repro.bitmap.batch lost {name}"
            assert f"`{name}" in text, f"ARCHITECTURE.md omits {name}"
        for caller in ("BitmapColumn.from_vids", "_merge_column", "PARTITION"):
            assert caller in text

    def test_no_bit_matrix_expansion_in_the_bitmap_package(self):
        # Extraction peels set bits; concat splices the left words.
        for path in sorted((REPO / "src" / "repro" / "bitmap").rglob("*.py")):
            assert "unpackbits" not in path.read_text(), path
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "splices" in text and "peeling" in text

    def test_streaming_builder_is_gone(self):
        import repro.bitmap

        assert not hasattr(repro.bitmap, "WAHBuilder")
        assert not (REPO / "src" / "repro" / "bitmap" / "builder.py").exists()

    def test_ci_gates_the_smo_oracle_checks(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "benchmarks/e2e/run.py --workload schema_evolution --smoke" in ci
        assert "pytest benchmarks/e2e/tests" in ci


class TestConcurrencyDocs:
    def test_architecture_documents_the_lock_order(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "## Concurrency" in text
        assert "_commit_lock" in text, "lock-order head undocumented"
        assert "writer lock" in text
        assert "read-your-writes" in text
        assert "start_compactor" in text

    def test_migration_doc_covers_the_new_read_semantics(self):
        text = (REPO / "docs" / "migration.md").read_text()
        assert "read-your-writes" in text
        assert "first touch" in text

    def test_overlay_narrows_batches_instead_of_copying_rows(self):
        src = REPO / "src" / "repro"
        overlay = (src / "db" / "overlay.py").read_text()
        for name in ("iter_rows", "_patch_rows", "_drop_rows"):
            assert name not in overlay, f"db/overlay.py uses {name}"
        users = sorted(
            path.relative_to(src).as_posix()
            for path in src.rglob("*.py")
            if re.search(r"\b_(patch|drop)_rows\b", path.read_text())
        )
        assert users == ["sql/adapter.py"]
        text = (REPO / "docs" / "migration.md").read_text()
        assert "moves the updated rows to the\n  end of the scan" in text

    def test_wal_format_doc_names_the_update_record(self):
        text = (REPO / "docs" / "wal-format.md").read_text()
        assert "`update`" in text
        assert "`mpos`" in text and "`didx`" in text

    def test_compactor_metrics_are_documented(self):
        # The catalog must cover what a database that actually ran the
        # background compactor exports.
        from repro.db import Database

        text = (REPO / "docs" / "observability.md").read_text()
        db = Database()
        db.execute("CREATE TABLE d (k INT)")
        db.execute("INSERT INTO d VALUES (1)")
        db.start_compactor(interval=0.001)
        db.stop_compactor()
        undocumented = [
            name for name in db.metrics() if f"`{name}`" not in text
        ]
        assert not undocumented, (
            f"observability.md catalog is missing {undocumented}"
        )

    def test_stress_suite_is_wired_into_ci(self):
        assert (
            REPO / "tests" / "integration" / "test_concurrency.py"
        ).exists()
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "pytest-timeout" in ci, "CI lacks the deadlock guard"
        assert "test_concurrency.py" in ci
        guard = ci[ci.index("Concurrency stress (deadlock guard)"):]
        guard = guard[:guard.index("- name:")]
        assert "tests/integration/test_db_transactions.py" in guard


class TestAggregationDocs:
    def test_architecture_documents_compressed_aggregation(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "### Compressed-domain aggregation and statistics" in text
        for term in (
            "choose_aggregate_strategy", "TableStats", "mixed-radix",
            "GroupAccumulator", "table_stats", "live-vid",
            "presorted runs", "bench_aggregate.py",
        ):
            assert term in text, (
                f"ARCHITECTURE.md does not explain {term!r}"
            )

    def test_migration_doc_covers_the_table_stats_hint(self):
        text = (REPO / "docs" / "migration.md").read_text()
        assert "table_stats" in text
        assert "TableStats" in text

    def test_observability_documents_the_strategy_spans(self):
        text = (REPO / "docs" / "observability.md").read_text()
        for term in (
            "`aggregate`", "live-vid enumeration", "streaming dedup",
            "dictionary-order presorted runs", "materialize-and-sort",
        ):
            assert term in text, (
                f"observability.md does not explain {term!r}"
            )

    def test_aggregate_bench_is_wired(self):
        assert (REPO / "benchmarks" / "bench_aggregate.py").exists()
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "bench_aggregate.py" in ci

    def test_grouping_and_distinct_read_the_vid_arrays(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "first-set bits" not in text
        for term in ("columns by group slot", "array take", "lexsort"):
            assert term in text, (
                f"ARCHITECTURE.md does not explain {term!r}"
            )
        source = (REPO / "src" / "repro" / "exec" / "aggregate.py")
        assert "batch_first_set" not in source.read_text()

    def test_ci_leaves_the_docs_check_to_tier_1(self):
        """Tier-1 collects ``tests/`` on every Python version, this file
        included, so CI names no separate docs step."""
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "tests/unit/test_docs.py" not in ci


class TestOneCodecDocs:
    REMOVED = (
        "codec_name", "get_codec", "register_codec", "RLEVector", "_all_wah",
    )

    def test_removed_codec_names_appear_nowhere(self):
        """WAH is the only column codec; only the migration note may
        still name what was removed."""
        paths = [
            *(REPO / "src").rglob("*.py"),
            *(REPO / "docs").glob("*.md"),
            REPO / "README.md",
            *(REPO / "examples").glob("*.py"),
            *(REPO / "benchmarks").glob("bench_*.py"),
        ]
        migration = REPO / "docs" / "migration.md"
        for path in paths:
            if path == migration:
                continue
            text = path.read_text()
            for name in self.REMOVED:
                assert name not in text, f"{path} still mentions {name}"
        note = migration.read_text()
        assert "## Removed: per-column codecs" in note
        for name in self.REMOVED[:-1]:
            assert name in note, f"migration.md omits {name}"

    def test_codec_modules_and_ablations_are_gone(self):
        import repro
        import repro.bitmap
        import repro.bitmap.ops as ops

        for module in ("codecs.py", "rle.py"):
            assert not (REPO / "src" / "repro" / "bitmap" / module).exists()
        for script in ("bench_ablation_codec.py", "bench_ablation_rle.py"):
            assert not (REPO / "benchmarks" / script).exists()
        assert not hasattr(repro, "RLEVector")
        assert not hasattr(repro.bitmap, "RLEVector")
        assert not hasattr(ops, "intersection")

    def test_format_doc_names_one_codec(self):
        text = (REPO / "docs" / "delta-format.md").read_text()
        assert 'codec name (always "wah")' in text
        assert '"rle"' not in text and '"plain"' not in text

    def test_ci_runs_every_pytest_benchmark_script(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert (
            "python -m pytest benchmarks/bench_*.py --benchmark-disable -q"
            in ci
        )


class TestOneDeltaPredicatePath:
    REMOVED = (
        "index_threshold", "index_matches", "matching_live_indices",
        "build_index", "indexed_columns", "RANGE_PROBE_MAX_DISTINCT_SHARE",
        "DEFAULT_INDEX_THRESHOLD", "_live_cache",
    )

    def test_removed_index_names_appear_nowhere(self):
        """The delta's hash indexes are gone; only the migration note
        may still name what was removed."""
        paths = [
            *(REPO / "src").rglob("*.py"),
            *(REPO / "docs").glob("*.md"),
            REPO / "README.md",
            *(REPO / "examples").glob("*.py"),
            *(REPO / "benchmarks").glob("bench_*.py"),
        ]
        migration = REPO / "docs" / "migration.md"
        for path in paths:
            if path == migration:
                continue
            text = path.read_text()
            for name in self.REMOVED:
                assert name not in text, f"{path} still mentions {name}"
        note = migration.read_text()
        assert "## Removed: delta hash indexes" in note
        for name in self.REMOVED[:-1]:
            assert name in note, f"migration.md omits {name}"

    def test_ci_runs_each_write_gate_once_at_its_bound(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert ci.count("benchmarks/bench_session_api.py") == 1
        assert ci.count("benchmarks/bench_wal_commit.py") == 1
        assert "--rows 2000 --max-overhead 0.25" in ci


class TestOneWahEncoder:
    REMOVED = (
        "one_intervals", "from_runs", "group_offsets", "_encode_group_words",
        "_from_sparse_groups", "_from_segments", "_canonicalized",
        "WAHBitmap.select", "WAHBitmap.concat", ".runs()",
    )

    def test_removed_bitmap_names_appear_nowhere(self):
        """The single-bitmap structural operations and the extra
        encoders are gone; only the migration note may still name
        them."""
        from repro.bitmap import WAHBitmap

        paths = [
            *(REPO / "src").rglob("*.py"),
            *(REPO / "docs").glob("*.md"),
            REPO / "README.md",
            *(REPO / "examples").glob("*.py"),
            *(REPO / "benchmarks").glob("bench_*.py"),
        ]
        migration = REPO / "docs" / "migration.md"
        for path in paths:
            if path == migration:
                continue
            text = path.read_text()
            for name in self.REMOVED:
                assert name not in text, f"{path} still mentions {name}"
        for attribute in (
            "select", "concat", "runs", "one_intervals", "from_runs",
            "group_offsets", "_canonicalized", "_from_segments",
            "_from_sparse_groups",
        ):
            assert not hasattr(WAHBitmap, attribute), attribute
        note = migration.read_text()
        assert "## Removed: single-bitmap structural operations" in note
        for name in self.REMOVED[:-1]:
            assert name in note, f"migration.md omits {name}"

    def test_one_function_writes_fill_words(self):
        """``FILL_FLAG |`` — building a fill word — appears in the
        bitmap package only inside ``_encode_runs``."""
        import inspect

        import repro.bitmap.wah as wah

        encoder = inspect.getsource(wah._encode_runs)
        assert "FILL_FLAG |" in encoder
        for path in sorted((REPO / "src" / "repro" / "bitmap").rglob("*.py")):
            text = path.read_text()
            if path.name == "wah.py":
                text = text.replace(encoder, "")
            assert "FILL_FLAG |" not in text, path
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "`_encode_runs`" in text and "`batch_validate`" in text

    def test_ci_leaves_the_figure_smoke_to_tier_1(self):
        """``TestCli`` runs ``cods-figures --figure 3a`` on the real
        sweep, so CI names no separate figures step."""
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "benchmarks/run_figures.py" not in ci


class TestOneStatementFrontDoor:
    REMOVED = ("repro.db.router", "classify_statement", "__STAR__")

    def test_removed_router_names_appear_nowhere(self):
        """Statements are parsed once and routed by parsed type; only
        the migration note may still name the text classifier."""
        paths = [
            *(REPO / "src").rglob("*.py"),
            *(REPO / "docs").glob("*.md"),
            REPO / "README.md",
            *(REPO / "examples").glob("*.py"),
            *(REPO / "benchmarks").glob("bench_*.py"),
        ]
        migration = REPO / "docs" / "migration.md"
        for path in paths:
            if path == migration:
                continue
            text = path.read_text()
            for name in self.REMOVED:
                assert name not in text, f"{path} still mentions {name}"
        note = migration.read_text()
        assert "## Removed: the statement router" in note
        for name in self.REMOVED[:-1]:
            assert name in note, f"migration.md omits {name}"
        for command in ("sql INSERT INTO", "sql DELETE FROM"):
            assert command in note, f"migration.md omits {command!r}"

    def test_router_and_text_sniffing_are_gone(self):
        import repro.db

        assert not (REPO / "src" / "repro" / "db" / "router.py").exists()
        assert not hasattr(repro.db, "classify_statement")
        session = (REPO / "src" / "repro" / "db" / "session.py").read_text()
        assert "_DDL_KEYWORDS" not in session
        cli = (REPO / "src" / "repro" / "demo" / "cli.py").read_text()
        for name in ("_parse_row", "cmd_insert", "cmd_delete", "TokenStream"):
            assert name not in cli, f"the demo still has {name}"

    def test_architecture_routes_by_parsed_type(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        for term in (
            "parse_statement", "parsed node's type",
            "Commit publishes the overlays' effects",
        ):
            assert term in text, f"ARCHITECTURE.md does not explain {term!r}"

    def test_ci_runs_every_example(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "for example in examples/*.py; do" in ci


class TestPackedBitmapColumns:
    """A column's bitmaps are one word buffer the kernels read and
    write whole; a ``WAHBitmap`` is only a view handed out on request."""

    def test_no_bitmap_object_per_value_in_the_kernels(self):
        import inspect

        import repro.bitmap.batch as batch

        assert not hasattr(batch, "_bitmaps")
        assert not hasattr(batch, "_build_words")
        source = inspect.getsource(batch)
        views = inspect.getsource(batch.PackedBitmaps.__getitem__) + (
            inspect.getsource(batch.PackedBitmaps.__iter__)
        )
        assert source.count("WAHBitmap(") == views.count("WAHBitmap(") == 2
        assert "np.concatenate(arrays)" not in inspect.getsource(
            batch._column_positions
        )

    def test_word_directory_and_test_oracles_are_gone(self):
        """Extraction runs in column-wide position space with no word
        directory; the reference codec lives under ``tests/``."""
        import importlib.util

        import repro.bitmap.batch as batch
        from repro.storage import Dictionary

        assert not hasattr(batch, "WordDirectory")
        assert not hasattr(Dictionary, "decode_array")
        assert importlib.util.find_spec("repro.bitmap.reference") is None
        architecture = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "WordDirectory" not in architecture
        assert "column-wide position space" in architecture
        assert "counting order" in architecture
        migration = (REPO / "docs" / "migration.md").read_text()
        assert "## Removed: `WordDirectory`" in migration
        assert "tests/harness/wah_reference.py" in migration

    def test_architecture_describes_the_packed_column(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        for term in (
            "one word buffer", "`PackedBitmaps`", "read-only sequence",
            "`batch_from_intervals`", "`PackedBitmaps.take`",
        ):
            assert term in text, f"ARCHITECTURE.md omits {term!r}"
        migration = (REPO / "docs" / "migration.md").read_text()
        assert "## Changed: packed bitmap columns" in migration
