"""Guards over the source tree that no runtime test would notice."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``np.unique(ar, return_index, return_inverse, return_counts, axis)``
_AXIS_POSITION = 4


def _unique_calls_with_axis(tree) -> list[int]:
    """Lines of ``unique(...)`` / ``<module>.unique(...)`` calls given
    an ``axis``, by keyword or by position."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        if name == "unique" and (
            any(keyword.arg == "axis" for keyword in node.keywords)
            or len(node.args) > _AXIS_POSITION
        ):
            lines.append(node.lineno)
    return lines


def test_no_row_sorts_by_unique_axis():
    """``np.unique(matrix, axis=0)`` sorts rows as void records, far
    slower than grouping one combined code per row: rows are grouped by
    several vid columns only through ``repro.storage.codes``."""
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _unique_calls_with_axis(ast.parse(path.read_text()))
    ]
    assert not found, f"np.unique with an axis in src/: {found}"


def test_the_guard_sees_both_spellings():
    tree = ast.parse(
        "np.unique(m, axis=0)\n"
        "numpy.unique(m, False, True, False, 0)\n"
        "np.unique(codes, return_inverse=True)\n"
    )
    assert _unique_calls_with_axis(tree) == [1, 2]


# -- unused imports ----------------------------------------------------


def _annotation_names(node) -> set[str]:
    """Names inside a string annotation (a forward reference)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def _unused_imports(tree) -> list[str]:
    """Names a module imports and never reads (``__future__`` imports
    and names listed in ``__all__`` excepted)."""
    used: set[str] = set()
    imported: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((bound, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((alias.asname or alias.name, node.lineno))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant)
            }
    return [f"{name}:{line}" for name, line in imported if name not in used]


def test_no_unused_imports():
    """A module imports only names it uses.  Package ``__init__``
    modules re-export by importing, so they are not checked."""
    found = [
        f"{path.relative_to(SRC)} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert not found, f"unused imports in src/: {found}"


def test_the_import_guard_reads_annotations_and_all():
    tree = ast.parse(
        "import os\n"
        "import os.path as osp\n"
        "from a import B, C, D\n"
        "def f(x: 'B') -> None: ...\n"
        "__all__ = ['C']\n"
    )
    assert _unused_imports(tree) == ["os:1", "osp:2", "D:3"]


# -- definitions only tests call ---------------------------------------

ROOT = SRC.parent
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_BENCH_READER = (
    "reads a BENCH_*.json record back; leaves src/ with the evaluation "
    "code (ROADMAP item 21)"
)

#: Definitions that nothing in ``src/``, ``benchmarks/`` or
#: ``examples/`` names, each with the reason it stays.
TEST_ONLY_ALLOWED = {
    "aggregate_rows": "the strategy harness the aggregate tests compare "
    "the compressed and hash paths through",
    "save_csv": "the write half of load_csv's format, exported by repro",
    "reset_global_registry": "tests isolate the process-wide metrics "
    "registry with it",
    "EvolutionStatus.materialized_rows": "the work ledger's "
    "rows_materialized counter, to be wired into the operators "
    "(ROADMAP item 9)",
    "load_write_path_json": _BENCH_READER,
    "load_session_api_json": _BENCH_READER,
    "load_vectorized_scan_json": _BENCH_READER,
    "load_obs_overhead_json": _BENCH_READER,
    "load_wal_commit_json": _BENCH_READER,
    "load_server_json": _BENCH_READER,
    "load_aggregate_json": _BENCH_READER,
    "load_series_csv": "reads a figure series CSV back; leaves src/ with "
    "the evaluation code (ROADMAP item 21)",
}


def _definitions(tree):
    """Top-level functions and classes, and the methods of those
    classes, as ``(qualified name, node)``; dunder methods are called
    by the language, not by name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for sub in node.body:
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub


def _unnamed_lines(tree, is_init: bool) -> set[int]:
    """Lines whose words do not count as naming a definition: the
    ``__all__`` list, and a package ``__init__``'s re-exports."""
    lines: set[int] = set()
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        )
        is_export = is_init and isinstance(
            node, (ast.Import, ast.ImportFrom)
        )
        if is_all or is_export:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _unnamed_definitions() -> list[str]:
    """Definitions in ``src/`` whose name appears nowhere in ``src/``
    outside the definition itself, ``__all__`` and package re-exports,
    nor anywhere in ``benchmarks/`` or ``examples/``."""
    where: dict[str, list[tuple[Path, int]]] = {}
    trees = {}
    for base in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / base).rglob("*.py")):
            text = path.read_text()
            skip = set()
            if base == "src":
                trees[path] = tree = ast.parse(text)
                skip = _unnamed_lines(tree, path.name == "__init__.py")
            for number, line in enumerate(text.splitlines(), 1):
                if number not in skip:
                    for word in set(_WORD.findall(line)):
                        where.setdefault(word, []).append((path, number))
    found = []
    for path, tree in trees.items():
        for qualname, node in _definitions(tree):
            if not any(
                other != path or not node.lineno <= line <= node.end_lineno
                for other, line in where.get(node.name, ())
            ):
                found.append(qualname)
    return found


def test_src_defines_only_what_src_benchmarks_or_examples_name():
    """Code that only tests call is not part of the system: delete it
    with the tests whose only subject it is, or move a test oracle
    under ``tests/harness/``.  The allowlist names each exception and
    why it stays, and an entry leaves the list once it is named or
    gone."""
    found = _unnamed_definitions()
    unexpected = sorted(set(found) - set(TEST_ONLY_ALLOWED))
    assert not unexpected, f"definitions only tests name: {unexpected}"
    stale = sorted(set(TEST_ONLY_ALLOWED) - set(found))
    assert not stale, f"allowlisted definitions now named or gone: {stale}"


# -- uncached decodes ----------------------------------------------------

#: Modules of ``src/`` that may call ``decode_vids(``, each with the
#: reason it pays the uncached decode instead of ``BitmapColumn.vids``.
DECODE_ALLOWED = {
    "repro/storage/column.py": "defines it; vids() fills its slot from "
    "it once, and to_values() is the baselines' full decompression",
    "repro/storage/codes.py": "table_codes serves FD checks, which "
    "count each decode the paper charges them",
    "repro/fd/discovery.py": "FD checks scan each right-hand column as "
    "the paper's algorithm does, counted per check",
    "repro/core/merge_kfk.py": "MERGE's sequential pass (paper pass 2), "
    "counted in columns_decompressed",
    "repro/core/merge_general.py": "MERGE's sequential pass (paper "
    "pass 2), counted in columns_decompressed",
}


def _calls_decode_vids(tree) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "decode_vids"
        for node in ast.walk(tree)
    )


def test_only_the_allowlist_pays_an_uncached_decode():
    """Readers take a column's vids through ``BitmapColumn.vids``
    (kept on the column, decoded at most once); ``decode_vids`` stays
    the uncached decode that SMOs and FD checks pay and count.  An
    entry leaves the list once its module no longer calls it."""
    found = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if _calls_decode_vids(ast.parse(path.read_text()))
    }
    assert sorted(found - set(DECODE_ALLOWED)) == []
    assert sorted(set(DECODE_ALLOWED) - found) == []


def test_the_decode_guard_sees_method_calls_only():
    assert _calls_decode_vids(ast.parse("column.decode_vids()"))
    assert not _calls_decode_vids(ast.parse("batch_decode_vids(b, n)"))
