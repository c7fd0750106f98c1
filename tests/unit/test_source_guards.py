"""Guards over the source tree that no runtime test would notice."""

import ast
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
