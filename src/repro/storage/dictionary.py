"""Value dictionaries: the value <-> value-id mapping of a bitmap column.

A bitmap-encoded column keeps one compressed bitvector per *distinct*
value; the dictionary assigns each distinct value a dense integer id
(vid) in first-seen order.  Bulk encoding is vectorized through
``np.unique`` so loading large columns does not pay a per-row Python
dictionary lookup.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.errors import StorageError


class Dictionary:
    """Bidirectional mapping between values and dense integer ids."""

    __slots__ = ("_values", "_ids")

    def __init__(self, values=()):
        self._values: list = []
        self._ids: dict = {}
        self._add_all(values)

    # -- construction -------------------------------------------------------

    @classmethod
    def _of_distinct(cls, values: list) -> "Dictionary":
        """A dictionary over ``values``, already distinct, built in one
        step rather than by one :meth:`add` per value."""
        dictionary = cls()
        dictionary._values = values
        dictionary._ids = dict(zip(values, range(len(values))))
        return dictionary

    def copy(self) -> "Dictionary":
        """An independent dictionary with the same values and vids."""
        return Dictionary._of_distinct(list(self._values))

    def subset(self, vids) -> "Dictionary":
        """The values under ``vids`` (distinct), renumbered ``0, 1, …``
        in that order."""
        values = self._values
        return Dictionary._of_distinct([values[vid] for vid in vids])

    def extended(self, other: "Dictionary") -> tuple["Dictionary", np.ndarray]:
        """A new dictionary: these values, then ``other``'s values that
        are new, in ``other``'s order; and the vid there of each of
        ``other``'s values.  One call, where a loop of :meth:`add`
        would pay a Python call per value."""
        extended = self.copy()
        extended._add_all(other._values)
        return extended, extended.lookup(other._values)

    def _add_all(self, values) -> None:
        """Insert the new ones of ``values`` in first-seen order, in one
        step: the vids a loop of :meth:`add` would give them."""
        ids = self._ids
        fresh = [value for value in dict.fromkeys(values) if value not in ids]
        count = len(self._values)
        ids.update(zip(fresh, range(count, count + len(fresh))))
        self._values += fresh

    def add(self, value) -> int:
        """Insert ``value`` if new; return its vid."""
        vid = self._ids.get(value)
        if vid is None:
            vid = len(self._values)
            self._values.append(value)
            self._ids[value] = vid
        return vid

    def encode(self, values) -> np.ndarray:
        """Vectorized bulk encode: map each value to its vid, adding new
        values in first-occurrence order.  Returns an int64 array."""
        values = list(values) if not isinstance(values, np.ndarray) else values
        n = len(values)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        try:
            # np.unique needs a homogeneous, orderable array; fall back to
            # the Python path for mixed/unorderable content (e.g. None).
            typed = np.asarray(values)
            if typed.dtype == object:
                raise TypeError
            if typed.dtype.kind == "U" and typed is not values and int(
                np.char.str_len(typed).sum()
            ) != sum(map(len, values)):
                # NumPy drops trailing NULs from fixed-width strings;
                # such values keep their identity on the Python path.
                raise TypeError
            uniques, inverse = np.unique(typed, return_inverse=True)
        except TypeError:
            self._add_all(values)
            return self.lookup(values)
        # Map the sorted uniques to vids, registering first occurrences in
        # row order so ids stay deterministic under streaming loads.
        first_rows = np.full(len(uniques), n, dtype=np.int64)
        np.minimum.at(first_rows, inverse, np.arange(n, dtype=np.int64))
        order = np.argsort(first_rows, kind="stable")
        firsts = uniques[order].tolist()
        self._add_all(firsts)
        vid_of_unique = np.empty(len(uniques), dtype=np.int64)
        vid_of_unique[order] = self.lookup(firsts)
        return vid_of_unique[inverse]

    # -- lookups ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value) -> bool:
        return value in self._ids

    def vid(self, value) -> int:
        """Vid of ``value``; raises if absent."""
        try:
            return self._ids[value]
        except KeyError:
            raise StorageError(f"value {value!r} not in dictionary") from None

    def vid_or_none(self, value):
        return self._ids.get(value)

    def lookup(self, values) -> np.ndarray:
        """The vid of each of ``values``, ``-1`` where absent: one
        vectorized dictionary probe."""
        return np.fromiter(
            map(self._ids.get, values, repeat(-1)), dtype=np.int64,
            count=len(values),
        )

    def value(self, vid: int):
        """Value stored under ``vid``."""
        if vid < 0 or vid >= len(self._values):
            raise StorageError(f"vid {vid} out of range")
        return self._values[vid]

    def values(self) -> list:
        """All values in vid order (copy)."""
        return list(self._values)

    def values_at(self, vids) -> list:
        """The values under ``vids``, in that order: ``O(len(vids))``."""
        return [self._values[vid] for vid in vids]

    def decode(self, vids: np.ndarray) -> list:
        """Map an array of vids back to values: one take from the
        values as an object array."""
        table = np.fromiter(self._values, dtype=object, count=len(self))
        return table[vids].tolist()

    def __iter__(self):
        return iter(self._values)

    def __repr__(self) -> str:
        return f"Dictionary({len(self)} values)"
