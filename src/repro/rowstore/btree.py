"""A B+-tree for row-store secondary indexes.

The "C+I" series of the paper's Figure 3 is a commercial row store with
indexes: after query-level evolution loads the result tables, indexes
must be rebuilt from scratch — a cost CODS avoids entirely.  This tree
is that index: keys map to lists of row ids, leaves are chained for
in-order iteration, and :meth:`bulk_load` builds a packed tree from sorted
pairs (what a CREATE INDEX does).
"""

from __future__ import annotations

from repro.errors import StorageError

DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.keys: list = []
        self.children: list = []   # internal nodes
        self.values: list = []     # leaves: list of row-id lists
        self.next_leaf: "_Node | None" = None


class BPlusTree:
    """Maps orderable keys to lists of integer row ids."""

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 4:
            raise StorageError("B+-tree order must be at least 4")
        self.order = order
        self._root = _Node(is_leaf=True)
        self._size = 0  # number of (key, rowid) pairs

    def __len__(self) -> int:
        return self._size

    # -- search ---------------------------------------------------------

    def _find_leaf(self, key) -> _Node:
        node = self._root
        while not node.is_leaf:
            index = self._child_index(node, key)
            node = node.children[index]
        return node

    @staticmethod
    def _child_index(node: _Node, key) -> int:
        lo, hi = 0, len(node.keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if key < node.keys[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @staticmethod
    def _leaf_index(node: _Node, key) -> int:
        lo, hi = 0, len(node.keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if node.keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def search(self, key) -> list[int]:
        """Row ids stored under ``key`` (empty list if absent)."""
        leaf = self._find_leaf(key)
        index = self._leaf_index(leaf, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.values[index])
        return []

    def items(self):
        """Yield ``(key, row_ids)`` in key order."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next_leaf

    def keys(self) -> list:
        return [key for key, _ in self.items()]

    @property
    def height(self) -> int:
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    # -- insertion ---------------------------------------------------------

    def insert(self, key, row_id: int) -> None:
        """Insert one (key, row id) pair."""
        split = self._insert_into(self._root, key, row_id)
        if split is not None:
            middle_key, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [middle_key]
            new_root.children = [self._root, right]
            self._root = new_root
        self._size += 1

    def _insert_into(self, node: _Node, key, row_id: int):
        if node.is_leaf:
            index = self._leaf_index(node, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index].append(row_id)
                return None
            node.keys.insert(index, key)
            node.values.insert(index, [row_id])
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        index = self._child_index(node, key)
        split = self._insert_into(node.children[index], key, row_id)
        if split is None:
            return None
        middle_key, right = split
        node.keys.insert(index, middle_key)
        node.children.insert(index + 1, right)
        if len(node.keys) > self.order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Node):
        middle = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[middle:]
        right.values = node.values[middle:]
        node.keys = node.keys[:middle]
        node.values = node.values[:middle]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _Node):
        middle = len(node.keys) // 2
        middle_key = node.keys[middle]
        right = _Node(is_leaf=False)
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return middle_key, right

    # -- bulk load ------------------------------------------------------------

    @classmethod
    def bulk_load(cls, pairs, order: int = DEFAULT_ORDER) -> "BPlusTree":
        """Build a packed tree from (key, row_id) pairs (any order).

        This is what CREATE INDEX does after a query-level evolution:
        sort all pairs, pack leaves, then build internal levels.
        """
        tree = cls(order)
        pairs = sorted(pairs, key=lambda kv: kv[0])
        if not pairs:
            return tree

        # Group duplicate keys.
        keys: list = []
        values: list = []
        for key, row_id in pairs:
            if keys and keys[-1] == key:
                values[-1].append(row_id)
            else:
                keys.append(key)
                values.append([row_id])
        tree._size = len(pairs)

        # Pack leaves at ~order fill.
        fill = max(order // 2, 2)
        leaves: list[_Node] = []
        for start in range(0, len(keys), fill):
            leaf = _Node(is_leaf=True)
            leaf.keys = keys[start : start + fill]
            leaf.values = values[start : start + fill]
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)

        # Build internal levels bottom-up.
        level: list[_Node] = leaves
        while len(level) > 1:
            parents: list[_Node] = []
            for start in range(0, len(level), fill):
                group = level[start : start + fill]
                parent = _Node(is_leaf=False)
                parent.children = group
                parent.keys = [
                    cls._leftmost_key(child) for child in group[1:]
                ]
                parents.append(parent)
            level = parents
        tree._root = level[0]
        return tree

    @staticmethod
    def _leftmost_key(node: _Node):
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]
