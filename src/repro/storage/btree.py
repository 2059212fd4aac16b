"""An in-memory B+tree.

The row store's secondary indexes are built on it (SQL Server keeps delta
stores and delete buffers as B-trees too; the delta stores here keep
the leaf level as column buffers, see deltastore.py). Keys are any totally
ordered Python values (ints, strings, tuples); values are arbitrary
payloads. Leaves are chained for range scans. Deletion rebalances by
borrowing from or merging with siblings.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from ..errors import StorageError

_DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: list[Any] = []


class _Leaf(_Node):
    __slots__ = ("values", "next")

    def __init__(self) -> None:
        super().__init__()
        self.values: list[Any] = []
        self.next: _Leaf | None = None


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        # len(children) == len(keys) + 1; keys[i] is the smallest key in
        # the subtree children[i + 1].
        self.children: list[_Node] = []


class BPlusTree:
    """A B+tree mapping unique keys to values."""

    def __init__(self, order: int = _DEFAULT_ORDER) -> None:
        if order < 4:
            raise StorageError(f"B+tree order must be >= 4, got {order}")
        self._order = order
        self._root: _Node = _Leaf()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        assert isinstance(node, _Leaf)
        return node

    def get(self, key: Any, default: Any = None) -> Any:
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    # ------------------------------------------------------------------ #
    # Insert
    # ------------------------------------------------------------------ #
    def insert(self, key: Any, value: Any) -> None:
        """Insert ``key``; replaces the value if the key already exists."""
        result = self._insert_into(self._root, key, value)
        if result is not None:
            split_key, right = result
            new_root = _Internal()
            new_root.keys = [split_key]
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert_into(self, node: _Node, key: Any, value: Any):
        """Insert under ``node``; returns (split_key, new_right) on split."""
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = value
                return None
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self._size += 1
            if len(node.keys) <= self._order:
                return None
            return self._split_leaf(node)
        assert isinstance(node, _Internal)
        child_index = bisect.bisect_right(node.keys, key)
        result = self._insert_into(node.children[child_index], key, value)
        if result is None:
            return None
        split_key, right = result
        node.keys.insert(child_index, split_key)
        node.children.insert(child_index + 1, right)
        if len(node.children) <= self._order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        split_key = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return split_key, right

    # ------------------------------------------------------------------ #
    # Delete
    # ------------------------------------------------------------------ #
    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns ``False`` if it was absent."""
        removed = self._delete_from(self._root, key)
        if removed:
            # Collapse a root that has become a single-child internal node.
            if isinstance(self._root, _Internal) and len(self._root.children) == 1:
                self._root = self._root.children[0]
        return removed

    def _min_fill(self) -> int:
        return self._order // 2

    def _delete_from(self, node: _Node, key: Any) -> bool:
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                return False
            node.keys.pop(index)
            node.values.pop(index)
            self._size -= 1
            return True
        assert isinstance(node, _Internal)
        child_index = bisect.bisect_right(node.keys, key)
        child = node.children[child_index]
        removed = self._delete_from(child, key)
        if removed:
            self._rebalance(node, child_index)
        return removed

    def _node_fill(self, node: _Node) -> int:
        if isinstance(node, _Leaf):
            return len(node.keys)
        return len(node.children)

    def _rebalance(self, parent: _Internal, child_index: int) -> None:
        child = parent.children[child_index]
        if self._node_fill(child) >= self._min_fill():
            return
        left = parent.children[child_index - 1] if child_index > 0 else None
        right = (
            parent.children[child_index + 1]
            if child_index + 1 < len(parent.children)
            else None
        )
        if left is not None and self._node_fill(left) > self._min_fill():
            self._borrow_from_left(parent, child_index)
        elif right is not None and self._node_fill(right) > self._min_fill():
            self._borrow_from_right(parent, child_index)
        elif left is not None:
            self._merge(parent, child_index - 1)
        elif right is not None:
            self._merge(parent, child_index)

    def _borrow_from_left(self, parent: _Internal, child_index: int) -> None:
        child = parent.children[child_index]
        left = parent.children[child_index - 1]
        if isinstance(child, _Leaf):
            assert isinstance(left, _Leaf)
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[child_index - 1] = child.keys[0]
        else:
            assert isinstance(left, _Internal) and isinstance(child, _Internal)
            child.keys.insert(0, parent.keys[child_index - 1])
            parent.keys[child_index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(self, parent: _Internal, child_index: int) -> None:
        child = parent.children[child_index]
        right = parent.children[child_index + 1]
        if isinstance(child, _Leaf):
            assert isinstance(right, _Leaf)
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[child_index] = right.keys[0]
        else:
            assert isinstance(right, _Internal) and isinstance(child, _Internal)
            child.keys.append(parent.keys[child_index])
            parent.keys[child_index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(self, parent: _Internal, left_index: int) -> None:
        """Merge children[left_index + 1] into children[left_index]."""
        left = parent.children[left_index]
        right = parent.children[left_index + 1]
        if isinstance(left, _Leaf):
            assert isinstance(right, _Leaf)
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
        else:
            assert isinstance(left, _Internal) and isinstance(right, _Internal)
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)

    # ------------------------------------------------------------------ #
    # Scans
    # ------------------------------------------------------------------ #
    def items(self) -> Iterator[tuple[Any, Any]]:
        """All (key, value) pairs in key order."""
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        leaf: _Leaf | None = node  # type: ignore[assignment]
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    def range(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """(key, value) pairs with ``low <op> key <op> high`` in key order."""
        if low is None:
            node = self._root
            while isinstance(node, _Internal):
                node = node.children[0]
            leaf: _Leaf = node  # type: ignore[assignment]
            index = 0
        else:
            leaf = self._find_leaf(low)
            index = (
                bisect.bisect_left(leaf.keys, low)
                if low_inclusive
                else bisect.bisect_right(leaf.keys, low)
            )
        current: _Leaf | None = leaf
        while current is not None:
            while index < len(current.keys):
                key = current.keys[index]
                if high is not None:
                    if high_inclusive and key > high:
                        return
                    if not high_inclusive and key >= high:
                        return
                yield key, current.values[index]
                index += 1
            current = current.next
            index = 0

    def min_key(self) -> Any:
        """Smallest key, or ``None`` when empty."""
        for key, _value in self.items():
            return key
        return None

    def depth(self) -> int:
        """Tree height (1 = just a leaf); exposed for tests."""
        node = self._root
        depth = 1
        while isinstance(node, _Internal):
            node = node.children[0]
            depth += 1
        return depth

    def check_invariants(self) -> None:
        """Validate structural invariants; raises StorageError on violation.

        Used by property-based tests: key ordering within nodes, separator
        correctness, leaf chaining, and size accounting.
        """
        count = self._check_node(self._root, None, None)
        if count != self._size:
            raise StorageError(f"size {self._size} but {count} keys reachable")
        chained = sum(1 for _ in self.items())
        if chained != self._size:
            raise StorageError(f"leaf chain yields {chained} keys, size is {self._size}")

    def _check_node(self, node: _Node, low: Any, high: Any) -> int:
        keys = node.keys
        for left_key, right_key in zip(keys, keys[1:]):
            if not left_key < right_key:
                raise StorageError(f"keys out of order: {left_key!r} >= {right_key!r}")
        for key in keys:
            if low is not None and key < low:
                raise StorageError(f"key {key!r} below subtree bound {low!r}")
            if high is not None and key >= high:
                raise StorageError(f"key {key!r} at or above subtree bound {high!r}")
        if isinstance(node, _Leaf):
            if len(node.values) != len(keys):
                raise StorageError("leaf keys/values length mismatch")
            return len(keys)
        assert isinstance(node, _Internal)
        if len(node.children) != len(keys) + 1:
            raise StorageError("internal fanout mismatch")
        total = 0
        bounds = [low, *keys, high]
        for index, child in enumerate(node.children):
            total += self._check_node(child, bounds[index], bounds[index + 1])
        return total
