"""String↔integer node-id interning for the struct-of-arrays core.

The public simulation API speaks node-id *strings* (``"testnet-0042"``,
``"supernode-M"``); the hot state underneath — adjacency, the delivery
path, per-node arrays — is indexed by dense integers. :class:`IdMap` is
the boundary between the two: it assigns each string the next free index
the first time it is interned and never forgets or reorders an entry, so

* the mapping is a **bijection** between the interned strings and
  ``range(len(idmap))``;
* indices are **stable for a generation seed**: interning happens in node
  creation order, which ``repro.netgen`` derives deterministically from
  the spec and seed, so the same ``(spec, seed)`` yields the same
  ``str -> int`` table in every process;
* a snapshot/restore cycle cannot disturb it — restores never add or
  remove nodes (``Network.restore`` enforces an identical node set), and
  :meth:`capture` exists so tests can assert the bijection survived.

The map deliberately exposes its two internal containers (``names`` list,
``index`` dict) as read-only-by-convention attributes: the transport binds
them once and does raw ``list[i]`` / ``dict[s]`` operations per message,
which is the whole point of interning.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple


class IdMap:
    """Append-only intern table mapping node-id strings to dense ints."""

    __slots__ = ("names", "index")

    def __init__(self) -> None:
        #: Interned strings, position == index. Owned by the map; callers
        #: may read (and bind) but never mutate.
        self.names: List[str] = []
        #: Inverse of :attr:`names`.
        self.index: Dict[str, int] = {}

    def intern(self, name: str) -> int:
        """Return ``name``'s index, assigning the next free one if new."""
        idx = self.index.get(name)
        if idx is None:
            idx = len(self.names)
            self.index[name] = idx
            self.names.append(name)
        return idx

    def get(self, name: str, default: int = -1) -> int:
        return self.index.get(name, default)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def capture(self) -> Tuple[str, ...]:
        """Frozen copy of the table, index order (for bijection checks)."""
        return tuple(self.names)

    def check_bijection(self) -> None:
        """Assert internal consistency (tests/invariants only)."""
        if len(self.names) != len(self.index):
            raise AssertionError(
                f"idmap desync: {len(self.names)} names vs "
                f"{len(self.index)} index entries"
            )
        for idx, name in enumerate(self.names):
            if self.index.get(name) != idx:
                raise AssertionError(
                    f"idmap desync at {idx}: {name!r} maps to "
                    f"{self.index.get(name)!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IdMap({len(self.names)} ids)"
