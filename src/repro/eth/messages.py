"""DevP2P-style wire messages exchanged between simulated nodes.

Only the eth-protocol subset that matters for transaction and block
propagation is modeled. ``Transactions`` is the *push* path; the
``NewPooledTransactionHashes`` / ``GetPooledTransactions`` /
``PooledTransactions`` triple is the *announcement* path introduced by
Geth >= 1.9.11 (Section 2 of the paper). ``FindNode``/``Neighbors`` belong
to the discovery protocol (RLPx) and expose *inactive* neighbours only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.eth.chain import Block
    from repro.eth.transaction import Transaction


@dataclass(frozen=True)
class Message:
    """Base class for all wire messages."""

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Transactions(Message):
    """Direct transaction push (eth/6x ``Transactions`` packet)."""

    txs: Tuple["Transaction", ...]


@dataclass(frozen=True)
class NewPooledTransactionHashes(Message):
    """Announcement of pooled transactions by hash."""

    hashes: Tuple[str, ...]


@dataclass(frozen=True)
class GetPooledTransactions(Message):
    """Request for announced transactions."""

    hashes: Tuple[str, ...]


@dataclass(frozen=True)
class PooledTransactions(Message):
    """Response carrying requested transactions."""

    txs: Tuple["Transaction", ...]


@dataclass(frozen=True)
class NewBlock(Message):
    """Full-block propagation."""

    block: "Block"


@dataclass(frozen=True)
class Status(Message):
    """Handshake data: the client version string.

    The paper's mainnet study matches ``web3_clientVersion`` strings against
    handshake versions to map service frontends to backend nodes (§6.3).
    """

    client_version: str


@dataclass(frozen=True)
class FindNode(Message):
    """RLPx discovery query for routing-table entries (inactive neighbours).

    It names no lookup target: the queried node answers with its whole
    table."""


@dataclass(frozen=True)
class Neighbors(Message):
    """Discovery response: routing-table entries of the queried node."""

    node_ids: Tuple[str, ...] = field(default_factory=tuple)
