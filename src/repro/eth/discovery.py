"""Kademlia-style peer discovery (the *platform overlay*).

Each node keeps a routing table of up to 272 **inactive** neighbours — the
Geth default the paper quotes — organized into XOR-distance buckets. The
table is what FIND_NODE exposes, and what the W2 baseline
(:mod:`repro.baselines.findnode`) crawls; it is deliberately much larger
than, and only loosely correlated with, the ~50 *active* neighbours that
TopoShot measures.

The discovery substrate is also what the Ethereum-like topology generator
(:mod:`repro.netgen.ethereum`) uses: active links are dialled out of
routing-table candidates, reproducing the promote-from-buffer behaviour
discussed in Section 6.2.2.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

DEFAULT_TABLE_CAPACITY = 272
BUCKET_COUNT = 16


def kademlia_id(node_id: str) -> int:
    """Stable 64-bit Kademlia identifier for a node id string."""
    digest = hashlib.blake2b(node_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class KademliaIds(dict):
    """node id -> Kademlia id, each hashed on first look-up.

    :func:`build_routing_tables` shares one among a build's tables (fills
    bucket the same names many times over) and drops it with them; a
    process-wide cache would keep every name any world was ever built with.
    """

    def __missing__(self, node_id: str) -> int:
        value = self[node_id] = kademlia_id(node_id)
        return value


def xor_distance(a: str, b: str) -> int:
    return kademlia_id(a) ^ kademlia_id(b)


def bucket_index(owner: str, other: str) -> int:
    """Map a peer into one of ``BUCKET_COUNT`` XOR-distance buckets.

    Real Kademlia buckets by log-distance, which concentrates almost all
    peers in the top buckets; Geth compensates with 17 buckets x 16 slots.
    We spread by the distance's low bits instead (a uniformized variant) so
    a small simulated table keeps the bucket/capacity structure without the
    extreme top-bucket skew — the property that matters downstream is the
    bounded, owner-specific candidate subset, not the exact skew.
    """
    distance = xor_distance(owner, other)
    return distance % BUCKET_COUNT


@dataclass
class RoutingTable:
    """A node's DHT routing table of inactive neighbours.

    ``ids`` resolves Kademlia ids. The owner's id and the per-bucket
    capacity are fixed at construction, so bucketing a candidate
    (:func:`bucket_index`) is one XOR.
    """

    owner_id: str
    capacity: int = DEFAULT_TABLE_CAPACITY
    buckets: Dict[int, List[str]] = field(default_factory=dict)
    ids: Dict[str, int] = field(default_factory=KademliaIds, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.owner_kid = self.ids[self.owner_id]
        self.bucket_capacity = max(1, self.capacity // BUCKET_COUNT)

    def entries(self) -> List[str]:
        """All table entries, bucket order."""
        out: List[str] = []
        for index in sorted(self.buckets):
            out.extend(self.buckets[index])
        return out

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.buckets.values())

    def __contains__(self, node_id: str) -> bool:
        index = (self.ids[node_id] ^ self.owner_kid) % BUCKET_COUNT
        return node_id in self.buckets.get(index, [])

    def add(self, node_id: str) -> bool:
        """Insert ``node_id``; returns False when its bucket is full."""
        return self._take((node_id,), len(self) + 1) == 1

    def _take(self, candidates: Iterable[str], target: int) -> int:
        """Insert ``candidates`` in order until the table holds ``target``
        entries, passing over the owner, entries and full buckets.

        Returns the number of entries inserted.
        """
        size = start = len(self)
        if size >= target:
            return 0
        owner, owner_kid, ids = self.owner_id, self.owner_kid, self.ids
        buckets, bucket_capacity = self.buckets, self.bucket_capacity
        for candidate in candidates:
            if candidate == owner:
                continue
            index = (ids[candidate] ^ owner_kid) % BUCKET_COUNT
            bucket = buckets.get(index)
            if bucket is None:
                buckets[index] = [candidate]
            elif len(bucket) >= bucket_capacity or candidate in bucket:
                continue
            else:
                bucket.append(candidate)
            size += 1
            if size >= target:
                break
        return size - start

    def fill_from(
        self,
        population: Iterable[str],
        rng: random.Random,
        target_size: Optional[int] = None,
    ) -> int:
        """Populate the table from a shuffled candidate population.

        Returns the number of entries actually inserted.
        """
        target = self.capacity if target_size is None else target_size
        candidates = [nid for nid in population if nid != self.owner_id]
        rng.shuffle(candidates)
        return self._take(candidates, target)

    def fill_from_sampled(
        self,
        population: List[str],
        rng: random.Random,
        target_size: Optional[int] = None,
    ) -> int:
        """Populate the table from a bounded random sample of ``population``.

        :meth:`fill_from` copies and shuffles the whole population per
        table — O(N) each, O(N^2) across a network build, which is what
        capped generation near 5k nodes. Sampling ``3*target + 8``
        candidates (oversampled because bucket caps reject some) keeps the
        per-table cost independent of N. Tables can land slightly under
        ``target`` when many draws share a bucket; the active-link dialling
        loop tolerates that.

        Returns the number of entries actually inserted.
        """
        target = self.capacity if target_size is None else target_size
        if len(self) >= target:
            return 0
        k = min(len(population), 3 * target + 8)
        return self._take(rng.sample(population, k), target)

    def closest(self, target: str, count: int = 16) -> List[str]:
        """The ``count`` entries closest to ``target`` in XOR distance."""
        ids = self.ids
        target_kid = ids[target]
        return sorted(self.entries(), key=lambda nid: ids[nid] ^ target_kid)[:count]


def build_routing_tables(
    node_ids: List[str],
    rng: random.Random,
    capacity: int = DEFAULT_TABLE_CAPACITY,
    fast: bool = False,
) -> Dict[str, RoutingTable]:
    """Build a routing table for every node from the global population.

    ``fast=True`` switches to :meth:`RoutingTable.fill_from_sampled` —
    near-linear in the population instead of quadratic, at the cost of a
    *different* (equally seed-deterministic) draw sequence. Keep the
    default for golden/fingerprinted topologies.
    """
    ids = KademliaIds()
    tables: Dict[str, RoutingTable] = {}
    for node_id in node_ids:
        table = RoutingTable(owner_id=node_id, capacity=capacity, ids=ids)
        if fast:
            table.fill_from_sampled(node_ids, rng)
        else:
            table.fill_from(node_ids, rng)
        tables[node_id] = table
    return tables
