"""Block production.

A :class:`Miner` wraps one node: at (Poisson) block intervals it fills a
block with the highest-paying pending transactions from its own mempool —
the price-priority rule the non-interference proof of Appendix C relies on —
seals it on the canonical chain, and gossips it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.eth.chain import Block, Chain
from repro.eth.node import Node
from repro.eth.transaction import Transaction
from repro.sim.process import PeriodicProcess


class Miner:
    """Turns a node into a block producer.

    Parameters
    ----------
    node:
        The node whose mempool feeds blocks.
    chain:
        Canonical chain to append to (usually ``network.chain``).
    block_interval:
        Mean seconds between blocks from this miner.
    min_gas_price:
        Inclusion floor in wei/gas; transactions bidding below it are left
        in the pool (miners on real networks ignore dust-priced
        transactions — this is what lets a low ``Y`` keep ``txC`` pending).
    poisson:
        Draw exponential inter-block gaps (default), mimicking PoW.
    """

    def __init__(
        self,
        node: Node,
        chain: Chain,
        block_interval: float = 15.0,
        min_gas_price: int = 0,
        poisson: bool = True,
    ) -> None:
        self.node = node
        self.chain = chain
        self.min_gas_price = min_gas_price
        self._process = PeriodicProcess(
            node.sim,
            interval=block_interval,
            action=self.mine_block,
            poisson=poisson,
            rng_name=f"miner:{node.id}",
            label=f"mine:{node.id}",
        )

    def start(self, initial_delay: Optional[float] = None) -> None:
        self._process.start(initial_delay)

    def stop(self) -> None:
        self._process.stop()

    @property
    def running(self) -> bool:
        return self._process.running

    def build_block_transactions(self) -> List[Transaction]:
        """Select transactions: best-paying first, up to the block gas limit."""
        base_fee = self.chain.base_fee
        selected: List[Transaction] = []
        gas_remaining = self.chain.gas_limit
        for tx in self.node.mempool.pending_by_price_desc():
            if tx.effective_price(base_fee) < self.min_gas_price:
                continue
            if tx.gas_limit > gas_remaining:
                continue
            if self.chain.is_included(tx.hash):
                continue
            if self.node.config.policy.enforce_base_fee and tx.bid_price(
                base_fee
            ) < base_fee:
                continue
            selected.append(tx)
            gas_remaining -= tx.gas_limit
        return selected

    def mine_block(self) -> Block:
        """Seal the next block and gossip it to the network."""
        txs = self.build_block_transactions()
        block = self.chain.append(self.node.id, self.node.sim.now, txs)
        # The miner learns its own block locally, then gossips it.
        self.node.receive_block(None, block)
        return block
