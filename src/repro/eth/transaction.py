"""Ethereum transactions: legacy (gas-price) and EIP-1559 (dynamic-fee).

Prices are expressed in **wei per gas** throughout; helpers convert from
Gwei because the paper quotes Gwei (1 Gwei = 1e9 wei). Transaction identity
(the "hash") is derived deterministically from the signing fields, so a
replacement transaction (same sender+nonce, higher price) has a different
hash, exactly as on the real network.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TransactionError
from repro.eth.account import Account

GWEI = 10**9
INTRINSIC_GAS = 21_000  # plain value transfer


def gwei(amount: float) -> int:
    """Convert a Gwei amount (possibly fractional) to integer wei."""
    return int(round(amount * GWEI))


def to_gwei(wei: int) -> float:
    """Convert wei to Gwei for display."""
    return wei / GWEI


@dataclass(frozen=True)
class Transaction:
    """A legacy Ethereum transaction (pre-EIP-1559 fee semantics).

    ``gas_price`` is wei/gas. ``sender`` and ``to`` are addresses.
    Immutable; the hash is computed once from the identity fields.
    """

    sender: str
    nonce: int
    gas_price: int
    gas_limit: int = INTRINSIC_GAS
    to: str = "0x" + "00" * 20
    value: int = 0
    data_size: int = 0
    hash: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.nonce < 0:
            raise TransactionError("nonce must be non-negative")
        if self.gas_price < 0:
            raise TransactionError("gas price must be non-negative")
        if self.gas_limit < INTRINSIC_GAS:
            raise TransactionError(
                f"gas limit {self.gas_limit} below intrinsic gas {INTRINSIC_GAS}"
            )
        if not self.hash:
            object.__setattr__(self, "hash", self._compute_hash())

    def _compute_hash(self) -> str:
        material = (
            f"{self.sender}|{self.nonce}|{self.gas_price}|{self.gas_limit}"
            f"|{self.to}|{self.value}|{self.data_size}"
        )
        return "0x" + hashlib.blake2b(material.encode(), digest_size=32).hexdigest()

    # ------------------------------------------------------------------
    # Fee API shared with DynamicFeeTransaction
    # ------------------------------------------------------------------
    def bid_price(self, base_fee: int = 0) -> int:
        """Price used for mempool ordering/admission decisions (wei/gas).

        For legacy transactions this is simply the gas price; Appendix E
        notes EIP-1559 pools use the max fee, handled by the subclass.
        """
        return self.gas_price

    def effective_price(self, base_fee: int = 0) -> int:
        """Price actually paid per gas when mined."""
        return self.gas_price

    def is_underpriced_for_base_fee(self, base_fee: int) -> bool:
        """Legacy transactions are droppable when price < base fee (post-1559)."""
        return self.gas_price < base_fee

    def fee_paid_wei(self, gas_used: Optional[int] = None, base_fee: int = 0) -> int:
        """Fee paid when included, defaulting to intrinsic gas usage."""
        used = INTRINSIC_GAS if gas_used is None else gas_used
        return used * self.effective_price(base_fee)

    def short_hash(self) -> str:
        return self.hash[:10]

    def __repr__(self) -> str:
        return (
            f"Tx({self.short_hash()}, from={self.sender[:8]}.., nonce={self.nonce}, "
            f"price={to_gwei(self.gas_price):.3f}gwei)"
        )


@dataclass(frozen=True)
class DynamicFeeTransaction(Transaction):
    """An EIP-1559 transaction with ``max_fee`` and ``priority_fee`` (wei/gas).

    ``gas_price`` is kept equal to ``max_fee`` so legacy code paths that sort
    by ``gas_price`` behave as Appendix E describes ("the mempool uses the
    max fee to make admission/eviction decisions").
    """

    max_fee: int = 0
    priority_fee: int = 0

    def __post_init__(self) -> None:
        if self.max_fee <= 0:
            object.__setattr__(self, "max_fee", self.gas_price)
        if self.priority_fee < 0:
            raise TransactionError("priority fee must be non-negative")
        if self.priority_fee > self.max_fee:
            raise TransactionError("priority fee cannot exceed max fee")
        object.__setattr__(self, "gas_price", self.max_fee)
        super().__post_init__()

    def _compute_hash(self) -> str:
        material = (
            f"1559|{self.sender}|{self.nonce}|{self.max_fee}|{self.priority_fee}"
            f"|{self.gas_limit}|{self.to}|{self.value}|{self.data_size}"
        )
        return "0x" + hashlib.blake2b(material.encode(), digest_size=32).hexdigest()

    def bid_price(self, base_fee: int = 0) -> int:
        return self.max_fee

    def effective_price(self, base_fee: int = 0) -> int:
        """min(base_fee + priority_fee, max_fee), per EIP-1559."""
        return min(base_fee + self.priority_fee, self.max_fee)

    def is_underpriced_for_base_fee(self, base_fee: int) -> bool:
        """A 1559 transaction whose max fee sits below base fee is dropped."""
        return self.max_fee < base_fee

    def __repr__(self) -> str:
        return (
            f"Tx1559({self.short_hash()}, from={self.sender[:8]}.., "
            f"nonce={self.nonce}, max={to_gwei(self.max_fee):.3f}gwei, "
            f"tip={to_gwei(self.priority_fee):.3f}gwei)"
        )


class TransactionFactory:
    """Convenience builder binding accounts to transactions.

    Keeps nonce bookkeeping in one place: ``transfer`` consumes the account's
    next nonce, while ``replacement`` reuses a given nonce at a bumped price.
    """

    def __init__(self, default_gas_limit: int = INTRINSIC_GAS) -> None:
        self.default_gas_limit = default_gas_limit

    def transfer(
        self,
        account: Account,
        gas_price: int,
        nonce: Optional[int] = None,
        to: str = "0x" + "11" * 20,
        value: int = 0,
    ) -> Transaction:
        """A plain transfer; allocates the account's next nonce by default."""
        used_nonce = account.allocate_nonce() if nonce is None else nonce
        return Transaction(
            sender=account.address,
            nonce=used_nonce,
            gas_price=gas_price,
            gas_limit=self.default_gas_limit,
            to=to,
            value=value,
        )

    def replacement(self, original: Transaction, bump_ratio: float) -> Transaction:
        """Same sender+nonce as ``original`` at ``(1 + bump_ratio)`` the price."""
        if bump_ratio < 0:
            raise TransactionError("bump ratio must be non-negative")
        new_price = int(math.ceil(original.gas_price * (1.0 + bump_ratio)))
        return Transaction(
            sender=original.sender,
            nonce=original.nonce,
            gas_price=new_price,
            gas_limit=original.gas_limit,
            to=original.to,
            value=original.value,
        )

    def future(
        self,
        account: Account,
        gas_price: int,
        nonce_gap: int = 1000,
        index: int = 0,
    ) -> Transaction:
        """A future transaction: nonce far beyond the account's next nonce.

        ``nonce_gap + index`` past the next nonce guarantees it can never
        become pending during an experiment, which is exactly the property
        TopoShot's eviction floods rely on.
        """
        return Transaction(
            sender=account.address,
            nonce=account.peek_nonce() + nonce_gap + index,
            gas_price=gas_price,
            gas_limit=self.default_gas_limit,
        )
