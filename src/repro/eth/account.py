"""Externally owned accounts (EOAs) and wallets.

The simulator does not need real ECDSA; an account is a stable 20-byte-style
address plus a local nonce allocator. The :class:`Wallet` manages pools of
accounts the way TopoShot's measurement node does: distinct EOAs for ``txC``
seeds, and ``Z/U`` throwaway accounts for future-transaction floods.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List


def _address_from_label(label: str) -> str:
    """Derive a deterministic 0x-prefixed 20-byte hex address from a label."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=20).hexdigest()
    return "0x" + digest


@dataclass
class Account:
    """An EOA: an address, a display label and a local next-nonce counter.

    ``next_nonce`` tracks the nonce the *owner* will use for its next
    transaction; the chain's confirmed nonce is tracked separately by
    :class:`repro.eth.chain.Chain`. Balances are not modelled: every
    account can pay for anything (no overdrafts).
    """

    label: str
    address: str = field(default="")
    next_nonce: int = 0

    def __post_init__(self) -> None:
        if not self.address:
            self.address = _address_from_label(self.label)

    def allocate_nonce(self) -> int:
        """Return the next nonce and advance the counter."""
        nonce = self.next_nonce
        self.next_nonce += 1
        return nonce

    def peek_nonce(self) -> int:
        """Next nonce without consuming it."""
        return self.next_nonce

    def __hash__(self) -> int:
        return hash(self.address)

    def __repr__(self) -> str:
        return f"Account({self.label}, nonce={self.next_nonce})"


class Wallet:
    """A namespace of accounts with deterministic addresses.

    Account labels are namespaced by the wallet name so two wallets never
    collide. The wallet hands out *fresh* accounts (never used before) for
    measurement flows that require per-edge sender isolation.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._accounts: Dict[str, Account] = {}
        self._fresh_counter = itertools.count()

    def account(self, label: str) -> Account:
        """Return the account with ``label``, creating it on first use."""
        if label not in self._accounts:
            self._accounts[label] = Account(label=f"{self.name}/{label}")
        return self._accounts[label]

    def fresh_account(self, prefix: str = "acct") -> Account:
        """Create and return an account guaranteed unused by this wallet."""
        label = f"{prefix}-{next(self._fresh_counter)}"
        return self.account(label)

    def fresh_accounts(self, count: int, prefix: str = "acct") -> List[Account]:
        """Create ``count`` fresh accounts."""
        return [self.fresh_account(prefix) for _ in range(count)]

    def capture_state(self) -> Dict[str, object]:
        """Capture nonce allocations for later :meth:`restore_state`.

        The fresh-account counter is captured with the read-then-recreate
        trick so the next `fresh_account` label after a restore matches the
        one that followed the capture.
        """
        counter_value = next(self._fresh_counter)
        self._fresh_counter = itertools.count(counter_value)
        return {
            "nonces": {
                label: account.next_nonce
                for label, account in self._accounts.items()
            },
            "fresh_counter": counter_value,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rewind the wallet to a capture taken by :meth:`capture_state`.

        Accounts created after the capture are dropped; surviving
        ``Account`` objects are kept (their addresses are label-derived and
        stable) with their nonce counters rewound in place.
        """
        nonces: Dict[str, int] = state["nonces"]
        for label in [l for l in self._accounts if l not in nonces]:
            del self._accounts[label]
        for label, next_nonce in nonces.items():
            self._accounts[label].next_nonce = next_nonce
        self._fresh_counter = itertools.count(state["fresh_counter"])

    def __iter__(self) -> Iterator[Account]:
        return iter(self._accounts.values())

    def __len__(self) -> int:
        return len(self._accounts)

    def __contains__(self, label: str) -> bool:
        return label in self._accounts
