"""Mempool policy presets for the five Ethereum clients of Table 3.

The paper profiles real clients with black-box unit tests and reports four
parameters per client (Section 5.1, Tables 2 and 3):

====== ======================================================================
``R``  minimal gas-price bump ratio for an incoming transaction to replace an
       existing one with the same sender and nonce
``U``  max number of future transactions from one account admitted to a pool
``P``  minimal number of pending transactions required before future
       transactions may evict pending ones
``L``  mempool capacity (total transactions)
====== ======================================================================

These presets drive the simulated clients; :mod:`repro.core.profiler`
re-measures them black-box, reproducing Table 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional


@dataclass(frozen=True)
class MempoolPolicy:
    """Admission/replacement/eviction parameters of one client's mempool.

    ``future_limit_per_account`` of ``None`` means unlimited (Besu).
    ``expiry_seconds`` is the unconfirmed-transaction lifetime ``e`` used by
    the non-interference analysis (3 hours for Geth).
    """

    name: str
    replace_bump: float  # R, e.g. 0.10 for a 10% price bump
    future_limit_per_account: Optional[int]  # U; None = unlimited
    eviction_pending_floor: int  # P
    capacity: int  # L
    deployment_share: float = 0.0  # fraction of mainnet nodes (Table 3 col. 2)
    expiry_seconds: float = 3 * 3600.0  # e
    enforce_base_fee: bool = False  # EIP-1559 mode (Appendix E)

    def __post_init__(self) -> None:
        if self.replace_bump < 0:
            raise ValueError("replacement bump R must be non-negative")
        if self.capacity <= 0:
            raise ValueError("capacity L must be positive")
        if self.eviction_pending_floor < 0:
            raise ValueError("eviction floor P must be non-negative")
        if (
            self.future_limit_per_account is not None
            and self.future_limit_per_account < 0
        ):
            raise ValueError("future limit U must be non-negative or None")

    @property
    def measurable(self) -> bool:
        """TopoShot needs a non-zero R to build its isolation price band.

        Nethermind and Aleth report R == 0 and are not measurable
        (Section 5.1: "renders our TopoShot unable to work").
        """
        return self.replace_bump > 0

    def replacement_allowed(self, old_price: int, new_price: int) -> bool:
        """True when ``new_price`` may replace ``old_price`` under R.

        With R == 0 an *equal* price suffices, which is the flawed setting
        the paper reported to the Ethereum bug bounty (free re-propagation).
        """
        threshold = old_price * (1.0 + self.replace_bump)
        return new_price + 1e-9 >= threshold

    def scaled(self, capacity: int) -> "MempoolPolicy":
        """A proportionally scaled copy for tractable simulation sizes.

        ``P`` and ``U`` shrink by the same ratio as ``L`` (rounded up so a
        non-zero floor never becomes zero); ``R`` is dimensionless and kept.
        """
        if capacity <= 0:
            raise ValueError("scaled capacity must be positive")
        ratio = capacity / self.capacity
        floor = (
            0
            if self.eviction_pending_floor == 0
            else max(1, math.ceil(self.eviction_pending_floor * ratio))
        )
        limit = self.future_limit_per_account
        if limit is not None:
            limit = max(1, math.ceil(limit * ratio))
        return intern_policy(
            replace(
                self,
                capacity=capacity,
                eviction_pending_floor=floor,
                future_limit_per_account=limit,
            )
        )

    def with_bump(self, replace_bump: float) -> "MempoolPolicy":
        """Copy with a custom R (models non-default ``--txpool.pricebump``)."""
        return intern_policy(replace(self, replace_bump=replace_bump))

    def with_capacity(self, capacity: int) -> "MempoolPolicy":
        """Copy with a custom L, leaving P and U untouched.

        This is the "custom mempool size" non-default setting blamed for
        false negatives in Section 6.1.
        """
        return intern_policy(replace(self, capacity=capacity))

    def with_base_fee_enforcement(self) -> "MempoolPolicy":
        """Copy running in EIP-1559 mode (Appendix E)."""
        return intern_policy(replace(self, enforce_base_fee=True))


# Flyweight registry: a frozen (hashable) policy stands for itself, so
# equal derived policies collapse to one shared instance. At 50k nodes a
# generated network holds a handful of distinct policies, not 50k copies;
# the derived constructors above route every new value through here.
_INTERNED: Dict["MempoolPolicy", "MempoolPolicy"] = {}


def intern_policy(policy: MempoolPolicy) -> MempoolPolicy:
    """Return the canonical shared instance equal to ``policy``."""
    return _INTERNED.setdefault(policy, policy)


# Table 3 of the paper, verbatim. Deployment shares are the second column.
GETH = MempoolPolicy(
    name="geth",
    replace_bump=0.10,
    future_limit_per_account=4096,
    eviction_pending_floor=0,
    capacity=5120,
    deployment_share=0.8324,
)

PARITY = MempoolPolicy(
    name="parity",
    replace_bump=0.125,
    future_limit_per_account=81,
    eviction_pending_floor=2000,
    capacity=8192,
    deployment_share=0.1457,
)

NETHERMIND = MempoolPolicy(
    name="nethermind",
    replace_bump=0.0,
    future_limit_per_account=17,
    eviction_pending_floor=0,
    capacity=2048,
    deployment_share=0.0153,
)

BESU = MempoolPolicy(
    name="besu",
    replace_bump=0.10,
    future_limit_per_account=None,
    eviction_pending_floor=0,
    capacity=4096,
    deployment_share=0.0052,
)

ALETH = MempoolPolicy(
    name="aleth",
    replace_bump=0.0,
    future_limit_per_account=1,
    eviction_pending_floor=0,
    capacity=2048,
    deployment_share=0.0,
)

CLIENT_POLICIES: Dict[str, MempoolPolicy] = {
    policy.name: policy for policy in (GETH, PARITY, NETHERMIND, BESU, ALETH)
}

# Seed the flyweight registry with the presets themselves, so deriving
# "the geth preset" back from a modified copy returns the module constant.
for _policy in CLIENT_POLICIES.values():
    _INTERNED.setdefault(_policy, _policy)
del _policy
