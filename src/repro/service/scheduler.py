"""Fairness-capped scheduling: weighted round-robin drain over tenants.

The drain discipline follows the animica mempool spec (``mempool/drain.py``:
ordered selection under budgets with per-sender fairness caps), transposed
to tenants and jobs: each tenant owns a FIFO queue, and the scheduler
serves tenants in a round-robin rotation where a tenant with weight *w*
may dispatch up to *w* jobs per rotation pass before yielding.  Combined
with a per-tenant running cap, an abusive tenant with a thousand queued
jobs delays an honest tenant's next job by at most one rotation — it can
never starve it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional

from repro.service.jobs import ADMITTED, JobRecord


class FairScheduler:
    """Per-tenant FIFO queues + weighted round-robin drain.

    Not thread-safe by design: it is owned by the service's asyncio loop
    (the attempt-loop threads never touch it).
    """

    def __init__(
        self,
        weight_of: Optional[Callable[[str], int]] = None,
        max_running_per_tenant: int = 2,
    ) -> None:
        self.weight_of = weight_of or (lambda tenant: 1)
        self.max_running_per_tenant = max(1, int(max_running_per_tenant))
        self._queues: Dict[str, Deque[JobRecord]] = {}
        self._rotation: Deque[str] = deque()
        self._credits: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def push(self, record: JobRecord, front: bool = False) -> None:
        """Queue a job (``front=True`` for drain/circuit-open requeues, so
        an interrupted job does not lose its place behind newer work)."""
        tenant = record.tenant
        queue = self._queues.get(tenant)
        if queue is None:
            queue = deque()
            self._queues[tenant] = queue
        if front:
            queue.appendleft(record)
        else:
            queue.append(record)
        if tenant not in self._credits:
            self._rotation.append(tenant)
            self._credits[tenant] = max(1, int(self.weight_of(tenant)))

    # ------------------------------------------------------------------
    # Weighted round-robin drain
    # ------------------------------------------------------------------
    def pop(
        self, running: Optional[Mapping[str, int]] = None
    ) -> Optional[JobRecord]:
        """Pick the next job fairly, or None if nothing is dispatchable.

        ``running`` maps tenant -> currently executing jobs; tenants at
        the ``max_running_per_tenant`` cap are skipped this call (their
        queued work stays put).
        """
        running = running or {}
        # Each tenant is visited at most twice per call (once to refresh
        # exhausted credits, once to serve), so the walk is bounded.
        for _ in range(2 * len(self._rotation) + 1):
            if not self._rotation:
                return None
            tenant = self._rotation[0]
            queue = self._queues.get(tenant)
            if not queue:
                self._rotation.popleft()
                self._credits.pop(tenant, None)
                continue
            if running.get(tenant, 0) >= self.max_running_per_tenant:
                self._rotation.rotate(-1)
                continue
            if self._credits.get(tenant, 0) <= 0:
                self._credits[tenant] = max(1, int(self.weight_of(tenant)))
                self._rotation.rotate(-1)
                continue
            record = queue.popleft()
            self._credits[tenant] -= 1
            if not queue:
                # Drop the empty tenant from the rotation eagerly; a later
                # push re-inserts it at the back with fresh credits.
                self._rotation.remove(tenant)
                self._credits.pop(tenant, None)
            record.state = ADMITTED
            return record
        return None

    # ------------------------------------------------------------------
    # Introspection / management
    # ------------------------------------------------------------------
    def queued_total(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def queued_for(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue else 0

    def depths(self) -> Dict[str, int]:
        return {
            tenant: len(queue)
            for tenant, queue in sorted(self._queues.items())
            if queue
        }

    def remove(self, job_id: str) -> Optional[JobRecord]:
        """Pull a still-queued job out (client cancellation)."""
        for queue in self._queues.values():
            for record in queue:
                if record.job_id == job_id:
                    queue.remove(record)
                    return record
        return None

    def drain_all(self) -> List[JobRecord]:
        """Empty every queue (service shutdown journaling).

        Records keep their ``queued`` state — they are being persisted for
        recovery, not dispatched.
        """
        drained: List[JobRecord] = []
        for tenant in sorted(self._queues):
            drained.extend(self._queues[tenant])
        self._queues.clear()
        self._rotation.clear()
        self._credits.clear()
        return drained
