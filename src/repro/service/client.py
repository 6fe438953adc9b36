"""Blocking client for the measurement service (stdlib ``http.client``).

The client mirrors the server's typed error taxonomy: non-2xx responses
raise :class:`ServiceClientError` carrying the HTTP status and the typed
error payload (``type``, ``detail``, ``retry_after``), so callers handle
load-shedding programmatically::

    from repro.core.parallel_exec import CampaignSpec
    from repro.netgen.ethereum import NetworkSpec

    campaign = CampaignSpec(network=NetworkSpec(n_nodes=16, seed=9))
    client = ServiceClient.from_state_dir("service-state")
    try:
        job = client.submit(tenant="alice", kind="measure",
                            params={"campaign": campaign.to_dict()})
    except ServiceClientError as exc:
        if exc.error_type in ("quota_exceeded", "queue_full"):
            time.sleep(exc.retry_after or 1.0)   # typed 429: back off
    else:
        record = client.wait(job["spec"]["job_id"])  # held, not polled
"""

from __future__ import annotations

import http.client
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ServiceError
from repro.service.jobs import TERMINAL_STATES

PathLike = Union[str, Path]


class ServiceClientError(ServiceError):
    """A non-2xx response, with the server's typed error attached."""

    def __init__(self, status: int, error: dict) -> None:
        self.status = int(status)
        self.error = dict(error or {})
        detail = self.error.get("detail", "") or f"HTTP {status}"
        super().__init__(f"[{status}] {self.error.get('type', 'error')}: {detail}")

    @property
    def error_type(self) -> str:
        return str(self.error.get("type", ""))

    @property
    def retry_after(self) -> Optional[float]:
        value = self.error.get("retry_after")
        return float(value) if value is not None else None


class ServiceClient:
    """Minimal synchronous HTTP client for :mod:`repro.service.server`."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)

    @classmethod
    def from_state_dir(
        cls, state_dir: PathLike, timeout: float = 30.0
    ) -> "ServiceClient":
        """Connect via the ``endpoint.json`` the server writes on bind
        (which is how callers find an ephemeral ``--port 0`` service)."""
        endpoint = Path(state_dir) / "endpoint.json"
        if not endpoint.exists():
            raise ServiceError(
                f"no endpoint file at {endpoint}; is the service running?"
            )
        payload = json.loads(endpoint.read_text(encoding="utf-8"))
        return cls(payload["host"], int(payload["port"]), timeout=timeout)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
        except (ConnectionError, OSError) as exc:
            raise ServiceError(
                f"measurement service unreachable at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            conn.close()
        try:
            data = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"non-JSON response (HTTP {status})") from exc
        if status >= 400:
            raise ServiceClientError(status, data.get("error", {}))
        return data

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        kind: str = "measure",
        params: Optional[dict] = None,
        deadline: Optional[float] = None,
        max_attempts: int = 3,
        job_id: str = "",
    ) -> dict:
        """Submit a job; returns the server's job record dict."""
        payload: Dict[str, object] = {
            "tenant": tenant,
            "kind": kind,
            "params": params or {},
            "max_attempts": max_attempts,
        }
        if deadline is not None:
            payload["deadline"] = deadline
        if job_id:
            payload["job_id"] = job_id
        return self._request("POST", "/v1/jobs", payload)["job"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(self) -> List[dict]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")["job"]

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def wait(
        self, job_id: str, timeout: float = 60.0, poll: float = 0.05
    ) -> dict:
        """Return the job's record once it is terminal; raise
        :class:`ServiceError` at ``timeout`` (within one round trip).

        Each ask is a held ``GET /v1/jobs/{id}?wait=S``: the server answers
        when the job's terminal state is journaled, so the record comes
        back without a polling delay. ``S`` is at most half the socket
        ``self.timeout``, so a hold never outlives the connection. ``poll``
        is only the pause before asking again after a hold ends without a
        terminal state: the hold expired, the service is draining, or an
        older server ignored ``?wait``.
        """
        deadline = time.monotonic() + timeout
        while True:
            hold = min(max(deadline - time.monotonic(), 0.0), self.timeout / 2)
            record = self._request(
                "GET", f"/v1/jobs/{job_id}?wait={hold:.3f}"
            )["job"]
            if record["state"] in TERMINAL_STATES:
                return record
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"job {job_id} still {record['state']!r} after "
                    f"{timeout:.1f}s"
                )
            time.sleep(min(poll, remaining))
