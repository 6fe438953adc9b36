"""Every typed error crosses a process boundary as itself.

Service jobs run on a process pool and shard workers report back through
pickles, so a ``ReproError`` raised in a worker must unpickle in the caller
with its type, message and fields intact — an error that cannot be rebuilt
breaks the whole pool instead (``BrokenProcessPool``).
"""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.io  # noqa: F401 - defines SerializationError
import repro.service.client  # noqa: F401 - defines ServiceClientError
from repro.core.parallel_exec import _mp_context
from repro.errors import ReproError, RpcTimeoutError

#: Constructor arguments for every class that defines its own ``__init__``
#: (its subclasses inherit the sample). Classes taking only a message need
#: no entry.
SAMPLES = {
    "NodeDetachedError": ("n7",),
    "UnknownNodeError": ("n7",),
    "SendTimeoutError": ("n7", "peer busy"),
    "AdmissionRejected": ("slow down", 2.5),
    "JobCancelled": ("requeued by service drain",),
    "CircuitOpen": ("breaker open", 4.0),
    "RpcMethodNotFoundError": ("eth_nothing",),
    "RpcTimeoutError": ("n1", "txpool_content", 2.0),
    "RpcRateLimitedError": ("n1", 0.5),
    "RpcExhaustedError": ("n1", "txpool_content", 3, RpcTimeoutError("n1", "x", 1.0)),
    "ServiceClientError": (429, {"type": "queue_full", "detail": "full", "retry_after": 1}),
}
#: A drain's ``requeue`` must come back ``True``.
KWARGS = {"JobCancelled": {"requeue": True}}


def _every_subclass(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _every_subclass(sub)


ERRORS = sorted(set(_every_subclass(ReproError)) | {ReproError}, key=lambda c: c.__name__)


def _sample(cls) -> ReproError:
    owner = next(k for k in cls.__mro__ if "__init__" in vars(k))
    if owner in (BaseException, Exception) or owner.__module__ == "builtins":
        return cls(f"{cls.__name__} happened")
    assert owner.__name__ in SAMPLES, f"add constructor arguments for {owner.__name__}"
    return cls(*SAMPLES[owner.__name__], **KWARGS.get(owner.__name__, {}))


def _shape(value):
    """What must survive: type, message and fields (nested errors alike)."""
    if isinstance(value, BaseException):
        fields = {key: _shape(item) for key, item in vars(value).items()}
        return type(value), str(value), fields
    return value


def _raise(error: ReproError) -> None:
    raise error


def test_the_walk_sees_the_whole_taxonomy():
    names = {cls.__name__ for cls in ERRORS}
    assert {"RpcTimeoutError", "JobCancelled", "SerializationError",
            "ServiceClientError", "QuotaExceeded"} <= names


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_pickle_round_trip_keeps_type_message_and_fields(cls):
    error = _sample(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert _shape(copy) == _shape(error)


def test_errors_raised_in_a_forked_worker_reach_the_caller_as_themselves():
    with ProcessPoolExecutor(max_workers=1, mp_context=_mp_context()) as pool:
        for cls in ERRORS:
            error = _sample(cls)
            with pytest.raises(cls) as excinfo:
                pool.submit(_raise, error).result(timeout=30)
            assert _shape(excinfo.value) == _shape(error)
