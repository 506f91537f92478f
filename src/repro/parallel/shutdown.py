"""Leak-free shared memory and graceful SIGTERM shutdown for the runner.

``multiprocessing.shared_memory`` segments live in ``/dev/shm`` under the
kernel, not the process: a runner killed mid-sweep leaks its coordinate
and velocity packs until reboot.  Three layers close that hole:

* every segment is created through :func:`create_shared_memory` with a
  recognizable ``repro_<pid>_<hex>`` name and tracked in a process-local
  registry, so a leak is *observable* (tests scan ``/dev/shm`` for the
  dead pid's prefix);
* the happy path releases segments through :func:`release_shared_memory`
  (close + unlink + deregister, idempotent);
* an ``atexit`` hook (:func:`purge_shared_memory`) unlinks anything still
  registered, and :func:`install_shutdown_handler` converts ``SIGTERM``
  into :class:`KeyboardInterrupt` so the runner's ``finally`` blocks --
  pool termination, segment release -- actually run instead of the
  process dying mid-`` bincount``.

Acquiring a segment and protecting it is one step: inside
:func:`create_shared_memory` the handler's interrupt is *deferred* (it
is raised when the acquire-and-register block exits), and the segment is
appended to the caller's ``owner`` list in that same block.  A caller
that opens its ``try`` before the first creation and releases everything
in ``owner`` from its ``finally`` cannot leak a segment, whichever
bytecode the interrupt lands on.

The registry is per-process by construction: pool workers attach to the
parent's segments by name and never create their own, so the parent's
single unlink is always the right one.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import secrets
import signal
import threading
from multiprocessing import shared_memory
from typing import Dict, List, Optional

__all__ = [
    "create_shared_memory",
    "release_shared_memory",
    "purge_shared_memory",
    "live_segment_names",
    "install_shutdown_handler",
    "SHM_PREFIX",
]

#: Name prefix of every runner-created segment (``repro_<pid>_<hex>``);
#: the pid component lets a post-mortem sweep attribute leaks to a run.
SHM_PREFIX = "repro"

_lock = threading.Lock()
_live: Dict[str, shared_memory.SharedMemory] = {}
_atexit_registered = False


def _segment_name() -> str:
    return f"{SHM_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}"


#: main-thread interrupt deferral of the shutdown handler: nesting depth
#: of :func:`_interrupts_deferred` blocks and the signal that arrived
#: inside one (raised when the outermost block exits)
_deferral = {"depth": 0, "pending": None}


@contextlib.contextmanager
def _interrupts_deferred():
    """Hold the shutdown handler's ``KeyboardInterrupt`` until exit.

    Signal handlers run in the main thread, so only a main-thread block
    defers; elsewhere this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    _deferral["depth"] += 1
    try:
        yield
    finally:
        _deferral["depth"] -= 1
        if _deferral["depth"] == 0:
            signum, _deferral["pending"] = _deferral["pending"], None
            if signum is not None:
                raise KeyboardInterrupt(f"signal {signum}")


def create_shared_memory(
    size: int, owner: Optional[List[shared_memory.SharedMemory]] = None
) -> shared_memory.SharedMemory:
    """Create a tracked ``repro_<pid>_<hex>`` shared-memory segment.

    The segment is registered for the ``atexit`` purge until
    :func:`release_shared_memory` deregisters it, and appended to
    ``owner`` when given.  Creation, registration and the append form one
    step with respect to the shutdown handler: a ``SIGTERM`` arriving in
    between is raised as ``KeyboardInterrupt`` only after the step, and
    a segment whose step is cut short by an exception is released here.
    """
    global _atexit_registered
    shm = None
    try:
        with _interrupts_deferred():
            shm = shared_memory.SharedMemory(
                create=True, name=_segment_name(), size=size
            )
            with _lock:
                _live[shm.name] = shm
                if not _atexit_registered:
                    atexit.register(purge_shared_memory)
                    _atexit_registered = True
            if owner is not None:
                owner.append(shm)
    except BaseException:
        if shm is not None:
            release_shared_memory(shm)
        raise
    return shm


def release_shared_memory(shm: shared_memory.SharedMemory) -> None:
    """Close, unlink and deregister one segment (idempotent).

    ``FileNotFoundError`` is tolerated: a crashed prior run or the
    resource tracker may have unlinked the segment already, and a cleanup
    path must never raise over already-clean state.
    """
    with _lock:
        _live.pop(shm.name, None)
    try:
        shm.close()
    except BufferError:
        # an exported ndarray view still holds the buffer; unlink below
        # still removes the name so nothing leaks past process exit.
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


def purge_shared_memory() -> List[str]:
    """Unlink every still-registered segment; returns the purged names.

    Runs at interpreter exit (and is safe to call any time): segments the
    happy path already released are no longer registered, so this only
    fires for abnormal exits -- an unhandled exception between creation
    and the ``finally``, or a ``SIGTERM`` delivered outside
    :func:`install_shutdown_handler`'s protection.
    """
    with _lock:
        doomed = list(_live.values())
        _live.clear()
    purged = []
    for shm in doomed:
        try:
            shm.close()
        except BufferError:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            continue
        purged.append(shm.name)
    return purged


def live_segment_names() -> List[str]:
    """Names of segments created but not yet released (leak probe)."""
    with _lock:
        return sorted(_live)


def install_shutdown_handler(
    signum: int = signal.SIGTERM,
) -> Optional[object]:
    """Convert ``signum`` (default ``SIGTERM``) into ``KeyboardInterrupt``.

    ``SIGTERM``'s default disposition kills the process between any two
    bytecodes, skipping every ``finally`` -- leaked pools, leaked
    ``/dev/shm`` segments, truncated telemetry.  Raising
    :class:`KeyboardInterrupt` instead reuses the exact unwinding path
    Ctrl-C already exercises: ``measure``/``run_batch`` terminate their
    pool and release shared memory in ``finally``, and the campaign
    server drains.  Inside :func:`create_shared_memory`'s
    acquire-and-register step the interrupt is deferred to the step's
    end.

    Only effective from the main thread (signal handlers are a
    main-thread affair); returns the previous handler so callers can
    restore it, or ``None`` when not in the main thread.
    """
    if threading.current_thread() is not threading.main_thread():
        return None

    def _raise_interrupt(_signum, _frame):
        if _deferral["depth"]:
            _deferral["pending"] = _signum
            return
        raise KeyboardInterrupt(f"signal {_signum}")

    return signal.signal(signum, _raise_interrupt)
