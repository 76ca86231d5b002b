"""Remote worker protocol: episode ranges dispatched to persistent workers over TCP.

Episodes are bit-deterministic functions of ``(config, episode)``, so any
worker anywhere can run any episode and return the exact reports an
in-process run would produce.  This module ships the sweep runner's tasks
(:func:`repro.runtime.executor.run_ranges`) to *persistent workers* over a
tiny length-prefixed JSON protocol — every frame is a 4-byte big-endian
length followed by a UTF-8 JSON object:

* ``{"op": "hello", "protocol": ..., "schema": ...}`` →
  ``{"ok": true, "protocol": ..., "schema": ...}`` — handshake; the
  dispatcher refuses a worker whose protocol or work-unit schema version
  does not match its own.
* ``{"op": "init", "cache_dir": ...}`` → ``{"ok": true}`` — propagate the
  dispatcher's lookup-cache directory (same contract as the process
  backend's pool initializer).
* ``{"op": "run", "ranges": [[<canonical SEOConfig>, start, stop], ...]}``
  → ``{"ok": true, "reports": [[<EpisodeReport>, ...], ...]}`` — run the
  ranges (one lockstep key) as one lockstep call and return each range's
  reports; the worker runs the same task a process-pool worker runs, and
  keeps the last config's framework for the next one.
* ``{"op": "shutdown"}`` — drain and exit (close the connection).

Configs travel in the canonical serialized form of
:mod:`repro.runtime.workunit` and reports in the JSON form of
:mod:`repro.runtime.ledger`, so nothing on the wire depends on pickling.
Workers are started on any machine with
``python -m repro.cli worker --listen HOST:PORT`` (:func:`serve_worker`)
and driven over TCP by the ``"socket"`` backend's dispatcher
(:class:`SocketWorkerPool`): a private asyncio loop on a daemon thread, a
free-worker queue balancing load, and a ``concurrent.futures``-compatible
surface (``submit`` returning a future, ``shutdown``), so
:class:`repro.runtime.sweep.SweepRunner` can treat it like any other pool.
A worker that dies mid-exchange is retired and its address reconnected
(bounded budget per slot); its in-flight task is re-dispatched to a
healthy worker.  When every worker is gone the pool fails fast with a
:class:`RemoteWorkerError` — submitted futures never hang.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import struct
import threading
import traceback
from concurrent.futures import Future
from pathlib import Path
from collections.abc import Callable, Sequence
from typing import Any

from repro.core.framework import EpisodeReport, SEOConfig
from repro.runtime.cache import LookupTableCache, default_cache, set_default_cache
from repro.runtime.executor import run_ranges
from repro.runtime.ledger import report_from_jsonable, report_to_jsonable
from repro.runtime.workunit import (
    WORKUNIT_SCHEMA_VERSION,
    config_from_jsonable,
    config_to_jsonable,
)

__all__ = [
    "HANDSHAKE_TIMEOUT_S",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "RemoteWorkerError",
    "SocketWorkerPool",
    "WorkerServer",
    "WorkerSession",
    "parse_worker_address",
    "read_frame_async",
    "serve_worker",
    "write_frame_async",
]

#: Frame header: payload length as an unsigned 32-bit big-endian integer.
_HEADER = struct.Struct(">I")

#: Version of the frame protocol (ops and their fields).  Exchanged in the
#: ``hello`` handshake; a dispatcher refuses a worker speaking another
#: version instead of failing mid-sweep on a malformed frame.
PROTOCOL_VERSION = 2

#: Seconds a new worker gets to complete the connect-time hello/init
#: exchange.  Those frames are answered immediately by a healthy worker, so
#: a stall here means the peer accepted the connection but is not serving
#: (black-holed host, stopped process) — fail the slot instead of hanging
#: the sweep on it.  Run frames carry no timeout: task duration is
#: unbounded by design.
HANDSHAKE_TIMEOUT_S = 30.0

#: Upper bound on a single frame's payload.  Real frames are a few KB per
#: episode of a task; the cap exists so a corrupt or hostile length
#: header — 4 raw bytes read straight off a network socket — cannot
#: trigger a multi-GB allocation before JSON parsing even starts.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class RemoteWorkerError(RuntimeError):
    """A remote worker failed: a task error, a dead transport, a corrupt
    frame, or a handshake/version mismatch (the message says which)."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

async def write_frame_async(writer: asyncio.StreamWriter, payload: dict[str, Any]) -> None:
    """Write one frame to an asyncio stream and drain."""
    data = json.dumps(payload).encode("utf-8")
    writer.write(_HEADER.pack(len(data)) + data)
    await writer.drain()


async def read_frame_async(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise RemoteWorkerError("truncated frame header") from error
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RemoteWorkerError(
            f"frame header announces {length} bytes, over the "
            f"{MAX_FRAME_BYTES}-byte cap — corrupt header or incompatible peer"
        )
    try:
        data = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise RemoteWorkerError("truncated frame payload") from error
    return json.loads(data.decode("utf-8"))


def parse_worker_address(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` worker address (IPv6 hosts may be bracketed)."""
    host, sep, port_text = text.strip().rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address must be HOST:PORT, got {text!r}")
    host = host.strip("[]")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"worker address has a non-numeric port: {text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"worker port out of range: {text!r}")
    return host, port


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

class WorkerSession:
    """Replies of one worker connection to its decoded request frames.

    A ``run`` frame is the process-pool task: its ranges go to
    :func:`~repro.runtime.executor.run_ranges`, whose per-worker executor
    keeps the last config's framework.  The session never touches the
    connection: the socket server feeds it decoded frames.
    """

    def handle(self, request: dict[str, Any]) -> dict[str, Any] | None:
        """Reply to one request frame; ``None`` means shutdown (close)."""
        op = request.get("op")
        if op == "shutdown":
            return None
        try:
            if op == "hello":
                return {
                    "ok": True,
                    "protocol": PROTOCOL_VERSION,
                    "schema": WORKUNIT_SCHEMA_VERSION,
                }
            if op == "init":
                cache_dir = request.get("cache_dir")
                path = Path(cache_dir) if cache_dir else None
                if default_cache().cache_dir != path:
                    set_default_cache(LookupTableCache(cache_dir=path))
                return {"ok": True}
            if op == "run":
                ranges = request["ranges"]
                cells = run_ranges([(config_from_jsonable(c), a, b) for c, a, b in ranges])
                return {
                    "ok": True,
                    "reports": [[report_to_jsonable(report) for report in cell] for cell in cells],
                }
            raise ValueError(f"unknown op: {op!r}")
        except Exception:
            return {"ok": False, "error": traceback.format_exc()}


async def _serve_connection(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Serve one dispatcher connection; a framing error drops only it."""
    session = WorkerSession()
    try:
        while True:
            request = await read_frame_async(reader)
            if request is None:
                break
            reply = session.handle(request)
            if reply is None:
                break
            await write_frame_async(writer, reply)
    except (RemoteWorkerError, ConnectionError, OSError, ValueError):
        # ValueError covers undecodable frames (JSONDecodeError /
        # UnicodeDecodeError): unrecoverable framing or a dead peer — close
        # this connection, keep serving others.
        pass
    except asyncio.CancelledError:
        pass  # server shutting down: close this connection quietly
    finally:
        with contextlib.suppress(Exception):
            writer.close()
            await writer.wait_closed()


async def serve_worker(
    host: str, port: int, on_bound: Callable[[str], None] | None = None
) -> None:
    """Serve the worker protocol over TCP until cancelled.

    Args:
        host: Interface to bind.
        port: Port to bind (``0`` = pick an ephemeral port).
        on_bound: Called once with the bound ``host:port`` string — this is
            how callers (and the CLI, which prints it) learn an ephemeral
            port.
    """
    server = await asyncio.start_server(
        _serve_connection, host, port, limit=MAX_FRAME_BYTES
    )
    bound = server.sockets[0].getsockname()
    if on_bound is not None:
        on_bound(f"{bound[0]}:{bound[1]}")
    async with server:
        await server.serve_forever()


class WorkerServer:
    """A socket worker served from a daemon thread of this process.

    The in-process counterpart of ``repro.cli worker --listen`` — used by
    tests and notebooks to stand up localhost workers without spawning
    subprocesses.  ``stop()`` kills the server (abandoning any connection,
    like a crashed worker machine would).

    Attributes:
        address: The bound ``host:port`` string.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.address: str | None = None
        self._error: BaseException | None = None
        self._ready = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, args=(host, port), name="seo-worker-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("worker server did not start in time")
        if self._error is not None:
            raise RuntimeError(f"worker server failed to bind: {self._error}")

    def _run(self, host: str, port: int) -> None:
        asyncio.set_event_loop(self._loop)

        def _on_bound(address: str) -> None:
            self.address = address
            self._ready.set()

        try:
            self._loop.run_until_complete(serve_worker(host, port, on_bound=_on_bound))
        except asyncio.CancelledError:
            # stop() cancelled everything; let in-flight connection handlers
            # observe the cancellation before the loop closes.
            pending = asyncio.all_tasks(self._loop)
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        except BaseException as error:  # bind failure before ready
            self._error = error
            self._ready.set()
        finally:
            with contextlib.suppress(Exception):
                self._loop.close()

    def stop(self) -> None:
        """Tear the server down (idempotent), as abruptly as a crash."""
        if self._stopped:
            return
        self._stopped = True

        def _cancel_everything() -> None:
            for task in asyncio.all_tasks(self._loop):
                task.cancel()

        if not self._loop.is_closed():
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(_cancel_everything)
        self._thread.join(timeout=30)


# ----------------------------------------------------------------------
# Dispatcher side
# ----------------------------------------------------------------------

class _SocketTransport:
    """Frame I/O over one TCP connection to a worker.

    Normalizes every transport failure (reset connection, truncated frame,
    oversized header, undecodable payload) into :class:`RemoteWorkerError`,
    so the dispatcher has exactly one "this worker is gone" signal.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        description: str,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.description = description

    async def send(self, payload: dict[str, Any]) -> None:
        try:
            await write_frame_async(self.writer, payload)
        except (ConnectionError, OSError) as error:
            raise RemoteWorkerError(
                f"{self.description} is gone (send failed: {error})"
            ) from error

    async def recv(self) -> dict[str, Any]:
        try:
            frame = await read_frame_async(self.reader)
        except (ConnectionError, OSError) as error:
            raise RemoteWorkerError(
                f"{self.description} is gone (recv failed: {error})"
            ) from error
        except ValueError as error:
            # json.JSONDecodeError / UnicodeDecodeError: the peer is not
            # speaking our protocol (corruption, or a wrong service on the
            # port).  Framing is unrecoverable — same signal as a dead
            # connection, so the dispatcher retires the worker instead of
            # leaking its slot.
            raise RemoteWorkerError(
                f"{self.description} sent an undecodable frame: {error}"
            ) from error
        if frame is None:
            raise RemoteWorkerError(
                f"{self.description} closed the connection mid-exchange"
            )
        return frame

    async def close(self, timeout: float = 5.0) -> None:
        with contextlib.suppress(Exception):
            self.writer.close()
            await asyncio.wait_for(self.writer.wait_closed(), timeout=timeout)


def _validate_handshake(reply: dict[str, Any], description: str) -> None:
    """Refuse a worker whose protocol or work-unit schema version differs."""
    if not reply.get("ok"):
        raise RemoteWorkerError(
            f"{description} rejected the handshake: {reply.get('error')}"
        )
    protocol = reply.get("protocol")
    schema = reply.get("schema")
    if protocol != PROTOCOL_VERSION or schema != WORKUNIT_SCHEMA_VERSION:
        raise RemoteWorkerError(
            f"{description} speaks protocol v{protocol} / work-unit schema "
            f"v{schema}; this dispatcher requires protocol "
            f"v{PROTOCOL_VERSION} / schema v{WORKUNIT_SCHEMA_VERSION} — "
            "run matching versions on both ends"
        )


#: Idle-queue sentinel: the pool is dead; wake every parked waiter.
_POOL_FAILED = object()


class SocketWorkerPool:
    """Asyncio dispatcher feeding remote workers reached by TCP.

    Backs the ``"socket"`` sweep backend: one *slot* per ``HOST:PORT``
    address, served by ``python -m repro.cli worker --listen`` on that
    machine.  Slots are connected lazily on the first submission; a
    free-slot queue balances load; ``submit`` returns a
    :class:`concurrent.futures.Future`, so callers collect results exactly
    as they would from a stdlib executor.

    Fault tolerance: a slot whose connection fails mid-exchange is retired
    and re-established by reconnecting to the *same* address (the worker
    process may have merely restarted) at most ``max_respawns`` times; the
    interrupted task is re-dispatched to whichever worker frees up next
    (episodes are deterministic and side-effect free, so re-running them is
    always safe).  A slot whose budget is exhausted is dropped and the
    sweep continues on the remaining workers.  When the last worker dies
    the pool fails fast: every parked and future submission raises
    :class:`RemoteWorkerError` instead of hanging on an idle queue nobody
    will ever refill.

    Args:
        workers: Worker addresses (``"host:port"`` strings).
        cache_dir: Lookup-cache directory propagated to every worker (only
            meaningful when workers share the dispatcher's filesystem).
        max_respawns: Reconnect attempts per address before retiring it.
    """

    def __init__(
        self,
        workers: Sequence[str],
        cache_dir: Path | None = None,
        max_respawns: int = 1,
    ) -> None:
        addresses = tuple(workers)
        if not addresses:
            raise ValueError("socket pool needs at least one worker address")
        if max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        self.addresses = tuple(parse_worker_address(entry) for entry in addresses)
        self.workers = len(addresses)
        self.cache_dir = cache_dir
        self.max_respawns = max_respawns
        self.respawns = 0
        self.lost_slots = 0
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="seo-socket-dispatch", daemon=True
        )
        self._thread.start()
        self._transports: dict[int, _SocketTransport] = {}
        self._respawns_left: dict[int, int] = {}
        self._pending: set = set()
        self._idle: asyncio.Queue | None = None
        self._start_lock: asyncio.Lock | None = None
        self._fatal: RemoteWorkerError | None = None
        self._closed = False

    # -- connection establishment ---------------------------------------
    async def _connect(self, slot: int) -> _SocketTransport:
        host, port = self.addresses[slot]
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_FRAME_BYTES
            )
        except OSError as error:
            raise RemoteWorkerError(
                f"cannot connect to worker {host}:{port}: {error}"
            ) from error
        return _SocketTransport(reader, writer, f"socket worker {host}:{port}")

    async def _handshake(self, transport: _SocketTransport) -> None:
        await transport.send(
            {
                "op": "hello",
                "protocol": PROTOCOL_VERSION,
                "schema": WORKUNIT_SCHEMA_VERSION,
            }
        )
        _validate_handshake(await transport.recv(), transport.description)
        await transport.send(
            {
                "op": "init",
                "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            }
        )
        reply = await transport.recv()
        if not reply.get("ok"):
            raise RemoteWorkerError(
                f"{transport.description} failed to initialize: "
                f"{reply.get('error')}"
            )

    async def _start_worker(self, slot: int) -> _SocketTransport:
        """Connect a slot and run the handshake + init sequence."""
        transport = await self._connect(slot)
        try:
            await asyncio.wait_for(
                self._handshake(transport), timeout=HANDSHAKE_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            await transport.close(timeout=1.0)
            raise RemoteWorkerError(
                f"{transport.description} accepted the connection but did "
                f"not complete the handshake within {HANDSHAKE_TIMEOUT_S}s"
            ) from None
        except BaseException:
            await transport.close(timeout=1.0)
            raise
        self._transports[slot] = transport
        return transport

    # -- pool lifecycle -------------------------------------------------
    async def _ensure_workers(self) -> None:
        if self._start_lock is None:
            self._start_lock = asyncio.Lock()
        async with self._start_lock:
            if self._idle is not None:
                return
            idle: asyncio.Queue = asyncio.Queue()
            for slot in range(self.workers):
                self._respawns_left.setdefault(slot, self.max_respawns)
                # A retried startup (first attempt failed partway) reuses
                # slots that already connected instead of leaking them.
                if slot not in self._transports:
                    await self._start_worker(slot)
                idle.put_nowait(slot)
            self._idle = idle

    async def _acquire(self) -> int:
        """Take an idle slot, or raise promptly once the pool is dead."""
        assert self._idle is not None
        while True:
            if self._fatal is not None:
                raise RemoteWorkerError(str(self._fatal))
            slot = await self._idle.get()
            if slot is _POOL_FAILED:
                self._idle.put_nowait(slot)  # wake the next parked waiter
                raise RemoteWorkerError(str(self._fatal))
            return slot

    async def _retire(
        self, slot: int, transport: _SocketTransport, error: Exception
    ) -> None:
        """Drop a dead worker; reconnect its slot or declare the pool dead."""
        self._transports.pop(slot, None)
        await transport.close(timeout=1.0)
        while self._respawns_left.get(slot, 0) > 0:
            self._respawns_left[slot] -= 1
            try:
                await self._start_worker(slot)
            except RemoteWorkerError:
                continue
            self.respawns += 1
            assert self._idle is not None
            self._idle.put_nowait(slot)
            return
        self.lost_slots += 1
        if not self._transports:
            # _transports holds every live worker, idle or busy — empty
            # means capacity is zero forever.  Fail every parked waiter now
            # rather than letting the sweep hang on the idle queue.
            self._fatal = RemoteWorkerError(
                f"all {self.workers} remote worker slot(s) are dead "
                f"(respawn budget {self.max_respawns}/slot exhausted); "
                f"last failure on {transport.description}: {error}"
            )
            assert self._idle is not None
            self._idle.put_nowait(_POOL_FAILED)

    async def _run_task(self, payload: list[list[Any]]) -> list[list[EpisodeReport]]:
        task = asyncio.current_task()
        self._pending.add(task)
        try:
            await self._ensure_workers()
            while True:
                slot = await self._acquire()
                transport = self._transports[slot]
                try:
                    await transport.send({"op": "run", "ranges": payload})
                    reply = await transport.recv()
                except RemoteWorkerError as error:
                    # Transport death, not a task error (those travel in
                    # the reply): retire the worker and re-dispatch this
                    # task.  Each pass through here shrinks the pool or
                    # spends respawn budget, so the loop terminates — in the
                    # worst case via _acquire raising the pool-dead error.
                    await self._retire(slot, transport, error)
                    continue
                # A completed exchange means the worker is healthy — requeue
                # it even when the task itself failed.
                self._idle.put_nowait(slot)
                if not reply.get("ok"):
                    raise RemoteWorkerError(f"remote task failed:\n{reply.get('error')}")
                return [[report_from_jsonable(item) for item in cell] for cell in reply["reports"]]
        finally:
            self._pending.discard(task)

    # -- Executor-compatible surface ------------------------------------
    def submit(
        self,
        fn: Callable[[Sequence[tuple[SEOConfig, int, int]]], list[list[EpisodeReport]]],
        ranges: Sequence[tuple[SEOConfig, int, int]],
    ) -> "Future[list[list[EpisodeReport]]]":
        """Dispatch ``fn(ranges)``; returns a concurrent future for its result.

        ``fn`` must be :func:`~repro.runtime.executor.run_ranges`, the one
        task a socket worker runs; the signature is the stdlib executor's.
        """
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is shut down")
        if fn is not run_ranges:
            raise ValueError(f"a socket worker runs only run_ranges, not {fn!r}")
        payload = [
            [config_to_jsonable(config), start, stop] for config, start, stop in ranges
        ]
        return asyncio.run_coroutine_threadsafe(self._run_task(payload), self._loop)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Stop the workers and the dispatch loop (idempotent).

        With ``cancel_futures=True`` every pending ``_run_task``
        coroutine is cancelled first — including the ones still parked on
        the idle queue, whose futures would otherwise never resolve — and
        workers get a short grace period instead of the full one.
        """
        if self._closed:
            return
        self._closed = True

        async def _close() -> None:
            if cancel_futures:
                for task in list(self._pending):
                    task.cancel()
            if self._pending:
                await asyncio.gather(*self._pending, return_exceptions=True)
            grace = 1.0 if cancel_futures else 5.0
            for transport in list(self._transports.values()):
                with contextlib.suppress(RemoteWorkerError):
                    await transport.send({"op": "shutdown"})
                await transport.close(timeout=grace)
            self._transports.clear()

        asyncio.run_coroutine_threadsafe(_close(), self._loop).result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()
