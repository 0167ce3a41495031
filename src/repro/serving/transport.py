"""Length-prefixed pipe protocol for process shards.

The process-mode front end speaks to each worker over two duplex pipes
(request + control). Every message is one **frame**::

    <kind: 1 byte> <payload length: 4 bytes LE> <payload>

where the payload is one pickle (protocol 5) of the message, written
and read with plain ``os.write``/``os.read`` on the pipe's file
descriptor — the :class:`multiprocessing.connection.Connection` object
is used only as a picklable fd carrier for ``spawn``, never for its own
wire format, so the protocol is self-contained (the door to a network
front end: the same frames work on a socket fd). Requests, replies,
hot-swapped weights and drained experience all travel this one way;
at protocol 5 a numpy array goes in-band as its raw bytes.

:class:`TransportStats` counts frames and bytes in both directions plus
control-channel round-trips; :data:`TRANSPORT_METRIC_ROWS` names each
count once, for the front end's registry and ``counters()`` →
``repro info --probe``.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
from typing import List, Optional, Tuple

__all__ = [
    "FrameConn",
    "TransportStats",
    "TRANSPORT_METRIC_ROWS",
]

_HEADER = struct.Struct("<BI")


class TransportStats:
    """Thread-safe transport counters (one instance per front end)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.frames_sent = 0
        self.frames_received = 0
        #: Header + payload bytes of every frame, sent or received.
        self.bytes_pipe = 0
        self.control_roundtrips = 0

    def frame_sent(self, payload_bytes: int) -> None:
        with self._lock:
            self.frames_sent += 1
            self.bytes_pipe += _HEADER.size + payload_bytes

    def frame_received(self, payload_bytes: int) -> None:
        with self._lock:
            self.frames_received += 1
            self.bytes_pipe += _HEADER.size + payload_bytes

    def control_roundtrip(self) -> None:
        with self._lock:
            self.control_roundtrips += 1


#: One row per transport count: (registry name, ``counters()`` key,
#: kind, help, how to read it off a :class:`TransportStats`).
TRANSPORT_METRIC_ROWS = (
    ("repro_transport_frames_total", "transport_frames_sent", "counter",
     "frames sent over worker pipes", lambda t: t.frames_sent),
    ("repro_transport_frames_received_total", "transport_frames_received",
     "counter", "frames received over worker pipes",
     lambda t: t.frames_received),
    ("repro_transport_bytes_pipe_total", "transport_bytes_pipe", "counter",
     "bytes shipped over worker pipes, both directions",
     lambda t: t.bytes_pipe),
    ("repro_transport_control_roundtrips_total", "transport_control_roundtrips",
     "counter", "control-channel RPC round-trips",
     lambda t: t.control_roundtrips),
)


def _write_exact(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        n = os.write(fd, view)
        view = view[n:]


def _read_exact(fd: int, n: int) -> bytes:
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = os.read(fd, remaining)
        if not chunk:
            raise EOFError("pipe closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class FrameConn:
    """One framed, typed-message endpoint over a pipe fd.

    ``send(kind, obj)`` pickles ``obj`` once (protocol 5) and writes
    one frame; ``recv()`` reads one frame and returns ``(kind, obj)``.
    Sends are serialized by a lock (a control thread and an RPC caller
    may share one endpoint); receives are expected from a single reader
    thread. Raises :class:`EOFError` once the peer is gone — the caller
    translates that into its own death handling.
    """

    def __init__(self, conn, stats: Optional[TransportStats] = None) -> None:
        #: The Connection is kept (not just its fd) so the underlying
        #: descriptor stays open exactly as long as this endpoint.
        self._conn = conn
        self._fd = conn.fileno()
        self.stats = stats
        self._send_lock = threading.Lock()
        self._closed = False

    def send(self, kind: int, obj) -> None:
        """Frame and write one message; never partially interleaved."""
        payload = pickle.dumps(obj, protocol=5)
        header = _HEADER.pack(kind, len(payload))
        with self._send_lock:
            if self._closed:
                raise EOFError("transport endpoint closed")
            try:
                _write_exact(self._fd, header + payload)
            except (BrokenPipeError, OSError) as exc:
                raise EOFError(f"peer gone: {exc}") from exc
        if self.stats is not None:
            self.stats.frame_sent(len(payload))

    def recv(self) -> Tuple[int, object]:
        """Read one frame; blocks until a full message arrives."""
        try:
            header = _read_exact(self._fd, _HEADER.size)
        except OSError as exc:
            raise EOFError(f"peer gone: {exc}") from exc
        kind, length = _HEADER.unpack(header)
        obj = pickle.loads(_read_exact(self._fd, length))
        if self.stats is not None:
            self.stats.frame_received(length)
        return kind, obj

    def poll(self, timeout: float | None = 0.0) -> bool:
        """Is a frame (or EOF) ready to read?"""
        return self._conn.poll(timeout)

    def hang_up(self) -> None:
        """Shut the socket under this endpoint down both ways, leaving
        it open: a read blocked on either end returns EOF and a later
        write raises, as when the process at one end dies."""
        try:
            with socket.socket(fileno=os.dup(self._fd)) as sock:
                sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed, or not a socket

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.close()
        except OSError:
            pass
