"""Length-prefixed pipe protocol with shared-memory buffer offload.

The process-mode front end speaks to each worker over two duplex pipes
(request + control). Every message is one **frame**::

    <kind: 1 byte> <payload length: 4 bytes LE> <payload>

written and read with plain ``os.write``/``os.read`` on the pipe's file
descriptor — the :class:`multiprocessing.connection.Connection` object
is used only as a picklable fd carrier for ``spawn``, never for its own
wire format, so the protocol is self-contained (the door to a network
front end: the same frames work on a socket fd).

Payloads are pickled at protocol 5 with **out-of-band buffers**: on an
endpoint that has rings attached, every buffer ≥ ``shm_threshold`` is
diverted into the direction's :class:`~repro.serving.shm.ShmRing` and
replaced on the wire by an ``(offset, length)`` descriptor. Only the
control pipe has rings: a hot-swap's policy-weight tensors and the
state stacks of drained experience go through them. The request pipe
is built without rings and carries pickled ``Query`` / ``ServedPlan``
objects in-band. Buffers that do not fit the ring fall back to in-band
bytes (counted, so the fallback is observable), which keeps the ring a
pure fast path.

:class:`TransportStats` counts frames and bytes per lane (pipe vs shm)
plus control-channel round-trips; :data:`TRANSPORT_METRIC_ROWS` names
each count once, for the front end's registry and ``counters()`` →
``repro info --probe``.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
from typing import List, Optional, Tuple

from repro.serving.shm import ShmRing

__all__ = [
    "FrameConn",
    "TransportStats",
    "TRANSPORT_METRIC_ROWS",
    "DEFAULT_SHM_THRESHOLD",
]

#: Buffers at or above this size are diverted to the shm ring.
DEFAULT_SHM_THRESHOLD = 1024

_HEADER = struct.Struct("<BI")


class TransportStats:
    """Thread-safe transport counters (one instance per front end)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_pipe = 0
        self.bytes_shm = 0
        #: Out-of-band buffers that did not fit the ring and went inline.
        self.shm_fallbacks = 0
        self.control_roundtrips = 0

    def frame_sent(self, payload_bytes: int) -> None:
        with self._lock:
            self.frames_sent += 1
            self.bytes_pipe += _HEADER.size + payload_bytes

    def frame_received(self, payload_bytes: int) -> None:
        with self._lock:
            self.frames_received += 1

    def shm_written(self, n: int) -> None:
        with self._lock:
            self.bytes_shm += n

    def shm_fallback(self) -> None:
        with self._lock:
            self.shm_fallbacks += 1

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
     "bytes shipped in-band over worker pipes", lambda t: t.bytes_pipe),
    ("repro_transport_bytes_shm_total", "transport_bytes_shm", "counter",
     "bytes shipped out-of-band through shm rings", lambda t: t.bytes_shm),
    ("repro_transport_shm_fallbacks_total", "transport_shm_fallbacks", "counter",
     "out-of-band buffers that fell back to in-band transfer",
     lambda t: t.shm_fallbacks),
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

    ``send(kind, obj)`` pickles ``obj`` (protocol 5), diverting large
    buffers through ``send_ring`` when one is attached; ``recv()``
    returns ``(kind, obj)``, reading diverted buffers back out of
    ``recv_ring``. Sends are serialized by a lock (a control thread and
    an RPC caller may share one endpoint); receives are expected from a
    single reader thread. Raises :class:`EOFError` once the peer is
    gone — the caller translates that into its own death handling.
    """

    def __init__(
        self,
        conn,
        send_ring: Optional[ShmRing] = None,
        recv_ring: Optional[ShmRing] = None,
        stats: Optional[TransportStats] = None,
        shm_threshold: int = DEFAULT_SHM_THRESHOLD,
    ) -> None:
        #: The Connection is kept (not just its fd) so the underlying
        #: descriptor stays open exactly as long as this endpoint.
        self._conn = conn
        self._fd = conn.fileno()
        self.send_ring = send_ring
        self.recv_ring = recv_ring
        self.stats = stats
        self.shm_threshold = shm_threshold
        self._send_lock = threading.Lock()
        self._closed = False

    # -- send ----------------------------------------------------------
    def send(self, kind: int, obj) -> None:
        """Frame and write one message; never partially interleaved."""
        buffers: List[pickle.PickleBuffer] = []

        def divert(buf: pickle.PickleBuffer) -> bool:
            # pickle semantics: a *false* return serializes the buffer
            # out-of-band (the unpickler pulls it from ``buffers=``); a
            # true return keeps it in-band inside the pickle stream.
            if (
                self.send_ring is not None
                and buf.raw().nbytes >= self.shm_threshold
            ):
                buffers.append(buf)
                return False  # out-of-band: shipped via the ring
            return True  # small: stays in-band

        body = pickle.dumps(obj, protocol=5, buffer_callback=divert)
        descriptors: List[Tuple[str, object, int]] = []
        shm_bytes = 0
        for buf in buffers:
            raw = buf.raw()
            offset = self.send_ring.try_write(raw)
            if offset is None:
                # Ring full (or buffer larger than the ring): inline.
                descriptors.append(("inline", raw.tobytes(), raw.nbytes))
                if self.stats is not None:
                    self.stats.shm_fallback()
            else:
                descriptors.append(("shm", offset, raw.nbytes))
                shm_bytes += raw.nbytes
            buf.release()
        payload = pickle.dumps((descriptors, body), protocol=5)
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
            if shm_bytes:
                self.stats.shm_written(shm_bytes)

    # -- receive -------------------------------------------------------
    def recv(self) -> Tuple[int, object]:
        """Read one frame; blocks until a full message arrives."""
        try:
            header = _read_exact(self._fd, _HEADER.size)
        except OSError as exc:
            raise EOFError(f"peer gone: {exc}") from exc
        kind, length = _HEADER.unpack(header)
        payload = _read_exact(self._fd, length)
        descriptors, body = pickle.loads(payload)
        buffers: List[bytes] = []
        free_upto = None
        for lane, ref, nbytes in descriptors:
            if lane == "shm":
                buffers.append(self.recv_ring.read(ref, nbytes))
                free_upto = ref + nbytes
            else:
                buffers.append(ref)
        if free_upto is not None:
            # Everything is copied out: hand the space back in one move.
            self.recv_ring.advance(free_upto)
        obj = pickle.loads(body, buffers=buffers)
        if self.stats is not None:
            self.stats.frame_received(length)
        return kind, obj

    def poll(self, timeout: float | None = 0.0) -> bool:
        """Is a frame (or EOF) ready to read?"""
        return self._conn.poll(timeout)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.close()
        except OSError:
            pass
