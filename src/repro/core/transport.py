"""Framed socket transport for remote sweep workers.

The supervised sweep's worker boundary was built on ``multiprocessing``
duplex pipes: tuple messages, synchronous sends, EOF the instant the
peer dies.  This module lifts exactly that contract onto TCP so a
worker can run on another machine — :class:`FramedConnection` carries
the same tuples (``("heartbeat", name)``, ``("pair-done", ...)``, ...)
as length-prefixed pickle frames, exposes the same ``send`` / ``recv``
/ ``poll`` / ``fileno`` surface a pipe connection does, and degrades
the same way: a clean peer close reads as :class:`EOFError`, so the
coordinator's drain/reap machinery treats a vanished remote worker
exactly like a crashed local one.

What a socket adds over a pipe is *ways to half-fail*, and those are
made explicit instead of hanging:

* **Torn frames** — a peer that dies mid-``send`` leaves a partial
  frame on the wire.  :meth:`FramedConnection.recv` detects the
  truncation and raises :class:`TornFrameError`, which is *also* an
  :class:`EOFError`: every existing "peer is gone" handler fires, but
  tests can still assert the distinct failure shape.
* **Half-open connections** — a peer that vanishes without FIN (power
  loss, cable pull) leaves reads hanging forever.  Mid-frame reads run
  under ``frame_timeout`` (frames are small; a stalled remainder means
  a dead peer, not a slow one) and TCP keepalive is enabled; the
  primary defence stays the coordinator's application-level liveness
  timeout, which needs no cooperation from the kernel.
* **Version/option skew** — the :func:`server_handshake` /
  :func:`client_handshake` pair rejects a protocol-version mismatch
  outright, and the worker recomputes the **options fingerprint**
  (:func:`options_fingerprint`) over the options it actually decoded:
  if pickling skew delivered different key-affecting options than the
  coordinator hashed, the worker refuses before computing a single
  pair that could diverge from the conformance oracle.

Chaos sites (:mod:`repro.core.chaos`): ``net-stall`` (autonomous —
delay a send past the liveness window), ``net-send`` with the
``torn-write`` advisory (write half a frame, then die like a torn
sender), and ``net-accept`` with the ``drop`` advisory (the acceptor
closes a just-accepted connection, exercised at the coordinator's
accept site).

Frames are pickles, so the transport trusts its network the way the
pipe trusted ``fork``: run it on a loopback, a LAN you control, or a
tunnel — never an untrusted interface.
"""

from __future__ import annotations

import hashlib
import pickle
import select
import socket
import struct
import time
from typing import Optional, Tuple

from repro.core import chaos
from repro.core.compose import index_options_key
from repro.core.options import ComposeOptions
from repro.errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "TransportError",
    "TornFrameError",
    "HandshakeError",
    "FramedConnection",
    "Listener",
    "connect",
    "options_fingerprint",
    "client_handshake",
    "server_handshake",
    "parse_address",
]

#: Bump on any incompatible change to framing, handshake payloads or
#: message meanings; mismatched peers refuse each other at the
#: handshake instead of mis-decoding frames.  Version 2: the hello no
#: longer says whether the worker keeps a store, and digest-fetch
#: answers with a model's SBML text instead of a store entry.
PROTOCOL_VERSION = 2

#: ``>I`` — 4-byte big-endian payload length prefix.
_HEADER = struct.Struct(">I")

#: Sanity ceiling on one frame (the largest real message is a shard
#: assignment: a list of index pairs).  A length prefix beyond this is
#: stream corruption, not a message.
MAX_FRAME = 64 * 1024 * 1024

#: Seconds a *mid-frame* read may stall before the peer is declared
#: half-open.  Generous: frames are small and senders write them in
#: one ``sendall``, so a remainder that takes this long is a dead
#: peer, not a congested one.
DEFAULT_FRAME_TIMEOUT = 30.0


class TransportError(ReproError, ConnectionError):
    """A socket-transport failure.

    Derives from :class:`ConnectionError` (hence ``OSError``) so every
    pipe-era ``except (EOFError, OSError)`` peer-death handler already
    catches it."""


class TornFrameError(TransportError, EOFError):
    """The stream ended (or stalled) inside a frame — the peer died
    mid-``send``.  Also an :class:`EOFError`: to the coordinator this
    *is* a dead peer, just a distinguishable one."""


class HandshakeError(TransportError):
    """The peer failed or refused the hello/welcome exchange."""


def options_fingerprint(options: Optional[ComposeOptions]) -> str:
    """Stable digest of the key-affecting compose options.

    Hashes :func:`~repro.core.compose.index_options_key` — the same
    fingerprint that gates stored signature reuse — so two processes
    agreeing on this value produce byte-identical pair outcomes.
    ``None`` means the defaults (what the coordinator passes when no
    options were given).
    """
    key = index_options_key(options if options is not None else ComposeOptions())
    return hashlib.blake2b(
        repr(key).encode("utf-8"), digest_size=16
    ).hexdigest()


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``; bare ``":port"`` binds all
    interfaces."""
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"expected HOST:PORT, got {address!r}"
        )
    return host or "0.0.0.0", int(port)


def _message_kind(obj: object) -> str:
    if isinstance(obj, tuple) and obj and isinstance(obj[0], str):
        return obj[0]
    return type(obj).__name__


class FramedConnection:
    """One duplex peer connection carrying length-prefixed pickles.

    Pipe-shaped on purpose: ``send(obj)`` / ``recv()`` / ``poll(t)`` /
    ``fileno()`` / ``close()`` mirror ``multiprocessing.Connection``,
    so :func:`multiprocessing.connection.wait` and the coordinator's
    drain loop take either kind of worker channel unchanged.
    """

    def __init__(self, sock: socket.socket, frame_timeout: float = DEFAULT_FRAME_TIMEOUT):
        self._sock = sock
        self.frame_timeout = frame_timeout
        self._buffer = bytearray()
        self._eof = False
        self._closed = False
        sock.setblocking(True)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - exotic socket types
            pass

    # ------------------------------------------------------------------
    # Pipe-compatible surface
    # ------------------------------------------------------------------

    def fileno(self) -> int:
        return self._sock.fileno()

    def send(self, obj: object) -> None:
        """Pickle ``obj`` and write it as one frame.

        Chaos sites: ``net-stall`` (autonomous; a stalled link delays
        the message past the liveness window) and ``net-send`` with
        the ``torn-write`` advisory — write *half* the frame, close
        the socket and die via :class:`~repro.core.chaos.ChaosKill`,
        exactly the wire state a sender killed mid-``sendall`` leaves.
        """
        if self._closed:
            raise TransportError("send on closed connection")
        kind = _message_kind(obj)
        chaos.trip("net-stall", kind=kind)
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _HEADER.pack(len(payload)) + payload
        if chaos.advice("net-send", "torn-write", kind=kind):
            torn = frame[: max(1, len(frame) // 2)]
            try:
                self._sock.sendall(torn)
            except OSError:
                pass
            self.close()
            raise chaos.ChaosKill(
                f"chaos torn frame at net-send (kind={kind})"
            )
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def recv(self) -> object:
        """The next message; :class:`EOFError` on a clean peer close,
        :class:`TornFrameError` on a truncated or stalled frame."""
        header = self._read_exact(_HEADER.size, start_of_frame=True)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME:
            raise TransportError(
                f"frame length {length} exceeds {MAX_FRAME} bytes — "
                f"stream corruption or a non-protocol peer"
            )
        payload = self._read_exact(length, start_of_frame=False)
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise TransportError(
                f"undecodable frame ({len(payload)} bytes): {exc}"
            ) from exc

    def poll(self, timeout: Optional[float] = 0.0) -> bool:
        """Whether :meth:`recv` would return without blocking on the
        peer — a complete buffered frame, or EOF (``recv`` then raises
        immediately, like a pipe)."""
        if self._complete_frame() or self._eof:
            return True
        if self._closed:
            return True
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            try:
                ready, _, _ = select.select([self._sock], [], [], remaining)
            except OSError:
                self._eof = True
                return True
            if not ready:
                return False
            try:
                chunk = self._sock.recv(65536)
            except OSError:
                self._eof = True
                return True
            if not chunk:
                self._eof = True
                return True
            self._buffer += chunk
            if self._complete_frame():
                return True
            if remaining == 0.0:
                return False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _complete_frame(self) -> bool:
        if len(self._buffer) < _HEADER.size:
            return False
        (length,) = _HEADER.unpack(bytes(self._buffer[: _HEADER.size]))
        return len(self._buffer) >= _HEADER.size + length

    def _read_exact(self, count: int, *, start_of_frame: bool) -> bytes:
        """``count`` bytes, buffer first then socket.

        At a frame boundary an EOF is clean (:class:`EOFError`);
        inside a frame it is a torn frame, and a read that stalls past
        ``frame_timeout`` is a half-open peer — both raise
        :class:`TornFrameError`.
        """
        while len(self._buffer) < count:
            mid_frame = not start_of_frame or bool(self._buffer)
            try:
                if mid_frame:
                    self._sock.settimeout(self.frame_timeout)
                try:
                    chunk = b"" if self._eof else self._sock.recv(65536)
                finally:
                    if mid_frame:
                        self._sock.settimeout(None)
            except socket.timeout as exc:
                raise TornFrameError(
                    f"peer stalled mid-frame for {self.frame_timeout:g}s "
                    f"(half-open connection?)"
                ) from exc
            except OSError as exc:
                if mid_frame:
                    raise TornFrameError(
                        f"connection lost mid-frame: {exc}"
                    ) from exc
                raise EOFError(f"connection lost: {exc}") from exc
            if not chunk:
                self._eof = True
                if mid_frame:
                    raise TornFrameError(
                        f"stream ended mid-frame ({len(self._buffer)} of "
                        f"{count} bytes) — peer died mid-send"
                    )
                raise EOFError("peer closed the connection")
            self._buffer += chunk
        data = bytes(self._buffer[:count])
        del self._buffer[:count]
        return data


class Listener:
    """A listening TCP socket whose ``accept`` yields framed
    connections.  Exposes ``fileno()`` so the coordinator can wait on
    it alongside worker channels, and ``address`` so binding port 0
    (tests, ephemeral setups) reports the real port."""

    def __init__(self, host: str, port: int, backlog: int = 16):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
            self._sock.listen(backlog)
        except BaseException:
            self._sock.close()
            raise
        #: The bound ``(host, port)`` — the real port when 0 was asked.
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]

    def fileno(self) -> int:
        return self._sock.fileno()

    def accept(self) -> Tuple[FramedConnection, Tuple[str, int]]:
        sock, addr = self._sock.accept()
        return FramedConnection(sock), addr[:2]

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def connect(
    host: str, port: int, timeout: Optional[float] = 10.0
) -> FramedConnection:
    """Dial a coordinator; raises :class:`TransportError` on refusal."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(
            f"cannot connect to {host}:{port}: {exc}"
        ) from exc
    sock.settimeout(None)
    return FramedConnection(sock)


# ---------------------------------------------------------------------------
# Handshake
# ---------------------------------------------------------------------------


def client_handshake(
    conn: FramedConnection,
    *,
    host: str,
    pid: int,
) -> dict:
    """Worker side: send hello, validate the welcome, return it.

    The returned dict carries everything a remote worker needs to be a
    drop-in peer of a local pipe worker: its assigned ``name``, the
    ``options`` (+ ``options_fingerprint``, recomputed and verified
    here), the corpus ``manifest`` and ``heartbeat_interval``.  A
    fingerprint mismatch sends an explicit
    reject back (so the coordinator logs *why*) and raises
    :class:`HandshakeError` — the worker never computes a pair under
    options it cannot prove it decoded faithfully.
    """
    conn.send(
        (
            "hello",
            {
                "protocol": PROTOCOL_VERSION,
                "host": host,
                "pid": pid,
            },
        )
    )
    try:
        reply = conn.recv()
    except (EOFError, OSError) as exc:
        raise HandshakeError(
            f"coordinator closed the connection during handshake: {exc}"
        ) from exc
    kind = _message_kind(reply)
    if kind == "reject":
        raise HandshakeError(f"coordinator rejected worker: {reply[1]}")
    if kind != "welcome":
        raise HandshakeError(
            f"expected welcome, got {kind!r} — not a coordinator?"
        )
    welcome = reply[1]
    expected = welcome.get("options_fingerprint")
    actual = options_fingerprint(welcome.get("options"))
    if actual != expected:
        try:
            conn.send(
                (
                    "reject",
                    f"options fingerprint mismatch: coordinator sent "
                    f"{expected}, worker decoded {actual}",
                )
            )
        except (OSError, TransportError):
            pass
        raise HandshakeError(
            f"options fingerprint mismatch (coordinator {expected}, "
            f"decoded {actual}) — mixed versions or corrupted options; "
            f"refusing to compute pairs that could diverge"
        )
    return welcome


def server_handshake(
    conn: FramedConnection,
    *,
    name: str,
    options: Optional[ComposeOptions],
    manifest,
    heartbeat_interval: float,
    timeout: float = 10.0,
) -> dict:
    """Coordinator side: validate the hello, send the welcome, return
    the hello payload.  Rejects (with an explicit message to the peer)
    a missing/garbled hello or a protocol-version mismatch."""
    if not conn.poll(timeout):
        _reject(conn, "no hello within the handshake timeout")
    try:
        hello = conn.recv()
    except (EOFError, OSError) as exc:
        raise HandshakeError(
            f"peer vanished during handshake: {exc}"
        ) from exc
    if _message_kind(hello) != "hello":
        _reject(conn, f"expected hello, got {_message_kind(hello)!r}")
    payload = hello[1]
    protocol = payload.get("protocol")
    if protocol != PROTOCOL_VERSION:
        _reject(
            conn,
            f"protocol version mismatch: coordinator speaks "
            f"{PROTOCOL_VERSION}, worker speaks {protocol}",
        )
    conn.send(
        (
            "welcome",
            {
                "name": name,
                "options": options,
                "options_fingerprint": options_fingerprint(options),
                "manifest": manifest,
                "heartbeat_interval": heartbeat_interval,
            },
        )
    )
    return payload


def _reject(conn: FramedConnection, reason: str) -> None:
    try:
        conn.send(("reject", reason))
    except (OSError, TransportError):
        pass
    conn.close()
    raise HandshakeError(reason)
