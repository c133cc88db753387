"""Length-prefixed frames over a stream socket: fixed binary layouts for the
prediction traffic, JSON for everything else.

The dispatcher and its workers live on the same machine.  Every frame is a
4-byte big-endian length header followed by that many payload bytes, and the
payload's first byte says how to read the rest — ``{`` opens a UTF-8 JSON
object, any other value is the tag of one fixed binary layout:

.. code-block:: text

    +----------------+-------------------------------------------+
    | length (>I)    | payload (length bytes): JSON or tag+fields|
    +----------------+-------------------------------------------+

==============  ===  ==============================================  ==============
frame           tag  fields after the tag, all big-endian            payload bytes
==============  ===  ==============================================  ==============
predict         1    ``id`` int64, ``row_id`` int64,                 25
                     ``deadline`` float64
value reply     2    ``id`` int64, ``value`` float64                 17
predict_many    3    ``id`` int64, ``deadline`` float64,             17 + 8 n
                     n × ``row_ids`` int64
values reply    4    ``id`` int64, n × ``values`` float64            9 + 8 n
scored reply    5    ``id`` int64, ``generation`` int64,             33 + 8 n
                     ``value`` float64, ``start`` int64,
                     n × ``span`` float64
==============  ===  ==============================================  ==============

A ``deadline`` of NaN means none.  Each tag has one exact length (``n`` follows
from it), so a wrong length, an unknown tag or a truncated frame is a
:class:`ProtocolError`.  The layout is chosen by the message's exact shape:
:func:`send_frame` writes binary only for ``{"op": "predict", "id", "row_id",
"deadline"}``, ``{"op": "predict_many", "id", "row_ids", "deadline"}`` and the
replies ``{"id", "ok": True, "value" | "values"}`` and ``{"id", "ok": True,
"generation", "value", "start", "span"}``, with ``int`` ids, generations and
starts that fit an int64, a ``float`` value (or a list of them, or a 1-D array
of that kind) and a ``float`` or ``None`` deadline; :func:`recv_frame` returns
the same dict, with lists for arrays.  Anything else travels as JSON.

A worker answers a ``predict`` with a scored reply: besides the value, the
manifest ``generation`` its score array belongs to and the run of that
array's scores from row ``start`` on (the row's whole shard, or the row
alone), which the dispatcher keeps to answer those rows itself
(:mod:`repro.cluster.server`).  No worker sends the value reply; it stays
because ``bench/layers.py`` times a predict and a value reply as its frame
round trip.

Why two encodings: a hot predict is answered in a few microseconds, and
``json.dumps`` + ``json.loads`` each way cost more than that (a JSON round
trip of a predict and its reply took 19.2 µs against 5.4 µs as structs).
Control ops, ``ready`` and every error reply stay JSON, byte for byte
``json.dumps(message, separators=(",", ":"))``: they are rare, carry
free-form fields and messages, and stay readable with ``socat``.  Neither
encoding is pickle, so a half-trusted peer cannot make the reader run code;
a feature row never crosses this boundary — workers read shard bytes from the
shared directory.  :data:`MAX_FRAME_BYTES` bounds what a frame may claim so a
corrupt header cannot make the receiver allocate gigabytes.
"""

from __future__ import annotations

import json
import math
import socket
import struct

import numpy as np

#: 4-byte big-endian unsigned frame length header.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload; larger claims are protocol errors.
#: Generous for bulk ``predict_many`` responses, tiny next to a shard.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_JSON_OPEN = ord("{")
_PREDICT_TAG, _VALUE_TAG, _PREDICT_MANY_TAG, _VALUES_TAG, _SCORED_TAG = 1, 2, 3, 4, 5
_TAGS = (_PREDICT_TAG, _VALUE_TAG, _PREDICT_MANY_TAG, _VALUES_TAG, _SCORED_TAG)
_PREDICT = struct.Struct(">Bqqd")  # tag, id, row_id, deadline
_VALUE = struct.Struct(">Bqd")  # tag, id, value
_PREDICT_MANY = struct.Struct(">Bqd")  # tag, id, deadline; the row ids follow
_VALUES = struct.Struct(">Bq")  # tag, id; the values follow
_SCORED = struct.Struct(">Bqqdq")  # tag, id, generation, value, start; the span follows
_ROW_IDS, _FLOATS = np.dtype(">i8"), np.dtype(">f8")

_PREDICT_KEYS = frozenset(("op", "id", "row_id", "deadline"))
_PREDICT_MANY_KEYS = frozenset(("op", "id", "row_ids", "deadline"))
_VALUE_KEYS = frozenset(("id", "ok", "value"))
_VALUES_KEYS = frozenset(("id", "ok", "values"))
_SCORED_KEYS = frozenset(("id", "ok", "generation", "value", "start", "span"))

#: The most row ids one ``predict_many`` frame carries.
MAX_ROW_IDS = (MAX_FRAME_BYTES - _PREDICT_MANY.size) // _ROW_IDS.itemsize


class ProtocolError(ValueError):
    """The peer sent bytes that do not parse as a sane frame, or a message
    cannot be framed."""


def encode_frame(message: dict) -> bytes:
    """One complete frame for ``message``, header included.

    Raises :class:`ProtocolError` — before anything is written anywhere — for
    a message JSON cannot carry or a payload over :data:`MAX_FRAME_BYTES`.
    """
    payload = _binary_payload(message)
    if payload is None:
        try:
            payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"message cannot be framed: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialise ``message`` and write one complete frame.

    Callers that share a socket between threads must hold their own send
    lock — ``sendall`` is atomic per call here, but interleaving two frames
    byte-wise would corrupt the stream.
    """
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one complete frame; ``None`` on clean EOF at a frame boundary.

    EOF in the *middle* of a frame means the peer died mid-send and raises
    :class:`ProtocolError` — callers treat it like a crashed peer, not like
    a graceful shutdown.
    """
    header = _recv_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame header claims {length} bytes (max {MAX_FRAME_BYTES})")
    return decode_payload(_recv_exact(sock, length, allow_eof=False))


def decode_payload(payload: bytes) -> dict:
    """The message one frame's payload (the bytes after the header) carries."""
    tag = payload[0] if payload else None
    if tag == _JSON_OPEN:
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    size = len(payload)
    if tag == _PREDICT_TAG and size == _PREDICT.size:
        _, req_id, row_id, deadline = _PREDICT.unpack(payload)
        deadline = None if math.isnan(deadline) else deadline
        return {"op": "predict", "id": req_id, "row_id": row_id, "deadline": deadline}
    if tag == _VALUE_TAG and size == _VALUE.size:
        _, req_id, value = _VALUE.unpack(payload)
        return {"id": req_id, "ok": True, "value": value}
    if tag == _PREDICT_MANY_TAG and _has_items(size, _PREDICT_MANY):
        _, req_id, deadline = _PREDICT_MANY.unpack_from(payload)
        row_ids = np.frombuffer(payload, _ROW_IDS, offset=_PREDICT_MANY.size).tolist()
        deadline = None if math.isnan(deadline) else deadline
        return {"op": "predict_many", "id": req_id, "row_ids": row_ids, "deadline": deadline}
    if tag == _VALUES_TAG and _has_items(size, _VALUES):
        _, req_id = _VALUES.unpack_from(payload)
        values = np.frombuffer(payload, _FLOATS, offset=_VALUES.size).tolist()
        return {"id": req_id, "ok": True, "values": values}
    if tag == _SCORED_TAG and _has_items(size, _SCORED):
        _, req_id, generation, value, start = _SCORED.unpack_from(payload)
        span = np.frombuffer(payload, _FLOATS, offset=_SCORED.size).tolist()
        return {"id": req_id, "ok": True, "generation": generation, "value": value,
                "start": start, "span": span}
    if tag in _TAGS:
        raise ProtocolError(f"binary frame with tag {tag} cannot be {size} bytes long")
    raise ProtocolError(
        f"frame payload of {size} bytes is neither a JSON object nor a binary frame "
        f"(first byte {payload[:1]!r})"
    )


def _binary_payload(message: dict) -> bytes | None:
    """The payload of the fixed layout ``message`` has exactly the shape of, else ``None``."""
    req_id = message.get("id")
    if type(req_id) is not int:
        return None
    keys = message.keys()
    try:
        if keys == _PREDICT_KEYS:
            row_id, deadline = message["row_id"], _wire_deadline(message["deadline"])
            if message["op"] == "predict" and type(row_id) is int and deadline is not None:
                return _PREDICT.pack(_PREDICT_TAG, req_id, row_id, deadline)
        elif keys == _VALUE_KEYS:
            value = message["value"]
            if message["ok"] is True and type(value) is float:
                return _VALUE.pack(_VALUE_TAG, req_id, value)
        elif keys == _PREDICT_MANY_KEYS:
            deadline = _wire_deadline(message["deadline"])
            if message["op"] == "predict_many" and deadline is not None:
                items = _wire_array(message["row_ids"], _ROW_IDS, int)
                if items is not None:
                    head = _PREDICT_MANY.pack(_PREDICT_MANY_TAG, req_id, deadline)
                    return head + items.tobytes()
        elif keys == _VALUES_KEYS:
            items = _wire_array(message["values"], _FLOATS, float)
            if message["ok"] is True and items is not None:
                return _VALUES.pack(_VALUES_TAG, req_id) + items.tobytes()
        elif keys == _SCORED_KEYS:
            generation, value, start = message["generation"], message["value"], message["start"]
            items = _wire_array(message["span"], _FLOATS, float)
            if (
                message["ok"] is True and type(generation) is int and type(value) is float
                and type(start) is int and items is not None
            ):
                head = _SCORED.pack(_SCORED_TAG, req_id, generation, value, start)
                return head + items.tobytes()
    except (struct.error, OverflowError):  # an int past int64: JSON carries it as it is
        pass
    return None


def _wire_array(items, dtype: np.dtype, python_type: type) -> np.ndarray | None:
    """``items`` as a big-endian ``dtype`` array, if they are exactly numbers of its
    kind: a 1-D array of that kind, or a list of nothing but ``python_type``."""
    if isinstance(items, np.ndarray):
        if items.ndim == 1 and items.dtype.kind == dtype.kind and np.can_cast(items.dtype, dtype):
            return items.astype(dtype, copy=False)
        return None
    if type(items) is list and set(map(type, items)) <= {python_type}:
        return np.array(items, dtype=dtype)
    return None


def _wire_deadline(deadline) -> float | None:
    """The float64 ``deadline`` travels as — NaN for none — or ``None`` if no
    float64 carries it exactly (an ``int``, or a NaN that would read as none)."""
    if deadline is None:
        return math.nan
    if type(deadline) is float and not math.isnan(deadline):
        return deadline
    return None


def _has_items(size: int, head: struct.Struct) -> bool:
    """Whether a payload of ``size`` bytes is ``head`` plus whole 8-byte items."""
    return size >= head.size and (size - head.size) % 8 == 0


def _recv_exact(sock: socket.socket, n: int, *, allow_eof: bool):
    """Read exactly ``n`` bytes, looping over short reads."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining} of {n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if chunks else b""


__all__ = [
    "MAX_FRAME_BYTES",
    "MAX_ROW_IDS",
    "ProtocolError",
    "decode_payload",
    "encode_frame",
    "recv_frame",
    "send_frame",
]
