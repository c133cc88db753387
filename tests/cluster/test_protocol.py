"""Tests for the frame protocol: binary data-plane layouts, JSON for the rest."""

from __future__ import annotations

import json
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Dataset, Estimator
from repro.cluster import protocol, server
from repro.cluster.protocol import (
    MAX_FRAME_BYTES,
    MAX_ROW_IDS,
    ProtocolError,
    decode_payload,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.cluster.worker import worker_main
from repro.data.registry import DATASET_PROFILES


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestRoundTrip:
    def test_one_frame_round_trips(self, pair):
        left, right = pair
        message = {"op": "predict", "id": 7, "row_id": 42, "deadline": None}
        send_frame(left, message)
        assert recv_frame(right) == message

    def test_frames_preserve_order(self, pair):
        left, right = pair
        for i in range(10):
            send_frame(left, {"id": i})
        assert [recv_frame(right)["id"] for _ in range(10)] == list(range(10))

    def test_large_frame_round_trips(self, pair):
        left, right = pair
        message = {"values": list(range(50_000))}
        # sendall on a socketpair can block once the kernel buffer fills;
        # write from a helper thread while this side reads.
        sender = threading.Thread(target=send_frame, args=(left, message))
        sender.start()
        received = recv_frame(right)
        sender.join(timeout=10)
        assert received == message

    def test_unicode_survives(self, pair):
        left, right = pair
        send_frame(left, {"message": "déjà vu — ⚡"})
        assert recv_frame(right)["message"] == "déjà vu — ⚡"


class TestEdges:
    def test_clean_eof_returns_none(self, pair):
        left, right = pair
        left.close()
        assert recv_frame(right) is None

    def test_mid_frame_eof_is_a_protocol_error(self, pair):
        left, right = pair
        payload = b'{"id": 1}'
        left.sendall(struct.pack(">I", len(payload)) + payload[:3])
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(right)

    def test_oversized_header_rejected_without_allocating(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="claims"):
            recv_frame(right)

    def test_oversized_send_rejected(self, pair):
        left, _ = pair
        with pytest.raises(ProtocolError, match="exceeds"):
            send_frame(left, {"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_non_json_payload_rejected(self, pair):
        left, right = pair
        garbage = b"\xff\xfe not json"
        left.sendall(struct.pack(">I", len(garbage)) + garbage)
        with pytest.raises(ProtocolError, match="JSON"):
            recv_frame(right)

    def test_non_object_payload_rejected(self, pair):
        left, right = pair
        payload = b"[1, 2, 3]"
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="object"):
            recv_frame(right)

    def test_empty_object_round_trips(self, pair):
        left, right = pair
        send_frame(left, {})
        assert recv_frame(right) == {}

    def test_a_message_json_cannot_carry_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="cannot be framed"):
            encode_frame({"id": 1, "ok": True, "value": object()})


# -- the binary layouts ---------------------------------------------------------

INT64 = st.integers(-(2**63), 2**63 - 1)
SPECIAL_FLOATS = [
    float("nan"),
    struct.unpack(">d", bytes.fromhex("7ff0000000000123"))[0],  # signalling NaN, payload
    struct.unpack(">d", bytes.fromhex("fff8000000000001"))[0],  # negative quiet NaN
    float("inf"),
    float("-inf"),
    -0.0,
    5e-324,
    -2.2250738585072e-308,  # subnormal
]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
DEADLINES = st.one_of(st.none(), st.sampled_from([0.0, 1e300]), st.floats(allow_nan=False))


def _bits(value: float) -> bytes:
    return struct.pack(">d", value)


def _payload(message: dict) -> bytes:
    """``message``'s frame without its header, after checking the header."""
    frame = encode_frame(message)
    assert struct.unpack(">I", frame[:4])[0] == len(frame) - 4
    return frame[4:]


class TestBinaryLayouts:
    @settings(max_examples=200, deadline=None)
    @given(req_id=INT64, row_id=INT64, deadline=DEADLINES)
    def test_predict(self, req_id, row_id, deadline):
        message = {"op": "predict", "id": req_id, "row_id": row_id, "deadline": deadline}
        payload = _payload(message)
        assert len(payload) == 25 and payload[0] == 1
        assert decode_payload(payload) == message

    @settings(max_examples=200, deadline=None)
    @given(req_id=INT64, value=FLOATS)
    def test_value_reply_is_bit_exact(self, req_id, value):
        payload = _payload({"id": req_id, "ok": True, "value": value})
        assert len(payload) == 17 and payload[0] == 2
        decoded = decode_payload(payload)
        assert decoded.keys() == {"id", "ok", "value"}
        assert decoded["id"] == req_id and decoded["ok"] is True
        assert type(decoded["value"]) is float and _bits(decoded["value"]) == _bits(value)

    @settings(max_examples=100, deadline=None)
    @given(req_id=INT64, row_ids=st.lists(INT64, max_size=40), deadline=DEADLINES)
    def test_predict_many(self, req_id, row_ids, deadline):
        message = {"op": "predict_many", "id": req_id, "row_ids": row_ids, "deadline": deadline}
        payload = _payload(message)
        assert len(payload) == 17 + 8 * len(row_ids) and payload[0] == 3
        assert decode_payload(payload) == message
        message["row_ids"] = np.asarray(row_ids, dtype=np.int64)  # what the dispatcher sends
        assert _payload(message) == payload

    @settings(max_examples=100, deadline=None)
    @given(req_id=INT64, values=st.lists(FLOATS, max_size=40))
    def test_values_reply_is_bit_exact(self, req_id, values):
        payload = _payload({"id": req_id, "ok": True, "values": values})
        assert len(payload) == 9 + 8 * len(values) and payload[0] == 4
        decoded = decode_payload(payload)
        assert decoded["id"] == req_id and decoded["ok"] is True
        assert [_bits(v) for v in decoded["values"]] == [_bits(v) for v in values]
        array = np.asarray(values, dtype=np.float64)
        assert _payload({"id": req_id, "ok": True, "values": array}) == payload

    @settings(max_examples=100, deadline=None)
    @given(
        req_id=INT64, generation=INT64, value=FLOATS, start=INT64,
        span=st.lists(FLOATS, max_size=40),
    )
    def test_scored_reply_is_bit_exact(self, req_id, generation, value, start, span):
        message = {"id": req_id, "ok": True, "generation": generation, "value": value,
                   "start": start, "span": span}
        payload = _payload(message)
        assert len(payload) == 33 + 8 * len(span) and payload[0] == 5
        decoded = decode_payload(payload)
        assert decoded.keys() == message.keys() and decoded["ok"] is True
        for key in ("id", "generation", "start"):
            assert type(decoded[key]) is int and decoded[key] == message[key]
        assert type(decoded["value"]) is float and _bits(decoded["value"]) == _bits(value)
        assert [_bits(v) for v in decoded["span"]] == [_bits(v) for v in span]
        array = np.asarray(span, dtype=np.float64)  # what a worker sends
        assert _payload({**message, "span": array}) == payload

    @pytest.mark.parametrize("n", [0, 1, 60])
    def test_a_scored_reply_has_its_exact_size(self, pair, n):
        left, right = pair
        span = np.arange(n, dtype=np.float64) / 7
        message = {"id": 3, "ok": True, "generation": 2, "value": 0.5, "start": 120, "span": span}
        frame = encode_frame(message)
        assert len(frame) == 4 + 33 + 8 * n
        left.sendall(frame)
        assert recv_frame(right) == {**message, "span": span.tolist()}

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_a_hundred_thousand_ids_and_their_answers(self, pair, as_array):
        left, right = pair
        ids = np.random.default_rng(3).integers(-(2**63), 2**63 - 1, size=100_000)
        values = np.random.default_rng(4).standard_normal(100_000)
        cases = [
            ({"op": "predict_many", "id": 1, "deadline": 2.5}, "row_ids", ids, 17),
            ({"id": 1, "ok": True}, "values", values, 9),
        ]
        for message, key, items, head in cases:
            frame = encode_frame({**message, key: items if as_array else items.tolist()})
            assert len(frame) == 4 + head + 8 * 100_000
            sender = threading.Thread(target=left.sendall, args=(frame,))
            sender.start()
            received = recv_frame(right)
            sender.join(timeout=10)
            assert not sender.is_alive()
            assert received == {**message, key: items.tolist()}

    @pytest.mark.parametrize(
        "message",
        [
            {"id": 1, "ok": True, "value": np.float64(0.5)},  # a float subclass: type not float
            {"id": 1, "ok": True, "value": 1},
            {"id": True, "ok": True, "value": 0.5},
            {"id": 1, "ok": 1, "value": 0.5},
            {"id": 2**63, "ok": True, "value": 0.5},
            {"id": 1, "ok": True, "values": [0.5, 1]},
            {"id": 1, "ok": True, "values": [0.5, np.float64(1.0)]},
            {"id": 1, "ok": True, "value": 0.5, "trace": "x"},
            {"op": "predict", "id": 1, "row_id": 2**63, "deadline": None},
            {"op": "predict", "id": 1, "row_id": 3, "deadline": 5},
            {"op": "predict", "id": 1, "row_id": 3, "deadline": float("nan")},
            {"op": "predict", "id": 1, "row_id": 3.0, "deadline": None},
            {"op": "ping", "id": 1, "row_id": 3, "deadline": None},
            {"op": "predict_many", "id": 1, "row_ids": [1, True], "deadline": None},
            {"op": "predict_many", "id": 1, "row_ids": (1, 2), "deadline": None},
            {"op": "predict_many", "id": 1, "row_ids": [1, -(2**63) - 1], "deadline": None},
            {"id": 1, "ok": True, "generation": None, "value": 0.5, "start": 0, "span": [0.5]},
            {"id": 1, "ok": True, "generation": 2, "value": 0.5, "start": True, "span": [0.5]},
            {"id": 1, "ok": True, "generation": 2, "value": 0.5, "start": 0, "span": [1]},
            {"id": 1, "ok": True, "generation": 2**63, "value": 0.5, "start": 0, "span": []},
        ],
    )
    def test_any_other_shape_travels_as_json(self, message):
        payload = _payload(message)
        assert payload == json.dumps(message, separators=(",", ":")).encode()
        assert decode_payload(payload) == json.loads(json.dumps(message))

    @pytest.mark.parametrize("tag, lengths", [
        (1, [24, 26]),
        (2, [16, 18]),
        (3, [16, 18, 32, 34]),  # around 0 and 2 row ids
        (4, [8, 10, 24, 26]),  # around 0 and 2 values
        (5, [32, 34, 48, 50]),  # around a span of 0 and 2 scores
    ])
    def test_every_tag_at_a_wrong_length_is_a_protocol_error(self, pair, tag, lengths):
        left, right = pair
        for length in lengths:
            payload = bytes([tag]) + bytes(length - 1)
            with pytest.raises(ProtocolError, match=f"tag {tag} cannot be {length} bytes"):
                decode_payload(payload)
            left.sendall(struct.pack(">I", length) + payload)
            with pytest.raises(ProtocolError):
                recv_frame(right)

    @pytest.mark.parametrize("first", [0, 6, 0x7A, 0x7C, 0xFF, ord("["), ord(" ")])
    def test_an_unknown_tag_is_a_protocol_error(self, first):
        for size in (1, 17, 25):
            with pytest.raises(ProtocolError, match="neither a JSON object nor a binary frame"):
                decode_payload(bytes([first]) + bytes(size - 1))

    def test_an_empty_payload_is_a_protocol_error(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 0))
        with pytest.raises(ProtocolError):
            recv_frame(right)

    def test_a_truncated_binary_frame_is_a_protocol_error(self, pair):
        left, right = pair
        frame = encode_frame({"op": "predict", "id": 1, "row_id": 2, "deadline": None})
        left.sendall(frame[:-3])
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(right)

    def test_the_row_id_bound_fills_one_frame(self):
        ids = np.zeros(MAX_ROW_IDS, dtype=np.int64)
        frame = encode_frame({"op": "predict_many", "id": 1, "row_ids": ids, "deadline": None})
        assert len(frame) - 4 <= MAX_FRAME_BYTES
        ids = np.zeros(MAX_ROW_IDS + 1, dtype=np.int64)
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"op": "predict_many", "id": 1, "row_ids": ids, "deadline": None})


@pytest.mark.parametrize(
    "message",
    [
        {"op": "ping", "id": 3},
        {"op": "metrics", "id": 4},
        {"op": "shutdown", "id": 9},
        {"op": "ready", "ok": True, "pid": 1234},
        {"op": "ready", "ok": False, "error": "FileNotFoundError", "message": "no shard manifest"},
        {"id": 9, "ok": True},
        {"id": 5, "ok": False, "error": "deadline", "message": "deadline passed in queue"},
        {"id": 5, "ok": False, "error": "unframeable", "message": "frame of 9 bytes exceeds 8"},
        {"id": 1, "ok": True, "pid": 7, "generation": 2, "queue_depth": 0},
    ],
)
def test_control_and_error_frames_are_the_json_they_always_were(pair, message):
    left, right = pair
    send_frame(left, message)
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    assert right.recv(65536) == struct.pack(">I", len(payload)) + payload


# -- what a real worker puts on the wire ------------------------------------------

N_ROWS = 240


@pytest.fixture(scope="module")
def published(tmp_path_factory):
    features, labels = DATASET_PROFILES["census"].classification(N_ROWS, seed=21)
    shard_dir = tmp_path_factory.mktemp("protocol-shards")
    registry = tmp_path_factory.mktemp("protocol-registry")
    dataset = Dataset.create(
        shard_dir, features, labels, scheme="TOC", batch_size=60, workers=1
    )
    estimator = Estimator("logreg", epochs=2, learning_rate=0.3)
    estimator.fit(dataset)
    estimator.save(registry)
    return registry, shard_dir, estimator.predict(dataset)


@pytest.fixture()
def worker(published):
    """A real worker on a thread at the far end of a socketpair: the test is its dispatcher."""
    registry, shard_dir, _ = published
    dispatcher_end, worker_end = socket.socketpair()
    dispatcher_end.settimeout(10.0)  # a wedged worker fails the test instead of hanging it
    config = {"worker_index": 90, "checkpoint_dir": str(registry), "shard_dir": str(shard_dir)}
    thread = threading.Thread(target=worker_main, args=(config, worker_end), daemon=True)
    thread.start()
    try:
        assert recv_frame(dispatcher_end)["ok"] is True  # ready
        yield dispatcher_end
        send_frame(dispatcher_end, {"op": "shutdown", "id": -1})
        assert recv_frame(dispatcher_end) == {"id": -1, "ok": True}
    finally:
        dispatcher_end.close()
        thread.join(timeout=10)
        worker_end.close()
    assert not thread.is_alive()


def _raw_payload(sock: socket.socket) -> bytes:
    (length,) = struct.unpack(">I", sock.recv(4, socket.MSG_WAITALL))
    return sock.recv(length, socket.MSG_WAITALL)


class TestWorkerOnTheWire:
    def test_a_hot_predict_and_its_answer_travel_at_fixed_sizes(self, worker, published):
        # Counts bytes, not time: a reply value that is not exactly a Python
        # float (an np.float64, say) would silently fall back to JSON here.
        _, _, expected = published
        for req_id in (1, 2, 3):  # a miss scores shard 0 on the batcher; then hits on the reader
            request = encode_frame({"op": "predict", "id": req_id, "row_id": 7, "deadline": 5.0})
            assert len(request) == 4 + 25
            worker.sendall(request)
            payload = _raw_payload(worker)
            # A scored reply: the value, and all of shard 0 (rows 0-59) at generation 1.
            assert len(payload) == 33 + 60 * 8 and payload[0] == 5
            assert decode_payload(payload) == {
                "id": req_id, "ok": True, "generation": 1, "value": expected[7],
                "start": 0, "span": expected[:60].tolist(),
            }
        rows = [1, 70, 200]
        send_frame(worker, {"op": "predict_many", "id": 4, "row_ids": rows, "deadline": None})
        payload = _raw_payload(worker)
        assert len(payload) == 9 + 3 * 8 and payload[0] == 4
        assert decode_payload(payload)["values"] == expected[rows].tolist()

    def test_the_dispatcher_sends_a_predict_at_its_fixed_size(self, published, monkeypatch):
        registry, shard_dir, expected = published
        sizes = []

        def spy(sock, message):
            if message.get("op") in ("predict", "predict_many"):
                sizes.append(len(encode_frame(message)))
            send_frame(sock, message)

        monkeypatch.setattr(server, "send_frame", spy)
        with server.ClusterService(registry, shard_dir=shard_dir, workers=1) as one:
            # Two shards, so that neither predict is a row the dispatcher holds.
            assert [one.predict(7), one.predict(70, deadline=5.0)] == expected[[7, 70]].tolist()
            assert one.predict_many([1, 2]) == expected[[1, 2]].tolist()
        assert sizes == [4 + 25, 4 + 25, 4 + 17 + 2 * 8]

    def test_a_reply_that_cannot_be_framed_is_answered_with_the_reason(self, worker, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 1024)
        ids = list(range(10)) * 20  # ~400 bytes as JSON; their 200 answers need 1609 as floats
        payload = json.dumps({"op": "predict_many", "id": 5, "row_ids": ids, "deadline": None})
        worker.sendall(struct.pack(">I", len(payload)) + payload.encode())
        reply = recv_frame(worker)
        assert reply == {"id": 5, "ok": False, "error": "unframeable",
                         "message": "frame of 1609 bytes exceeds 1024"}
        assert server._ERROR_CLASSES["unframeable"] is ProtocolError  # what the caller raises
        send_frame(worker, {"op": "predict", "id": 6, "row_id": 0, "deadline": None})
        assert recv_frame(worker)["ok"] is True  # the worker serves on
