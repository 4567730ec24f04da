"""Property tests for the shard transport: parsers and HMAC framing.

Two families:

* Parser round-trips — any valid ``host:port`` / fault spec survives a
  format→parse cycle unchanged, and any malformed input is rejected with
  the offending token named in the error message (a typo'd
  ``REPRO_SHARD_BROKER`` address must be *identifiable*, not just fatal).
* Authenticated framing — flipping **any** single byte of an authenticated
  frame (header, either digest, or payload) raises
  :class:`~repro.exceptions.AuthenticationError`, and the unpickler never
  sees a byte of the tampered frame.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.transport import (
    FAULT_KINDS,
    frame_bytes,
    parse_fault_spec,
    parse_hostport,
    recv_message,
)
from repro.exceptions import AuthenticationError, EngineError, TransportError


class _BufferSock:
    """A ``recv``-only socket fed from a byte string (no real fd churn)."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def recv(self, length: int) -> bytes:
        chunk = self._data[self._pos : self._pos + length]
        self._pos += len(chunk)
        return chunk


_HOST_CHARS = st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789.-_")
_hosts = st.text(alphabet=_HOST_CHARS, min_size=1, max_size=24)
_ports = st.integers(min_value=0, max_value=65535)


class TestParseHostportProperties:
    @given(host=_hosts, port=_ports)
    def test_roundtrip_valid(self, host, port):
        assert parse_hostport(f"{host}:{port}") == (host, port)

    @given(token=st.text(alphabet=_HOST_CHARS, min_size=1, max_size=24))
    def test_missing_port_rejected_naming_token(self, token):
        with pytest.raises(EngineError) as excinfo:
            parse_hostport(token)
        assert repr(token) in str(excinfo.value)

    @given(host=_hosts, junk=st.text(alphabet="abcdefxyz", min_size=1, max_size=8))
    def test_non_integer_port_rejected_naming_token(self, host, junk):
        value = f"{host}:{junk}"
        with pytest.raises(EngineError) as excinfo:
            parse_hostport(value)
        assert repr(value) in str(excinfo.value)

    @given(host=_hosts, port=st.integers(min_value=65536, max_value=10**9))
    def test_out_of_range_port_rejected_naming_token(self, host, port):
        value = f"{host}:{port}"
        with pytest.raises(EngineError) as excinfo:
            parse_hostport(value)
        assert repr(value) in str(excinfo.value)


_fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestParseFaultSpecProperties:
    @given(
        kwargs=st.dictionaries(st.sampled_from(FAULT_KINDS), _fractions, max_size=4),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
        delay_window=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    )
    def test_roundtrip_valid(self, kwargs, seed, delay_window):
        expected = dict(kwargs)
        if seed is not None:
            expected["seed"] = seed
        if delay_window is not None:
            expected["delay_window"] = delay_window
        spec = ",".join(f"{key}={value!r}" for key, value in expected.items())
        assert parse_fault_spec(spec) == expected

    @given(key=st.text(alphabet="qwertyuiop", min_size=1, max_size=12))
    def test_unknown_key_rejected_naming_token(self, key):
        if key in FAULT_KINDS or key in ("seed", "delay_window"):
            return
        with pytest.raises(EngineError) as excinfo:
            parse_fault_spec(f"{key}=0.5")
        assert repr(key) in str(excinfo.value)

    @given(part=st.text(alphabet="abcdefgh0123456789.", min_size=1, max_size=12))
    def test_missing_equals_rejected_naming_token(self, part):
        with pytest.raises(EngineError) as excinfo:
            parse_fault_spec(part)
        assert repr(part) in str(excinfo.value)

    @given(kind=st.sampled_from(FAULT_KINDS), junk=st.text(alphabet="xyz", min_size=1, max_size=6))
    def test_bad_value_rejected_naming_token(self, kind, junk):
        with pytest.raises(EngineError) as excinfo:
            parse_fault_spec(f"{kind}={junk}")
        assert repr(f"{kind}={junk}") in str(excinfo.value)


_payloads = st.one_of(
    st.integers(),
    st.text(max_size=64),
    st.binary(max_size=64),
    st.tuples(st.text(max_size=8), st.integers(), st.lists(st.integers(), max_size=8)),
)
_keys = st.binary(min_size=1, max_size=32)


class TestHmacFramingProperties:
    @given(payload=_payloads, key=_keys)
    def test_untampered_frame_roundtrips(self, payload, key):
        frame = frame_bytes(payload, key)
        assert recv_message(_BufferSock(frame), key) == payload

    @settings(max_examples=200)
    @given(payload=_payloads, key=_keys, data=st.data())
    def test_any_flipped_byte_authfails_before_unpickle(self, payload, key, data):
        frame = bytearray(frame_bytes(payload, key))
        index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        frame[index] ^= flip
        with mock.patch(
            "repro.engine.transport.pickle.loads",
            side_effect=AssertionError("unpickler touched a tampered frame"),
        ):
            with pytest.raises(AuthenticationError):
                recv_message(_BufferSock(bytes(frame)), key)

    @given(payload=_payloads, key=_keys)
    def test_unauthenticated_frame_rejected_by_keyed_receiver(self, payload, key):
        # A short unauthenticated frame starves the 32-byte digest read
        # (TransportError at EOF); a longer one fails verification
        # (AuthenticationError).  Either way: rejected, never unpickled.
        frame = frame_bytes(payload, key=None)
        with mock.patch(
            "repro.engine.transport.pickle.loads",
            side_effect=AssertionError("unpickler touched an unauthenticated frame"),
        ):
            with pytest.raises((AuthenticationError, TransportError)):
                recv_message(_BufferSock(frame), key)

    @given(payload=_payloads, key=_keys, other=_keys)
    def test_key_mismatch_rejected(self, payload, key, other):
        if key == other:
            return
        frame = frame_bytes(payload, key)
        with pytest.raises(AuthenticationError):
            recv_message(_BufferSock(frame), other)
