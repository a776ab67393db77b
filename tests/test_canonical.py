"""Canonical serialization: determinism, strictness, and file helpers."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from caslite.canonical import (
    canonical_json,
    decode_blocks,
    encode_block,
    from_hex,
    parse_canonical,
    to_hex,
    write_atomic,
    write_private,
)
from caslite.errors import MalformedMessage

import oracles

scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.text(max_size=20),
)
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


def test_no_whitespace_and_sorted_keys():
    data = canonical_json({"b": 1, "a": [True, "x"], "c": {"z": 0, "y": 1}})
    assert data == b'{"a":[true,"x"],"b":1,"c":{"y":1,"z":0}}'


def test_rejects_floats_and_none():
    with pytest.raises(MalformedMessage):
        canonical_json({"x": 1.5})
    with pytest.raises(MalformedMessage):
        canonical_json({"x": None})
    with pytest.raises(MalformedMessage):
        canonical_json({1: "x"})


@given(documents)
def test_round_trip_and_determinism(doc):
    data = canonical_json(doc)
    assert json.loads(data.decode("utf-8")) == doc
    assert canonical_json(json.loads(data.decode("utf-8"))) == data
    assert parse_canonical(data) == doc


def test_parse_rejects_non_canonical_bytes():
    with pytest.raises(MalformedMessage):
        parse_canonical(b'{"b": 1}')  # whitespace
    with pytest.raises(MalformedMessage):
        parse_canonical(b'{"b":1,"a":2}')  # unsorted keys
    with pytest.raises(MalformedMessage):
        parse_canonical(b"not json")
    with pytest.raises(MalformedMessage):
        parse_canonical(b'{"a":1.0}')


def test_trusted_encode_skips_only_the_type_check():
    doc = {"b": [1, True, "é"], "a": {"x": "y"}}
    assert canonical_json(doc, trusted=True) == canonical_json(doc)
    assert canonical_json({"x": None}, trusted=True) == b'{"x":null}'


@pytest.mark.parametrize("data", oracles.CRASHED_REFERENCE.values(), ids=oracles.CRASHED_REFERENCE)
def test_inputs_that_crashed_the_first_parse_are_malformed(data):
    with pytest.raises(Exception) as crash:
        oracles.reference_parse_canonical(data)
    assert not isinstance(crash.value, oracles.Rejected)
    with pytest.raises(MalformedMessage):
        parse_canonical(data)


# JSON texts built to hit every way a byte string can miss the canonical form.
SCALAR_TEXTS = [
    b"null", b"true", b"false", b"0", b"-0", b"7", b"-12", b"01", b"1.5", b"-0.0", b"1e5",
    b"2E+3", b"NaN", b"Infinity", b"-Infinity", b'""', b'"\\u00e9"', "\"é\"".encode(),
    b'"\\n"', b'"\\/"', b'"\\ud800"', b'"\\ud83d\\ude00"', "\"😀\"".encode(),
    b'"\xed\xa0\x80"', b'"\xff"', b'"\x01"', b'"\\u0001"',
]
KEY_TEXTS = [b'"a"', b'"b"', b'"\\u0061"', "\"é\"".encode(), "\"e\u0301\"".encode(), b'""']
SEPARATORS = st.sampled_from([b",", b", ", b" ,"])
COLONS = st.sampled_from([b":", b": "])
json_texts = st.recursive(
    st.sampled_from(SCALAR_TEXTS) | st.text(max_size=6).map(
        lambda t: json.dumps(t, ensure_ascii=False).encode("utf-8", "surrogatepass")),
    lambda inner: st.one_of(
        st.builds(lambda items, sep: b"[" + sep.join(items) + b"]",
                  st.lists(inner, max_size=4), SEPARATORS),
        st.builds(lambda pairs, sep, colon: b"{" + sep.join(k + colon + v for k, v in pairs) + b"}",
                  st.lists(st.tuples(st.sampled_from(KEY_TEXTS), inner), max_size=4),
                  SEPARATORS, COLONS),
    ),
    max_leaves=12,
)


def _outcome(parse, data: bytes, refusals: tuple) -> str:
    try:
        value = parse(data)
    except refusals:
        return "refused"
    return json.dumps(value, sort_keys=True)  # tells True from 1


@settings(max_examples=400, derandomize=True)
@given(st.one_of(json_texts, documents.map(canonical_json),
                 st.builds(bytes.__add__, json_texts, st.sampled_from([b" ", b"\n", b"x"]))))
def test_parse_agrees_with_the_first_version(data):
    """The same byte strings are accepted, with equal values; where the
    first version crashed, the parse now refuses."""
    assert _outcome(parse_canonical, data, (MalformedMessage,)) == \
        _outcome(oracles.reference_parse_canonical, data, (Exception,))


def test_hex_round_trip_is_strict():
    assert from_hex(to_hex(b"\x00\xffhi")) == b"\x00\xffhi"
    with pytest.raises(MalformedMessage):
        from_hex("AB")  # uppercase would alias another byte stream
    with pytest.raises(MalformedMessage):
        from_hex("abc")
    with pytest.raises(MalformedMessage):
        from_hex(123)


def test_block_framing_round_trip():
    payload = os.urandom(200)
    text = encode_block("CHAIN", payload)
    assert text.startswith("-----BEGIN CASLITE CHAIN-----")
    assert decode_blocks(text, "CHAIN") == [payload]
    two = text + encode_block("CHAIN", b"second")
    assert decode_blocks(two, "CHAIN") == [payload, b"second"]
    with pytest.raises(MalformedMessage):
        decode_blocks(text, "ASSERTION")
    with pytest.raises(MalformedMessage):
        decode_blocks(text.rsplit("\n", 2)[0], "CHAIN")  # unterminated


def test_write_atomic_survives_replace_failure(tmp_path, monkeypatch):
    target = tmp_path / "state.json"
    write_atomic(target, b"original")

    def boom(src, dst):
        raise OSError("crash between write and rename")

    monkeypatch.setattr("caslite.canonical.os.replace", boom)
    with pytest.raises(OSError):
        write_atomic(target, b"replacement")
    monkeypatch.undo()
    assert target.read_bytes() == b"original"
    assert list(tmp_path.iterdir()) == [target]  # temp file cleaned up


def test_write_atomic_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    calls = []

    class RecordingOs:
        def __getattr__(self, name):
            return getattr(os, name)

        def replace(self, src, dst):
            calls.append("replace")
            os.replace(src, dst)

        def fsync(self, fd):
            same = os.path.samestat(os.fstat(fd), os.stat(tmp_path))
            calls.append("fsync directory" if same else "fsync file")
            os.fsync(fd)

    monkeypatch.setattr("caslite.canonical.os", RecordingOs())
    write_atomic(tmp_path / "state.json", b"contents")
    assert calls == ["fsync file", "replace", "fsync directory"]
    assert (tmp_path / "state.json").read_bytes() == b"contents"


def test_write_private_mode(tmp_path):
    path = tmp_path / "secret.chain"
    write_private(path, "contents")
    assert path.read_text() == "contents"
    assert oct(path.stat().st_mode & 0o777) == "0o600"
