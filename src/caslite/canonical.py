"""Byte-exact canonical serialization.

Every signature in the stack is computed over this form, and every wire
frame and credential file carries it: UTF-8 JSON with keys sorted byte-wise,
no insignificant whitespace, integers in minimal decimal form, and byte
strings encoded as lowercase base16. Two documents are equal exactly when
their canonical bytes are equal, which is what makes signatures, cache
pass-through checks, and persistence round trips byte-identical.
"""

from __future__ import annotations

import base64
import json
import os
import re
import tempfile
from pathlib import Path
from typing import AbstractSet, Any, Callable

from .errors import MalformedMessage

_HEX_RE = re.compile(r"^(?:[0-9a-f]{2})*$")

# One encoder for every call: ``json.dumps`` with these options builds a new
# one each time.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode


def canonical_json(value: Any, *, trusted: bool = False) -> bytes:
    """Serialize ``value`` to canonical bytes.

    Accepts dicts with string keys, lists/tuples, strings, ints and bools.
    Floats and None are rejected: optional fields are expressed by omitting
    the key, and timestamps are integers. That check is a Python walk over
    the whole value, which costs about as much as the C encoder itself, so
    ``trusted=True`` skips it for values that cannot hold another type:

    - :func:`statements.sign_statement` encodes the fields of a statement
      the authority built from checked objects around its body;
    - :func:`policy.db_canonical_bytes` encodes the sections of a database,
      every field of which was checked when it was loaded or changed, and
      ``policy._fragment`` each grant ref's and listing entry's
      ``"key":[...]`` fragment, built from checked ``Right`` objects;
    - :func:`parse_canonical` re-encodes what ``json.loads`` just built, which
      holds no float and, when the bytes hold no ``null``, no None.
    """
    if not trusted:
        _check(value)
    return _ENCODE(value).encode("utf-8")


def _check(value: Any) -> None:
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            _check(item)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise MalformedMessage(f"non-string key {key!r}")
            _check(item)
        return
    raise MalformedMessage(f"type {type(value).__name__} has no canonical form")


def _no_canonical_number(text: str) -> Any:
    raise MalformedMessage(f"number {text} has no canonical form")


_DECODER = json.JSONDecoder(parse_float=_no_canonical_number, parse_constant=_no_canonical_number)


def parse_canonical(data: bytes) -> Any:
    """Parse ``data`` and require that it is already in canonical form.

    Rejecting non-canonical input means a byte stream that differs from the
    issuer's serialization can never be accepted, even when it would decode
    to the same values. Floats and ``NaN``/``Infinity`` are refused while
    parsing; the type walk runs only when the bytes contain ``null``. Every
    failure, deep nesting, oversized integers and lone surrogates included,
    is a :class:`MalformedMessage`.
    """
    try:
        value = _DECODER.decode(data.decode("utf-8"))
        if b"null" in data:
            _check(value)
        encoded = canonical_json(value, trusted=True)
    except (ValueError, RecursionError) as exc:
        raise MalformedMessage(f"not a JSON document: {exc}") from None
    if encoded != data:
        raise MalformedMessage("document is not in canonical form")
    return value


class Encoded:
    """A canonical document kept only as its bytes: ``chunks``, buffers
    whose concatenation is the document's canonical form.
    :func:`~caslite.wire.write_frame` sends the chunks as they are, so a
    large document, such as a signed statement, is neither encoded again
    nor copied into one frame.

    Chunks are spliced by one rule: a canonical map is ``{``, its
    ``"key":value`` fragments joined by ``,`` in sorted key order, then
    ``}``. So a map whose keys are known is joined from encoded fragments,
    an encoded value is wrapped as ``{"key":`` value ``}``, and a key sorting
    after every key of an encoded map is added by dropping its closing brace
    and writing ``,"key":value}``."""

    __slots__ = ("chunks",)

    def __init__(self, chunks: tuple):
        self.chunks = chunks

    @property
    def size(self) -> int:
        """Length of the canonical form in bytes."""
        return sum(map(len, self.chunks))


def fields(doc: Any, what: str, required: AbstractSet[str],
           optional: AbstractSet[str] = frozenset()) -> dict:
    """The strict shape of every parsed document: ``doc`` itself when it is a
    map holding every key of ``required`` and none outside ``required |
    optional``; otherwise :class:`MalformedMessage` naming ``what``."""
    if not isinstance(doc, dict):
        raise MalformedMessage(f"{what} must be a map")
    keys = doc.keys()
    if not keys >= required or (len(keys) > len(required) and not keys <= required | optional):
        raise MalformedMessage(
            f"{what} has wrong fields (required {sorted(required)}, optional {sorted(optional)})")
    return doc


def expect(value: Any, kind: type, what: str) -> Any:
    """``value`` when it is an instance of ``kind``, where a JSON boolean is
    no ``int``; otherwise :class:`MalformedMessage` naming ``what``."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise MalformedMessage(f"{what} must be a {kind.__name__}")
    return value


def set_of(check: Callable[[Any], Any], items: Any, what: str) -> frozenset:
    """A list whose every item passes ``check``, as a frozenset of the
    checked items; otherwise :class:`MalformedMessage` naming ``what``."""
    return frozenset(map(check, expect(items, list, what)))


def to_hex(data: bytes) -> str:
    return data.hex()


def from_hex(text: Any) -> bytes:
    """Decode lowercase base16; uppercase or odd-length input is rejected."""
    if not isinstance(text, str) or not _HEX_RE.fullmatch(text):
        raise MalformedMessage("expected lowercase base16 string")
    return bytes.fromhex(text)


# --- text framing for credential files ---------------------------------------

def encode_block(tag: str, payload: bytes) -> str:
    body = base64.b64encode(payload).decode("ascii")
    lines = [body[i : i + 64] for i in range(0, len(body), 64)]
    return "\n".join([f"-----BEGIN CASLITE {tag}-----", *lines, f"-----END CASLITE {tag}-----"]) + "\n"


def decode_blocks(text: str, tag: str) -> list[bytes]:
    """Extract every ``tag`` block from ``text``; files may concatenate several."""
    begin = f"-----BEGIN CASLITE {tag}-----"
    end = f"-----END CASLITE {tag}-----"
    blocks: list[bytes] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].strip() == begin:
            body: list[str] = []
            i += 1
            while i < len(lines) and lines[i].strip() != end:
                body.append(lines[i].strip())
                i += 1
            if i == len(lines):
                raise MalformedMessage(f"unterminated {tag} block")
            try:
                blocks.append(base64.b64decode("".join(body), validate=True))
            except Exception as exc:
                raise MalformedMessage(f"bad base64 in {tag} block: {exc}") from None
        i += 1
    if not blocks:
        raise MalformedMessage(f"no {tag} block found")
    return blocks


# --- file helpers -------------------------------------------------------------

def write_atomic(path: Path | str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file and rename,
    so a crash mid-write leaves the previous contents intact; the directory
    is synced after the rename, so the new contents are on disk on return."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def write_private(path: Path | str, data: str) -> None:
    """Write a credential file with mode 0600."""
    path = Path(path)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(data)
