"""Indented JSON artifacts, written by the C encoder and read back by
:func:`_parse_json`.

Every JSON file tefuse writes is ``json.dumps(doc, indent=2)`` plus a line
break. An indent makes CPython fall back to its pure-Python encoder, which
takes most of the time spent writing a large ``tree.json``.
:func:`_json_bytes` returns the same bytes from the C encoder's one-line
text: numpy inserts a line break and 2 spaces per nesting level after each
opening bracket and comma, and before each closing bracket, outside
strings, leaving empty ``[]`` and ``{}`` as they are. The text is
re-indented in blocks of about ``_BLOCK_CHARS`` characters, so that the
index arrays of a block stay small. Each block but the last ends just
after a comma outside every string, where no empty ``[]`` or ``{}`` can be
split, and the nesting depth carries from block to block. Nothing here
knows a schema: a reader passes :func:`_parse_json` a builder that does.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import MalformedArtifact

# Characters per block to re-indent. A block's index arrays take 8 bytes per
# character: for the 81 KB one-line text of a 24-source tree (275 KB
# indented) the traced allocation peak is 0.8 MB in 8 KiB blocks, 3.9 MB
# in one block and 1.5 MB for json.dumps with an indent.
_BLOCK_CHARS = 1 << 13


def _json_bytes(doc, block_chars: int = _BLOCK_CHARS) -> bytes:
    """``(json.dumps(doc, indent=2) + "\\n").encode()``, byte for byte.

    The one-line text is pure ASCII, since ``ensure_ascii`` is on. Its
    structure is read from :func:`_shape`, so brackets and commas inside
    names and keys are left alone.
    """
    flat = json.dumps(doc, separators=(",", ": "))
    text, shape = flat.encode("ascii"), _shape(flat)
    del flat
    chars, marks = np.frombuffer(text, np.uint8), np.frombuffer(shape, np.uint8)
    pieces, depth, start = [], 0, 0
    while start < len(text):
        end = start + block_chars
        if end < len(text):
            end = (shape.rfind(b",", start, end) + 1
                   or shape.find(b",", end) + 1 or len(text))
        piece, depth = _indent(chars[start:end], marks[start:end], depth)
        pieces.append(piece)
        start = end
    pieces.append(b"\n")
    return b"".join(pieces)


def _shape(flat: str) -> bytes:
    """The one-line text with the content of every string blanked to spaces.

    Once each escaped backslash and escaped quote is blanked, the quotes
    left open and close strings in turn, so every other piece between them
    is a string's content.
    """
    parts = flat.replace("\\\\", "  ").replace('\\"', "  ").split('"')
    parts[1::2] = [" " * len(part) for part in parts[1::2]]
    return '"'.join(parts).encode("ascii")


def _indent(chars: np.ndarray, marks: np.ndarray, depth: int) -> tuple[bytes, int]:
    """One block re-indented, and the nesting depth after it; ``depth`` is
    the depth before it. ``marks`` is the block with strings blanked."""
    opens = (marks == ord("[")) | (marks == ord("{"))
    closes = (marks == ord("]")) | (marks == ord("}"))
    empty = opens[:-1] & closes[1:]
    opens[:-1] ^= empty
    closes[1:] ^= empty
    step = opens.astype(np.int8)
    step -= closes
    level = np.cumsum(step, dtype=np.int64)
    level += depth
    after = opens | (marks == ord(","))
    # "\n" and the indent of what follows: after an open bracket or a comma,
    # before a closing bracket
    width = np.where(after | closes, 2 * level + 1, 0)
    shift = np.cumsum(width)
    pos = np.arange(len(chars)) + shift
    pos -= width * after
    out = np.full(len(chars) + int(shift[-1]), ord(" "), np.uint8)
    out[pos] = chars
    out[pos[after] + 1] = ord("\n")
    out[pos[closes] - width[closes]] = ord("\n")
    return out.tobytes(), int(level[-1])


def _parse_json(data: bytes | str, name: str, build):
    """``build(json.loads(data))``. Bytes that are not JSON, and a ``KeyError``,
    ``AttributeError``, ``TypeError`` or ``ValueError`` from ``build`` (a
    missing or mistyped entry), raise :class:`MalformedArtifact` naming ``name``."""
    try:
        doc = json.loads(data)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise MalformedArtifact(f"{name} is not valid JSON: {exc}") from None
    try:
        return build(doc)
    except KeyError as exc:
        raise MalformedArtifact(f"{name} lacks the entry {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise MalformedArtifact(f"{name} has a malformed entry: {exc}") from None
