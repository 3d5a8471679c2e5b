"""Indented JSON artifacts, written by :func:`_json_bytes` and read back by
:func:`_parse_json`.

Every JSON file tefuse writes is ``json.dumps(doc, indent=2)`` plus a line
break, UTF-8 encoded. ``tree.json``, the one large artifact, writes those
bytes itself (:func:`tefuse.clustering._export_json`); the small manifests
and reports go through :func:`_json_bytes`. Nothing here knows a schema: a
reader passes :func:`_parse_json` a builder that does.
"""

from __future__ import annotations

import json

from .errors import MalformedArtifact


def _json_bytes(doc) -> bytes:
    """``(json.dumps(doc, indent=2) + "\\n").encode()``."""
    return (json.dumps(doc, indent=2) + "\n").encode()


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
