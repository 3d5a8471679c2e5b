"""CSV ingestion, run configuration, and train/test splitting.

The loader keeps exactly the configured columns, in configuration order
(that order feeds pair tie-breaking downstream), drops any row whose
selected cells are missing, non-numeric or non-finite, and reports how many
rows were lost. Its semantics are those of a per-row loop over
:mod:`csv` records (:func:`_parse_rows`); a bulk :func:`numpy.loadtxt`
parse reads numeric text faster, block by block, and hands every block it
might read differently back to that loop. Train/test splitting is always a
contiguous prefix/suffix cut; shuffling a time series would leak history
across the boundary.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import math
import operator

import numpy as np

from .errors import EmptyAfterFiltering, MissingColumn, UnparseableHeader, UnreadableCsv
from .frozen import Frozen, FrozenValue

logger = logging.getLogger(__name__)

PARTITIONERS = ("mep", "uniform")
TARGET_KINDS = ("auto", "discrete", "continuous")


class RunConfig(FrozenValue):
    """Parameters of one clustering/evaluation run.

    ``alphabet`` is the per-source symbol count, ``depth`` the embedded
    history length, ``fused_alphabet`` the symbol count merged nodes are
    repartitioned to (defaults to ``alphabet``), and ``stop_at`` the number
    of supernodes at which merging stops. ``seed`` only drives synthetic
    noise-channel injection; nothing else in the pipeline is random.

    The fields are ``__init__``'s parameters, in order (``__slots__``), and
    :meth:`defaults` reads their defaults from its signature.
    """

    __slots__ = ("target_column", "source_columns", "alphabet", "target_alphabet", "depth",
                 "fused_alphabet", "stop_at", "train_fraction", "seed", "partitioner",
                 "target_kind")

    def __init__(self, target_column: str, source_columns: tuple[str, ...],
                 alphabet: int = 5, target_alphabet: int = 10, depth: int = 3,
                 fused_alphabet: int | None = None, stop_at: int = 1,
                 train_fraction: float = 0.7, seed: int = 0, partitioner: str = "mep",
                 target_kind: str = "auto"):
        self._fill(locals())
        if isinstance(self.source_columns, str) or not all(
                isinstance(c, str) for c in (self.target_column, *self.source_columns)):
            raise TypeError("column names must be strings, and the sources a sequence")
        object.__setattr__(self, "source_columns", tuple(self.source_columns))
        if self.fused_alphabet is None:
            object.__setattr__(self, "fused_alphabet", self.alphabet)
        # The one type check for flags, config files and stored manifests: a
        # bool is refused, though operator.index and float comparison take it.
        for name in ("alphabet", "target_alphabet", "depth", "fused_alphabet",
                     "stop_at", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise TypeError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if isinstance(self.train_fraction, bool) or not isinstance(
                self.train_fraction, (int, float)):
            raise TypeError(f"train_fraction must be a number, "
                            f"not {self.train_fraction!r}")
        if not self.source_columns:
            raise ValueError("at least one source column is required")
        if len(set(self.source_columns)) != len(self.source_columns):
            raise ValueError("source columns must be unique")
        if self.target_column in self.source_columns:
            raise ValueError(
                f"target column {self.target_column!r} cannot also be a source"
            )
        if self.alphabet < 2:
            raise ValueError("alphabet must be >= 2")
        if self.target_alphabet < 2:
            raise ValueError("target alphabet must be >= 2")
        if self.fused_alphabet < 2:
            raise ValueError("fused alphabet must be >= 2")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.stop_at < 1:
            raise ValueError("stop-at must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError("train fraction must be in (0, 1]")
        if self.partitioner not in PARTITIONERS:
            raise ValueError(f"partitioner must be one of {PARTITIONERS}")
        if self.target_kind not in TARGET_KINDS:
            raise ValueError(f"target kind must be one of {TARGET_KINDS}")

    @classmethod
    def defaults(cls) -> dict:
        """The fields that have a default, each with its default, in order."""
        values = cls.__init__.__defaults__
        return dict(zip(cls.__slots__[-len(values):], values))

    def replace(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied, built and checked by ``__init__``."""
        return RunConfig(**{**self.to_dict(), **changes})

    def to_dict(self) -> dict:
        return dict(zip(self.__slots__, self._fields()))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The inverse of :meth:`to_dict`: ``data`` must hold every field,
        no other key and no ``None``, or this raises ``ValueError``."""
        names = set(cls.__slots__)
        if data.keys() != names:
            raise ValueError(f"config keys {sorted(data)} are not the fields "
                             f"{sorted(names)}")
        nulls = sorted(name for name, value in data.items() if value is None)
        if nulls:
            raise ValueError(f"config holds null for {nulls}")
        return cls(**data)


class Dataset(Frozen):
    """Aligned numeric columns, immutable once constructed."""

    __slots__ = ("names", "columns", "dropped_rows")

    def __init__(self, names: tuple[str, ...], columns: tuple[np.ndarray, ...],
                 dropped_rows: int = 0):
        self._fill(locals())
        object.__setattr__(self, "names", tuple(self.names))
        cols = tuple(np.asarray(c, dtype=np.float64) for c in self.columns)
        object.__setattr__(self, "columns", cols)
        if len(self.names) != len(cols):
            raise ValueError("one name per column required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("column names must be unique")
        if not cols or len(cols[0]) < 1:
            raise ValueError("a dataset needs at least one row")
        if any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("all columns must have identical length")

    @property
    def n(self) -> int:
        return len(self.columns[0])

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[self.names.index(name)]
        except ValueError:
            raise MissingColumn(name) from None


def load_csv(path, config: RunConfig, *, data: bytes | None = None) -> Dataset:
    """Load the configured columns from an RFC-4180-style CSV with header.

    Rows with a missing, non-numeric or non-finite (NaN, ±inf) cell in any
    selected column are dropped whole, keeping the surviving columns
    aligned; the drop count is logged and recorded on the dataset. Blank
    lines are skipped; a UTF-8 BOM is ignored. Loading is pure: identical
    file bytes produce an identical dataset.

    The header is read with :mod:`csv`; the rest of the file is read once
    and parsed by :func:`_parse_bulk` in blocks of about 32 KiB, each by
    one :func:`numpy.loadtxt` call. A block loadtxt might read differently
    (a bad row in it, say) falls back to the per-row loop :func:`_parse_rows`
    alone. The loop's semantics are the contract; both give the same float
    bits and drop count.

    Raises :class:`UnreadableCsv` for bytes that are not UTF-8 and for a
    field longer than :func:`csv.field_size_limit`, in the header or in any
    row, selected column or not.

    ``data``, the file's bytes, is parsed in place of the file, which is
    then not opened; ``path`` only names the input in messages. A caller
    that hashes the bytes it has read this way reads the file only once.
    """
    selected = list(config.source_columns) + [config.target_column]
    with _csv_text(path, data) as fh:
        indices = _header_indices(fh, path, selected)
        columns, dropped = _parse_bulk(fh.read(), indices)
    if not columns.shape[1]:
        raise EmptyAfterFiltering(f"{path}: no usable rows after filtering")
    if dropped:
        logger.info("%s: dropped %d rows with missing, non-numeric or "
                    "non-finite cells", path, dropped)
    return Dataset(names=tuple(selected), columns=tuple(columns), dropped_rows=dropped)


def header_indices(path, names, *, data: bytes | None = None) -> list[int]:
    """The position of each of ``names`` in a CSV's header, which is read
    and checked as :func:`load_csv` reads it; a name the header lacks
    raises :class:`MissingColumn`. Only the header's lines are decoded.
    ``data`` and ``path`` are as for :func:`load_csv`."""
    with _csv_text(path, data) as fh:
        return _header_indices(fh, path, names)


@contextlib.contextmanager
def _csv_text(path, data: bytes | None):
    """The CSV as text, the file ``path`` or its bytes ``data``; text that
    is not UTF-8 and a :mod:`csv` fault raise :class:`UnreadableCsv`."""
    raw = open(path, "rb") if data is None else io.BytesIO(data)
    try:
        with io.TextIOWrapper(raw, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise UnreadableCsv(f"{path}: not valid UTF-8: {exc}") from None
    except csv.Error as exc:
        raise UnreadableCsv(f"{path}: {exc}") from None


def _header_indices(fh, path, names) -> list[int]:
    """Read the header record from ``fh`` and place ``names`` in it."""
    try:
        header = [h.strip() for h in next(csv.reader(fh))]
    except StopIteration:
        raise UnparseableHeader(f"{path}: file is empty") from None
    if not header or any(not h for h in header):
        raise UnparseableHeader(f"{path}: header contains empty column names")
    if len(set(header)) != len(header):
        raise UnparseableHeader(f"{path}: header contains duplicate column names")
    for name in names:
        if name not in header:
            raise MissingColumn(name)
    return [header.index(name) for name in names]


# Characters that numpy strips around a number where float() rejects them.
_LOOP_ONLY = "\x1c\x1d\x1e\x1f"
# Text per numpy.loadtxt call. A block the bulk parse cannot read goes to the
# loop alone, so a bad row costs the loop one block, not the whole file.
_BLOCK_CHARS = 1 << 15
# Bytes a quote that opens a quoted field may follow. After another quote it
# is the second of a doubled quote, and the field stays open.
_BEFORE_QUOTE = np.zeros(256, dtype=bool)
_BEFORE_QUOTE[list(b',\r\n"')] = True


def _parse_bulk(text: str, indices: list[int],
                block_chars: int = _BLOCK_CHARS) -> tuple[np.ndarray, int]:
    """The rows of ``text`` as :func:`_parse_rows` reads them, parsed in bulk.

    The text is cut at line breaks into blocks of about ``block_chars``
    characters, each read by one :func:`numpy.loadtxt` call. loadtxt splits
    lines and fields as :mod:`csv` does, with quotes read as RFC 4180 quotes,
    and reads a number as float() does. It raises ``ValueError`` on every
    row the loop would drop for a missing or non-numeric cell, on a short
    row, a whitespace-only line and a lone-CR line ending; the loop reads
    such a block instead, and a block longer than :func:`csv.field_size_limit`,
    which could hold a field the loop refuses with :class:`csv.Error`
    where loadtxt reads it. Once the loop has read more blocks than loadtxt,
    it reads the rest of the text: in a text with many bad rows, loadtxt's
    partial read of each block would only add to the loop's cost.

    A cut falls only where an even number of quotes precedes it, which is
    outside every quoted field when every other quote opens one; a text
    with a quote inside an unquoted field, or with U+001C..U+001F, goes to
    the loop whole.
    """
    quoted = '"' in text
    if any(c in text for c in _LOOP_ONLY) or quoted and not _quotes_balanced(text):
        return _parse_rows(text, indices)
    parts, dropped, pos, lead = [np.empty((len(indices), 0))], 0, 0, 0
    field_limit = csv.field_size_limit()
    while pos < len(text):
        end, rows = len(text), None
        if lead >= 0:
            end = text.find("\n", pos + block_chars) + 1 or end
            while quoted and text.count('"', pos, end) % 2 and end < len(text):
                end = text.find("\n", end) + 1 or len(text)
            if end - pos <= field_limit:
                rows = _loadtxt(text[pos:end], indices, quoted)
        if rows is None:
            columns, lost = _parse_rows(text[pos:end], indices)
            lead -= 1
        else:
            finite = np.isfinite(rows).all(axis=1)
            columns, lost = rows[finite].T, len(rows) - int(finite.sum())
            lead += 1
        parts.append(columns)
        dropped += lost
        pos = end
    return np.concatenate(parts, axis=1), dropped


def _quotes_balanced(text: str) -> bool:
    """Whether every quote with an even number of quotes before it opens a
    field: it follows a comma, a line break, another quote or the start.

    :mod:`csv` then opens a quoted field at each such quote and leaves it at
    the next quote, which a delimiter, a line break, a doubled quote or text
    outside the quoting follows; a further quote in that field would not
    open one, and is refused here.
    """
    raw = np.frombuffer(b"\n" + text.encode("utf-8"), dtype=np.uint8)
    quotes = np.flatnonzero(raw == ord('"'))
    return bool(_BEFORE_QUOTE[raw[quotes[0::2] - 1]].all())


def _loadtxt(text: str, indices: list[int], quoted: bool) -> np.ndarray | None:
    """The selected cells of ``text``, one row per line, or None where
    loadtxt raises or would warn of a text with no data line."""
    if text.isspace():
        return None
    try:
        return np.loadtxt(io.StringIO(text), delimiter=",", usecols=indices,
                          comments=None, quotechar='"' if quoted else None, ndmin=2)
    except ValueError:
        return None


def _parse_rows(text: str, indices: list[int]) -> tuple[np.ndarray, int]:
    """Parse the data rows of a CSV one record at a time.

    Returns the selected cells, one float64 row per entry of ``indices``,
    and the number of dropped rows: a row is dropped when a selected cell
    is missing, is not read by float(), or is not finite. Blank lines are
    skipped and not counted.
    """
    columns: list[list[float]] = [[] for _ in indices]
    dropped = 0
    for row in csv.reader(io.StringIO(text, newline="")):
        if not row:
            continue
        try:
            values = [float(row[i]) for i in indices]
        except (ValueError, IndexError):
            dropped += 1
            continue
        if not all(math.isfinite(v) for v in values):
            dropped += 1
            continue
        for col, v in zip(columns, values):
            col.append(v)
    return np.array(columns, dtype=np.float64), dropped


def split_index(n: int, fraction: float) -> int:
    """Training row count: ceil(fraction * n), guarded against float fuzz."""
    return min(n, max(1, math.ceil(fraction * n - 1e-9)))


def noise_columns(count: int) -> tuple[str, ...]:
    """The names of ``count`` injected noise channels, in order."""
    return tuple(f"noise_{i + 1}" for i in range(count))


def _noise_block(count: int, rows: int, seed: int) -> np.ndarray:
    """``count`` standard-normal channels of ``rows`` values, one per row.

    Generation is fully determined by ``seed``; this is the only source of
    randomness anywhere in the pipeline. A block too large to allocate
    raises numpy's ``MemoryError`` (or ``ValueError`` past its array size
    limit) at once, so a caller draws it before naming any channel.
    """
    return np.random.default_rng(seed).standard_normal((count, rows))


def append_noise_channels(dataset: Dataset, count: int, seed: int) -> Dataset:
    """Append ``count`` standard-normal channels named noise_1..noise_count,
    drawn by :func:`_noise_block` before any channel is named."""
    if count < 1:
        raise ValueError("noise channel count must be >= 1")
    noise = _noise_block(count, dataset.n, seed)
    names = noise_columns(count)
    for name in names:
        if name in dataset.names:
            raise ValueError(f"dataset already has a column named {name!r}")
    return Dataset(
        names=dataset.names + names,
        columns=dataset.columns + tuple(noise),
        dropped_rows=dataset.dropped_rows,
    )


def read_config_file(path) -> dict[str, str]:
    """Parse a plain-text key=value configuration file.

    Blank lines and '#' comments are ignored; values are returned as strings
    for the CLI layer to coerce. Flags override file entries. A leading UTF-8
    byte-order mark is skipped, as in input CSVs.
    """
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries
