"""Symbolization of continuous series into finite-alphabet symbol sequences.

Two partitioning schemes are provided: maximum entropy partitioning (a
quantile split, so every bin receives an equal share of the fitted samples)
and uniform partitioning (equal-width bins over the fitted range). A
partition is fit once, normally on training rows only, and reused on later
data; values outside the fitted range are absorbed by the extreme bins.

Both schemes fit through one rule, :func:`_fit_partitions`, which fits every
row of a 2-D array at once: a maximum entropy fit sorts the rows with one
row-wise sort, counts each row's distinct values from its runs and reads
every row's quantile edges with one gather; a uniform fit spans each row's
minimum and maximum. :func:`fit_mep_partition` and
:func:`fit_uniform_partition` are its one-row case, and
:func:`tefuse.clustering.fit_leaves` fits all the sources' training
prefixes in one call, so each row gets the floats its one-row fit gives. A
row that cannot be partitioned raises :class:`DegenerateInput` for the first
such row, named when the caller names its rows, and a row whose edges pass
float64's range (equal widths over ±1e308, say) a :class:`PipelineError`.

Integer-valued merged sequences coming out of pairwise fusion are squeezed
back to a working alphabet by :func:`_repartition`, which treats the merged
values as an ordinal series and re-bins them the same way. It takes the
merged integers themselves, as :func:`tefuse.fusion.fuse` passes them: its
edges are merged values, so it bins integers against integers and builds
the output sequence once.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import DegenerateInput, PipelineError
from .frozen import Frozen
from .infotheory import _run_edges, _run_starts

logger = logging.getLogger(__name__)

MAX_ENTROPY = "max-entropy"
UNIFORM = "uniform"


class Partition(Frozen):
    """Ordered bin edges mapping reals to symbols 0..alphabet_size-1.

    A value maps to the count of edges strictly below it, so each edge closes
    the bin underneath: bins are (e_{i-1}, e_i], with the two extreme bins
    unbounded. A value equal to an edge therefore joins the lower bin.
    """

    __slots__ = ("edges", "alphabet_size", "kind")

    def __init__(self, edges: np.ndarray, alphabet_size: int, kind: str):
        self._fill(locals())
        edges = np.asarray(self.edges, dtype=np.float64)
        object.__setattr__(self, "edges", edges)
        if self.alphabet_size < 2:
            raise ValueError("alphabet_size must be >= 2")
        if edges.ndim != 1 or len(edges) != self.alphabet_size - 1:
            raise ValueError("a partition into b bins needs exactly b-1 edges")
        if len(edges) > 1 and np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if self.kind not in (MAX_ENTROPY, UNIFORM):
            raise ValueError(f"unknown partition kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "edges": [float(e) for e in self.edges],
            "alphabet_size": int(self.alphabet_size),
            "kind": self.kind,
        }


class SymbolSequence(Frozen):
    """Discrete series over the alphabet {0..alphabet_size-1}."""

    __slots__ = ("symbols", "alphabet_size", "source_name")

    def __init__(self, symbols: np.ndarray, alphabet_size: int, source_name: str = ""):
        self._fill(locals())
        symbols = np.asarray(self.symbols, dtype=np.int64)
        object.__setattr__(self, "symbols", symbols)
        if symbols.ndim != 1:
            raise ValueError("symbols must be one-dimensional")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        if len(symbols) and (symbols.min() < 0 or symbols.max() >= self.alphabet_size):
            raise ValueError("symbol out of range for declared alphabet")

    def __len__(self) -> int:
        return len(self.symbols)


def _one_dimensional(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    return values


def _check_finite(values: np.ndarray) -> None:
    if np.isnan(values).any():
        raise ValueError("values contain NaN; drop missing rows before partitioning")


def _quantile_edges(ordered: np.ndarray, b: int) -> np.ndarray:
    """The b-1 quantile edges of ascending values, or of each row of
    row-wise ascending values: edge i is the floor(i*n/b)-th order
    statistic."""
    return ordered[..., (np.arange(1, b) * ordered.shape[-1]) // b - 1]


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array, each the first of its run
    (``np.unique`` without its lazy import of ``numpy.ma``)."""
    return ordered[_run_starts(ordered)[:-1]]


def _fit_partitions(rows: np.ndarray, b: int, kind: str, names=None) -> list[Partition]:
    """The ``kind`` partition into ``b`` bins of each row of a 2-D float
    array, which a maximum entropy fit sorts in place; the one fitting rule,
    of which :func:`fit_mep_partition` and :func:`fit_uniform_partition` are
    the one-row case.

    A maximum entropy fit sorts every row at once, counts each row's
    distinct values from its runs and reads every row's quantile edges with
    one gather. A uniform fit spans each row's minimum and maximum. Either
    way the edges of a row are the floats its one-row fit gives. The rows
    are then checked in order, as one-row fits would be: the first that
    cannot be partitioned raises :class:`DegenerateInput`, and the first
    with an edge that is not finite :class:`PipelineError`, each named by
    ``names`` when given. A row cannot be partitioned when it has too few
    distinct values for ``b`` bins, or when its edges are not strictly
    increasing: ties can collapse quantile edges, and a range a few ulps
    wide rounds equal-width edges onto each other.
    """
    _check_finite(rows)
    if b < 2:
        raise ValueError("b must be >= 2")
    if rows.shape[1] == 0:
        raise DegenerateInput("cannot fit a partition on an empty sequence")
    if kind == MAX_ENTROPY:
        rows.sort(axis=1)
        distinct = np.count_nonzero(_run_edges(rows), axis=1)
        # with more bins than rows no row has b distinct values, and b - 1
        # edges need not fit in memory, so none is read
        edges = _quantile_edges(rows, b) if b <= rows.shape[1] else rows[:, :0]
        short = distinct < b
    else:
        lo, hi = rows.min(axis=1), rows.max(axis=1)
        edges = lo[:, None] + np.arange(1, b) * (hi - lo)[:, None] / b
        short = hi <= lo
    # edges that are not strictly increasing, which Partition refuses
    degenerate = short | (np.diff(edges, axis=1) <= 0).any(axis=1)
    finite = np.isfinite(edges).all(axis=1).tolist()
    partitions = []
    for row, (row_edges, bad, ok) in enumerate(zip(edges, degenerate.tolist(), finite)):
        name = None if names is None else names[row]
        if bad:
            if kind == MAX_ENTROPY and short[row]:
                problem = f"need at least {b} distinct values for {b} bins, got {distinct[row]}"
            elif kind == MAX_ENTROPY:
                problem = (f"ties collapse the {b}-bin quantile edges; "
                           "use fewer bins or uniform partitioning")
            elif short[row]:
                problem = "constant series cannot be uniformly partitioned"
            else:
                problem = (f"the range [{lo[row].item()!r}, {hi[row].item()!r}] is too "
                           f"narrow for {b} equal-width bins; use fewer bins or maximum "
                           "entropy partitioning")
            raise DegenerateInput(_named(name, problem))
        if not ok:
            raise PipelineError(_named(name, f"the {b}-bin edges {row_edges.tolist()} "
                                             "are not all finite"))
        partitions.append(Partition(edges=row_edges, alphabet_size=b, kind=kind))
    return partitions


def _named(name: str | None, problem: str) -> str:
    """``problem``, prefixed with the column ``name`` when there is one."""
    return problem if name is None else f"column {name!r}: {problem}"


def fit_mep_partition(values, b: int) -> Partition:
    """Fit a maximum entropy (quantile) partition with ``b`` bins.

    Edge i (1-based) is the floor(i*n/b)-th order statistic of the data, so
    every bin receives n/b points up to integer rounding and ties. Raises
    :class:`DegenerateInput` when fewer than ``b`` distinct values exist or
    when ties collapse the quantile edges; callers must then fall back
    explicitly (smaller alphabet, uniform partitioning) rather than proceed
    with a broken partition.
    """
    return _fit_partitions(np.array(_one_dimensional(values)[None]), b, MAX_ENTROPY)[0]


def fit_uniform_partition(values, b: int) -> Partition:
    """Fit an equal-width partition with ``b`` bins spanning [min, max]."""
    return _fit_partitions(_one_dimensional(values)[None], b, UNIFORM)[0]


def symbolize(values, partition: Partition, name: str = "") -> SymbolSequence:
    """Map reals to symbols through a fitted partition.

    Total on all finite inputs: values below the first edge map to symbol 0,
    values above the last edge to symbol b-1, and a value equal to an edge
    joins the bin below it.
    """
    values = _one_dimensional(values)
    _check_finite(values)
    symbols = np.searchsorted(partition.edges, values, side="left")
    return SymbolSequence(symbols, partition.alphabet_size, name)


def _repartition(values: np.ndarray, target_b: int, fit_length: int | None,
                 name: str) -> SymbolSequence:
    """Re-symbolize the int64 ``values`` down to at most ``target_b``
    symbols, named ``name``: the one repartition rule, which
    :func:`tefuse.fusion.fuse` applies to the raw merged values.

    The values are an ordinal series, re-binned by maximum entropy
    partitioning fitted on the first ``fit_length`` entries (all of them
    when None) and applied to the whole sequence. Two logged fallbacks keep
    clustering total: ``target_b`` or fewer distinct values relabel
    losslessly to 0..d-1, against every distinct value but the largest as
    edges, and heavier ties drop the colliding quantile edges, so the
    output alphabet shrinks below ``target_b``. Every case bins through one
    edge list, one more symbol than edges, so the mapping is monotone in
    the merged value. The edges are merged values themselves, so the
    values are binned as integers, one ``searchsorted`` against the edges;
    binning them as floats gives the same symbols for every value below
    2**53.
    """
    if target_b < 2:
        raise ValueError("target_b must be >= 2")
    fit = values if fit_length is None else values[:fit_length]
    if len(fit) == 0:
        raise DegenerateInput("empty fit window for repartitioning")
    ordered = np.sort(fit)
    distinct = _distinct(ordered)
    if len(distinct) <= target_b:
        if len(distinct) < target_b:
            logger.info(
                "repartition(%s): %d distinct values <= target %d, lossless relabel",
                name, len(distinct), target_b,
            )
        edges = distinct[:-1]
    else:
        raw = _quantile_edges(ordered, target_b)
        edges = _distinct(raw)
        if len(edges) < len(raw):
            logger.warning(
                "repartition(%s): ties collapsed %d quantile edges, alphabet %d -> %d",
                name, len(raw) - len(edges), target_b, len(edges) + 1,
            )
    return SymbolSequence(np.searchsorted(edges, values, side="left"), len(edges) + 1, name)
