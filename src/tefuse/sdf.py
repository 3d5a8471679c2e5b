"""Symbolization of continuous series into finite-alphabet symbol sequences.

Two partitioning schemes are provided: maximum entropy partitioning (a
quantile split, so every bin receives an equal share of the fitted samples)
and uniform partitioning (equal-width bins over the fitted range). A
partition is fit once, normally on training rows only, and reused on later
data; values outside the fitted range are absorbed by the extreme bins.

Integer-valued merged sequences coming out of pairwise fusion are squeezed
back to a working alphabet with :func:`repartition`, which treats the merged
values as an ordinal real series and re-bins them the same way.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .infotheory import _run_starts

logger = logging.getLogger(__name__)

MAX_ENTROPY = "max-entropy"
UNIFORM = "uniform"


@dataclass(frozen=True, eq=False)
class Partition:
    """Ordered bin edges mapping reals to symbols 0..alphabet_size-1.

    A value maps to the count of edges strictly below it, so each edge closes
    the bin underneath: bins are (e_{i-1}, e_i], with the two extreme bins
    unbounded. A value equal to an edge therefore joins the lower bin.
    """

    edges: np.ndarray
    alphabet_size: int
    kind: str

    def __post_init__(self):
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

    @classmethod
    def from_dict(cls, data: dict) -> "Partition":
        return cls(
            edges=np.asarray(data["edges"], dtype=np.float64),
            alphabet_size=int(data["alphabet_size"]),
            kind=data["kind"],
        )


@dataclass(frozen=True, eq=False)
class SymbolSequence:
    """Discrete series over the alphabet {0..alphabet_size-1}."""

    symbols: np.ndarray
    alphabet_size: int
    source_name: str = ""

    def __post_init__(self):
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


def _checked_values(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if np.isnan(values).any():
        raise ValueError("values contain NaN; drop missing rows before partitioning")
    return values


def _quantile_edges(ordered: np.ndarray, b: int) -> np.ndarray:
    """The b-1 quantile edges of ascending values: edge i is the
    floor(i*n/b)-th order statistic."""
    return ordered[(np.arange(1, b) * len(ordered)) // b - 1]


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array, each the first of its run
    (``np.unique`` without its lazy import of ``numpy.ma``)."""
    return ordered[_run_starts(ordered)[:-1]]


def fit_mep_partition(values, b: int) -> Partition:
    """Fit a maximum entropy (quantile) partition with ``b`` bins.

    Edge i (1-based) is the floor(i*n/b)-th order statistic of the data, so
    every bin receives n/b points up to integer rounding and ties. Raises
    :class:`DegenerateInput` when fewer than ``b`` distinct values exist or
    when ties collapse the quantile edges; callers must then fall back
    explicitly (smaller alphabet, uniform partitioning) rather than proceed
    with a broken partition.
    """
    values = _checked_values(values)
    if b < 2:
        raise ValueError("b must be >= 2")
    if len(values) == 0:
        raise DegenerateInput("cannot fit a partition on an empty sequence")
    ordered = np.sort(values)
    distinct = len(_distinct(ordered))
    if distinct < b:
        raise DegenerateInput(f"need at least {b} distinct values for {b} bins, got {distinct}")
    edges = _quantile_edges(ordered, b)
    if np.any(np.diff(edges) <= 0):
        raise DegenerateInput(
            f"ties collapse the {b}-bin quantile edges; "
            "use fewer bins or uniform partitioning"
        )
    return Partition(edges=edges, alphabet_size=b, kind=MAX_ENTROPY)


def fit_uniform_partition(values, b: int) -> Partition:
    """Fit an equal-width partition with ``b`` bins spanning [min, max]."""
    values = _checked_values(values)
    if b < 2:
        raise ValueError("b must be >= 2")
    if len(values) == 0:
        raise DegenerateInput("cannot fit a partition on an empty sequence")
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        raise DegenerateInput("constant series cannot be uniformly partitioned")
    edges = lo + np.arange(1, b) * (hi - lo) / b
    return Partition(edges=edges, alphabet_size=b, kind=UNIFORM)


def symbolize(values, partition: Partition, name: str = "") -> SymbolSequence:
    """Map reals to symbols through a fitted partition.

    Total on all finite inputs: values below the first edge map to symbol 0,
    values above the last edge to symbol b-1, and a value equal to an edge
    joins the bin below it.
    """
    values = _checked_values(values)
    symbols = np.searchsorted(partition.edges, values, side="left")
    return SymbolSequence(symbols, partition.alphabet_size, name)


def repartition(
    merged: SymbolSequence, target_b: int, fit_length: int | None = None
) -> SymbolSequence:
    """Re-symbolize an integer-valued sequence down to at most ``target_b`` symbols.

    The merged values are treated as an ordinal real series and re-binned by
    maximum entropy partitioning, fitted on the first ``fit_length`` entries
    (all of them by default) and applied to the whole sequence. Two fallbacks
    keep the operation total during clustering, both logged:

    - ``target_b`` or fewer distinct values: lossless relabel to 0..d-1;
    - heavier ties collapse some quantile edges: the colliding edges are
      dropped and the output alphabet shrinks below ``target_b``.

    Either way the mapping is monotone in the merged value.
    """
    if target_b < 2:
        raise ValueError("target_b must be >= 2")
    values = merged.symbols
    fit = values if fit_length is None else values[:fit_length]
    if len(fit) == 0:
        raise DegenerateInput("empty fit window for repartitioning")
    ordered = np.sort(fit)
    distinct = _distinct(ordered)
    if len(distinct) <= target_b:
        if len(distinct) < target_b:
            logger.info(
                "repartition(%s): %d distinct values <= target %d, lossless relabel",
                merged.source_name, len(distinct), target_b,
            )
        symbols = np.minimum(np.searchsorted(distinct, values), len(distinct) - 1)
        return SymbolSequence(symbols, len(distinct), merged.source_name)
    raw = _quantile_edges(ordered.astype(np.float64), target_b)
    edges = _distinct(raw)
    if len(edges) < len(raw):
        logger.warning(
            "repartition(%s): ties collapsed %d quantile edges, alphabet %d -> %d",
            merged.source_name, len(raw) - len(edges), target_b, len(edges) + 1,
        )
    part = Partition(edges=edges, alphabet_size=len(edges) + 1, kind=MAX_ENTROPY)
    return symbolize(values, part, merged.source_name)
