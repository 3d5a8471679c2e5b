"""Pairwise fusion of symbol sequences: radix merge, then repartition.

Two aligned symbol sequences x (alphabet b_x) and y (alphabet b_y) merge
elementwise into values x_i * b_y + y_i, a number in the (b_x * b_y)-ary
system that decodes uniquely back to the pair. The merged sequence is then
squeezed to a working alphabet by ordinal repartitioning. Which sequence
takes the major digit matters to the repartition bin layout, so callers fix
it (the clustering module puts the lower-numbered node first).

:func:`fuse` hands :func:`merge_pair`'s integer values straight to the one
repartition rule (:func:`tefuse.sdf._repartition`) with the pair's name, so
a fusion builds no float copy and no intermediate sequence or partition.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch
from .frozen import Frozen
from .sdf import SymbolSequence, _repartition


class MergedSequence(Frozen):
    """Elementwise pairing of two symbol sequences, x major, y minor."""

    __slots__ = ("values", "b_x", "b_y", "parents")

    def __init__(self, values: np.ndarray, b_x: int, b_y: int, parents: tuple[str, str]):
        self._fill(locals())
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.int64))
        object.__setattr__(self, "parents", tuple(self.parents))

    @property
    def alphabet_size(self) -> int:
        return self.b_x * self.b_y

    def decode(self) -> tuple[np.ndarray, np.ndarray]:
        """Recover the (x, y) component sequences."""
        return self.values // self.b_y, self.values % self.b_y

    def __len__(self) -> int:
        return len(self.values)


def merge_pair(x: SymbolSequence, y: SymbolSequence) -> MergedSequence:
    """Pair two aligned sequences into one (b_x * b_y)-ary sequence."""
    if len(x) != len(y):
        raise LengthMismatch(f"cannot merge lengths {len(x)} and {len(y)}")
    values = x.symbols * y.alphabet_size + y.symbols
    return MergedSequence(
        values=values,
        b_x=x.alphabet_size,
        b_y=y.alphabet_size,
        parents=(x.source_name, y.source_name),
    )


def as_symbol_sequence(merged: MergedSequence) -> SymbolSequence:
    """View a merged sequence as a plain symbol sequence over its full alphabet."""
    return SymbolSequence(merged.values, merged.alphabet_size, _name(merged))


def _name(merged: MergedSequence) -> str:
    """The synthesized name "(x+y)" of a merged pair."""
    return f"({merged.parents[0]}+{merged.parents[1]})"


def fuse(
    x: SymbolSequence,
    y: SymbolSequence,
    fused_alphabet: int,
    fit_length: int | None = None,
) -> SymbolSequence:
    """Merge two sequences and repartition down to ``fused_alphabet`` symbols.

    The repartition quantiles are fitted on the first ``fit_length`` merged
    values (all of them by default) and applied to the whole sequence; the
    result carries the synthesized name "(x+y)". The output alphabet never
    exceeds ``fused_alphabet`` but may fall below it on degenerate merges
    (see :func:`tefuse.sdf._repartition`).
    """
    merged = merge_pair(x, y)
    return _repartition(merged.values, fused_alphabet, fit_length, _name(merged))
