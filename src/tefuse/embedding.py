"""History embedding: pack each symbol with its k predecessors into one state.

State ids are radix encodings in the sequence's alphabet base with the
earliest symbol as the most significant digit, made by the fold the
entropies key their windows with (:func:`~tefuse.infotheory._fold`); they
exist while b**(k+1) < 2**62, and :func:`embed` raises ``ValueError`` past
that. The first k positions carry no complete window and produce no state,
so an n-symbol sequence embeds into exactly n-k states, the first of which
sits at original index k.
"""

from __future__ import annotations

import numpy as np

from .errors import SequenceTooShort
from .frozen import Frozen
from .infotheory import _ID_LIMIT, _fold
from .sdf import SymbolSequence


class StateSequence(Frozen):
    """Radix-encoded (depth+1)-symbol windows of a symbol sequence."""

    __slots__ = ("states", "depth", "base")

    def __init__(self, states: np.ndarray, depth: int, base: int):
        self._fill(locals())
        states = np.asarray(self.states, dtype=np.int64)
        object.__setattr__(self, "states", states)
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.base < 1:
            raise ValueError("base must be >= 1")

    def __len__(self) -> int:
        return len(self.states)


def embed(seq: SymbolSequence, k: int) -> StateSequence:
    """Embed a symbol sequence into states of depth ``k``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    symbols = seq.symbols
    n = len(symbols)
    if n <= k:
        raise SequenceTooShort(f"need more than k={k} symbols, got {n}")
    b = seq.alphabet_size
    if b ** (k + 1) >= _ID_LIMIT:
        raise ValueError(f"state space {b}^{k + 1} is not below the 2^62 id limit")
    # one base-b digit per lagged slice; below the limit the fold never re-ranks
    states = _fold([symbols[j: n - k + j] for j in range(k + 1)], [(0, b - 1)] * (k + 1))
    return StateSequence(states=states, depth=k, base=b)


def decode_state(state: int, k: int, b: int) -> tuple[int, ...]:
    """Recover the (k+1)-symbol window a state id encodes, earliest first."""
    digits = []
    state = int(state)
    for _ in range(k + 1):
        digits.append(state % b if b > 1 else 0)
        state //= max(b, 1)
    return tuple(reversed(digits))
