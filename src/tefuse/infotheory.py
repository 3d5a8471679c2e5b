"""Plug-in estimators for Shannon, conditional, transfer, and causation entropy.

Everything is measured in bits (log base 2) from empirical joint
frequencies; outcomes that never occur contribute nothing. No small-sample
bias correction is applied: the clustering metric only ever compares values
computed at identical sample sizes, so the common plug-in bias largely
cancels out of the comparison.

Joint distributions are formed by tupling aligned columns (raw symbols or
history windows) and counting distinct tuples, never by combining entropies
of the parts. :func:`_fold` turns the tuples into int64 keys in mixed radix,
which keeps lexicographic tuple order, with a sort only when the product of
the column widths would reach 2**62. An entropy takes its counts from one
value sort of the keys (:func:`_counts`: the run lengths of the sorted keys;
``np.bincount`` gives the same array for dense ids), so the counts come in
lexicographic tuple order, the order a sort of the stacked rows gives. Each
count array, and with it every floating-point sum over it, is therefore the
same element for element whatever way the tuples are formed. Dense ids 0..m-1 (:func:`_joint_ids`, one more sort) are made
only where a table needs them: the target's windows and its (next, own
window) states, which every source is joined with, :func:`_history`, and the
estimator. A source's windows stay raw keys. A history window is the tuple
of its k+1 lagged symbols, so every quantity here is invariant under any
bijective relabeling of the input alphabets.

Lag convention: the target symbol at t+1 is paired with states through t,
giving aligned tuples for t = k .. n-2.

:func:`transfer_entropies` scores many sources against one target: the
target's windows and H(next | own history) are computed once per call, and
each source then costs one fold of its windows and two value sorts. It and
:func:`transfer_entropy` share one private kernel, so the formula is
written once.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import EmptySequence, LengthMismatch, SequenceTooShort

logger = logging.getLogger(__name__)

CLAMP_EPS = 1e-12
_ID_LIMIT = 2**62


def _column(seq) -> np.ndarray:
    """Accept a SymbolSequence or any 1-D integer array-like."""
    if hasattr(seq, "symbols"):
        seq = seq.symbols
    arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional symbol sequence")
    return arr


def _fold(columns, bounds=None) -> np.ndarray:
    """Keys of the tuples formed by aligned, non-empty integer columns.

    Equal tuples share a key and keys follow lexicographic tuple order, but
    they are not dense: sorting the keys sorts the tuples. Columns are folded
    left to right in mixed radix: the keys so far are scaled by the next
    column's width (max - min + 1, or ``bounds`` when the caller knows them
    for every column) and the column, shifted to start at zero, added. When
    that would take the product of widths to 2**62, the keys so far are
    re-ranked with one sort and the product restarts at the number of
    distinct keys; a column whose own width still overflows is dense-ranked
    too. Otherwise no column costs a sort.
    """
    keys, span = None, 1
    for col in columns:
        col = np.asarray(col, dtype=np.int64)
        lo, hi = bounds or (int(col.min()), int(col.max()))
        width = hi - lo + 1
        if span * width >= _ID_LIMIT:
            if keys is not None:
                distinct, keys = np.unique(keys, return_inverse=True)
                span = len(distinct)
            if span * width >= _ID_LIMIT:
                distinct, col = np.unique(col, return_inverse=True)
                lo, width = 0, len(distinct)
        if keys is None:
            keys = col - lo
        else:
            keys *= width
            keys += col - lo if lo else col
        span *= width
    return keys


def _joint_ids(*columns) -> np.ndarray:
    """Dense ids of the tuples formed by aligned, non-empty integer columns.

    Equal tuples share an id, ids run 0..m-1 over the m distinct tuples and
    follow lexicographic tuple order: one sort ranks the :func:`_fold` keys.
    Only tables that keep or index by ids use them (the target's windows,
    :func:`_history`, the estimator); an entropy counts the keys directly.
    """
    return np.unique(_fold(columns), return_inverse=True)[1]


def _counts(keys: np.ndarray) -> np.ndarray:
    """How often each distinct key occurs, in ascending key order: the run
    lengths of one value sort, equal to ``np.bincount`` of the dense ids."""
    ordered = np.sort(keys)
    edge = np.empty(len(ordered) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=edge[1:-1])
    starts = np.flatnonzero(edge)
    return starts[1:] - starts[:-1]


def _entropy(counts: np.ndarray) -> float:
    """Entropy in bits of a table of nonzero counts."""
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _joint_entropy(*columns) -> float:
    return _entropy(_counts(_fold(columns)))


def _clamped(value: float, what: str) -> float:
    # Plug-in conditional mutual information is nonnegative; only float
    # round-off can push it below zero, and only by ~1e-16.
    if -CLAMP_EPS <= value < 0.0:
        logger.debug("clamping %.3e from %s to zero", value, what)
        return 0.0
    return value


def _windows(arr: np.ndarray, k: int) -> np.ndarray:
    """Keys of the (k+1)-symbol windows ending at t = k .. n-2: one fold of
    the k+1 lagged slices, all within the bounds of the whole array."""
    n = len(arr)
    bounds = int(arr.min()), int(arr.max())
    return _fold([arr[j: n - 1 - k + j] for j in range(k + 1)], bounds)


def _history(arr: np.ndarray, k: int) -> np.ndarray:
    """Dense ids of the (k+1)-symbol windows ending at t = k .. n-2."""
    return np.unique(_windows(arr, k), return_inverse=True)[1]


def _aligned(k: int, *seqs) -> list[np.ndarray]:
    """Validate equal-length sequences; return their columns."""
    if k < 0:
        raise ValueError("k must be >= 0")
    cols = [_column(s) for s in seqs]
    n = len(cols[-1])
    if any(len(c) != n for c in cols):
        raise LengthMismatch(
            "lengths differ: " + ", ".join(str(len(c)) for c in cols)
        )
    if n < k + 2:
        raise SequenceTooShort(f"need at least k+2={k + 2} samples, got {n}")
    return cols


def shannon_entropy(seq) -> float:
    """Entropy of the empirical symbol distribution, in bits."""
    arr = _column(seq)
    if len(arr) == 0:
        raise EmptySequence("cannot take the entropy of an empty sequence")
    return _entropy(_counts(arr))


def conditional_entropy(next_symbols, given) -> float:
    """H(next | given) from aligned empirical counts, via H(joint) - H(given).

    ``given`` may be a single sequence or an (n, m) matrix whose columns are
    tupled into one conditioning variable.
    """
    nxt = _column(next_symbols)
    g = np.asarray(given if not hasattr(given, "symbols") else given.symbols,
                   dtype=np.int64)
    if g.ndim == 1:
        g = g[:, None]
    if len(nxt) != len(g):
        raise LengthMismatch(
            f"next has length {len(nxt)}, conditioning has length {len(g)}"
        )
    if len(nxt) == 0:
        raise EmptySequence("cannot condition on an empty sequence")
    if g.shape[1] == 0:
        raise ValueError("the conditioning matrix has no columns")
    return _joint_entropy(nxt, *g.T) - _joint_entropy(*g.T)


def _target_terms(y: np.ndarray, k: int):
    """The target's window ids, (next, own window) ids and H(next | own)."""
    yw = _history(y, k)
    next_own = _joint_ids(y[k + 1:], yw)
    return yw, next_own, _entropy(np.bincount(next_own)) - _entropy(np.bincount(yw))


def _transfer(xw: np.ndarray, yw: np.ndarray, next_own: np.ndarray,
              h_own: float) -> float:
    """H(next | own) - H(next | own, source) for source window keys ``xw``."""
    h_both = _joint_entropy(next_own, xw) - _joint_entropy(yw, xw)
    return _clamped(h_own - h_both, "transfer entropy")


def transfer_entropy(source, target, k: int) -> float:
    """Directed information flow source -> target, in bits.

    The reduction in uncertainty of the target's next symbol from knowing
    the source's depth-k state history in addition to the target's own:
    H(next | own history) - H(next | own and source history).
    """
    x, y = _aligned(k, source, target)
    return _transfer(_windows(x, k), *_target_terms(y, k))


def transfer_entropies(sources, target, k: int) -> list[float]:
    """``[transfer_entropy(s, target, k) for s in sources]``, equal float for
    float, with the target's terms computed once.

    ``sources`` may be any iterable; each source is checked as
    :func:`transfer_entropy` checks it when its turn comes.
    """
    values, terms = [], None
    for source in sources:
        x, y = _aligned(k, source, target)
        if terms is None:
            terms = _target_terms(y, k)
        values.append(_transfer(_windows(x, k), *terms))
    return values


def causation_entropy_pair(x, y, z, k: int) -> tuple[float, float]:
    """Extra information each of x, y carries about z beyond the other.

    Returns (x beyond (z, y), y beyond (z, x)): the first component is
    H(z_next | z,y histories) - H(z_next | z,x,y histories), the second the
    symmetric quantity with x and y swapped.
    """
    xa, ya, za = _aligned(k, x, y, z)
    zw, next_own, _ = _target_terms(za, k)
    xw, yw = _windows(xa, k), _windows(ya, k)
    h_zx = _joint_entropy(next_own, xw) - _joint_entropy(zw, xw)
    h_zy = _joint_entropy(next_own, yw) - _joint_entropy(zw, yw)
    h_zxy = _joint_entropy(next_own, xw, yw) - _joint_entropy(zw, xw, yw)
    return (
        _clamped(h_zy - h_zxy, "causation entropy x beyond (z,y)"),
        _clamped(h_zx - h_zxy, "causation entropy y beyond (z,x)"),
    )
