"""Plug-in estimators for Shannon, conditional, transfer, and causation entropy.

Everything is measured in bits (log base 2) from empirical joint
frequencies; outcomes that never occur contribute nothing. No small-sample
bias correction is applied: the clustering metric only ever compares values
computed at identical sample sizes, so the common plug-in bias largely
cancels out of the comparison.

Joint distributions are formed by tupling aligned columns (raw symbols or
history windows) and counting distinct tuples, never by combining entropies
of the parts. Every count goes through one primitive, :func:`_joint_ids`,
which numbers the distinct tuples 0..m-1 in lexicographic tuple order; the
counts are then ``np.bincount`` of those ids. Lexicographic order is the
order a sort of the stacked rows gives, so each count array, and with it
every floating-point sum over it, is the same element for element whatever
way the tuples are formed. The columns are folded in mixed radix, which
keeps that order, with a sort only when the next column would take the id
range to 2**62, and once at the end: a depth-k window costs one sort. A
history window is the tuple of its k+1 lagged symbols, so every quantity
here is invariant under any bijective relabeling of the input alphabets.

Lag convention: the target symbol at t+1 is paired with states through t,
giving aligned tuples for t = k .. n-2.

:func:`transfer_entropies` scores many sources against one target: the
target's windows and H(next | own history) are computed once per call, and
each source then costs its own window ids and two joint counts. It and
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


def _joint_ids(*columns) -> np.ndarray:
    """Dense ids of the tuples formed by aligned, non-empty integer columns.

    Equal tuples share an id, ids run 0..m-1 over the m distinct tuples and
    follow lexicographic tuple order. Columns are folded left to right in
    mixed radix: the ids so far are scaled by the next column's width and
    the column added. A column is shifted to start at zero, or dense-ranked
    when its span reaches the row count, so its width is at most n. Mixed
    radix keeps lexicographic order, so the ids are re-ranked with one sort
    only when the next column would take the product of widths to 2**62
    (after which the product restarts at the number of distinct ids), and
    once at the end; a depth-k window costs one sort, not k+1. A dense-ranked
    column costs one more.
    """
    n = len(columns[0])
    ids = np.zeros(n, dtype=np.int64)
    span = 1
    for col in columns:
        col = np.asarray(col, dtype=np.int64)
        lo, hi = int(col.min()), int(col.max())
        if hi - lo < n:
            width, col = hi - lo + 1, col - lo
        else:
            width, col = n, np.unique(col, return_inverse=True)[1]
        if span * width >= _ID_LIMIT:
            distinct, ids = np.unique(ids, return_inverse=True)
            span = len(distinct)
        ids = ids * width + col
        span *= width
    return np.unique(ids, return_inverse=True)[1]


def _entropy(ids: np.ndarray) -> float:
    p = np.bincount(ids) / len(ids)
    return float(-(p * np.log2(p)).sum())


def _clamped(value: float, what: str) -> float:
    # Plug-in conditional mutual information is nonnegative; only float
    # round-off can push it below zero, and only by ~1e-16.
    if -CLAMP_EPS <= value < 0.0:
        logger.debug("clamping %.3e from %s to zero", value, what)
        return 0.0
    return value


def _history(arr: np.ndarray, k: int) -> np.ndarray:
    """Ids of the (k+1)-symbol windows ending at t = k .. n-2."""
    n = len(arr)
    return _joint_ids(*(arr[j: n - 1 - k + j] for j in range(k + 1)))


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
    return _entropy(_joint_ids(arr))


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
    return _entropy(_joint_ids(nxt, *g.T)) - _entropy(_joint_ids(*g.T))


def _target_terms(y: np.ndarray, k: int):
    """The target's window ids, (next, own window) ids and H(next | own)."""
    yw = _history(y, k)
    next_own = _joint_ids(y[k + 1:], yw)
    return yw, next_own, _entropy(next_own) - _entropy(yw)


def _transfer(xw: np.ndarray, yw: np.ndarray, next_own: np.ndarray,
              h_own: float) -> float:
    """H(next | own) - H(next | own, source) for source window ids ``xw``."""
    h_both = _entropy(_joint_ids(next_own, xw)) - _entropy(_joint_ids(yw, xw))
    return _clamped(h_own - h_both, "transfer entropy")


def transfer_entropy(source, target, k: int) -> float:
    """Directed information flow source -> target, in bits.

    The reduction in uncertainty of the target's next symbol from knowing
    the source's depth-k state history in addition to the target's own:
    H(next | own history) - H(next | own and source history).
    """
    x, y = _aligned(k, source, target)
    return _transfer(_history(x, k), *_target_terms(y, k))


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
        values.append(_transfer(_history(x, k), *terms))
    return values


def causation_entropy_pair(x, y, z, k: int) -> tuple[float, float]:
    """Extra information each of x, y carries about z beyond the other.

    Returns (x beyond (z, y), y beyond (z, x)): the first component is
    H(z_next | z,y histories) - H(z_next | z,x,y histories), the second the
    symmetric quantity with x and y swapped.
    """
    xa, ya, za = _aligned(k, x, y, z)
    zw, xw, yw = _history(za, k), _history(xa, k), _history(ya, k)
    next_own = _joint_ids(za[k + 1:], zw)
    next_zx = _joint_ids(next_own, xw)
    zx = _joint_ids(zw, xw)
    h_zx = _entropy(next_zx) - _entropy(zx)
    h_zy = _entropy(_joint_ids(next_own, yw)) - _entropy(_joint_ids(zw, yw))
    h_zxy = _entropy(_joint_ids(next_zx, yw)) - _entropy(_joint_ids(zx, yw))
    return (
        _clamped(h_zy - h_zxy, "causation entropy x beyond (z,y)"),
        _clamped(h_zx - h_zxy, "causation entropy y beyond (z,x)"),
    )
