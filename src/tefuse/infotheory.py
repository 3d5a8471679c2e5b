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
the column widths would reach 2**62. Every entropy is a row of one kernel,
:func:`_entropies`: its counts are the run lengths of one row-wise value
sort of the keys (:func:`_counts`), so they come in lexicographic tuple
order, the order a sort of the stacked rows gives, and each row's terms are
summed over its own contiguous slice. Each count array, and with it every
floating-point sum over it, is therefore the same element for element
whatever way the tuples are formed and whichever rows share a batch. Dense
ids 0..m-1 (:func:`_joint_ids`, one more sort) are made only where a table
needs them: the target's windows and its (next, own window) states, which
every source is joined with, :func:`_history`, and the estimator. A
source's windows stay raw keys. A history window is the tuple of its k+1
lagged symbols, so every quantity here is invariant under any bijective
relabeling of the input alphabets.

Lag convention: the target symbol at t+1 is paired with states through t,
giving aligned tuples for t = k .. n-2.

Every transfer entropy takes one path. :func:`_target_terms` checks a
target and a depth and prepares the target's windows and H(next | own
history). :func:`_scores`, the one caller of the kernel
:func:`_transfer_rows`, scores sources against a prepared target, which a
caller with many batches prepares once. :func:`transfer_entropies` is
``_scores`` over a target prepared for the call, checked before any source
is read, and :func:`transfer_entropy` is ``transfer_entropies`` of one
source. Sources are scored in chunks, a (sources, n) batch each, of at
most ``_CHUNK_KEYS`` source window keys (and at least one source). A chunk
costs one :func:`_fold` of its windows, one of its (next, own, source) and
(own, source) keys, each over the whole batch, and one row-wise sort of
those keys, whatever the number of sources in it.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import EmptySequence, LengthMismatch, SequenceTooShort

logger = logging.getLogger(__name__)

CLAMP_EPS = 1e-12
_ID_LIMIT = 2**62
# Source window keys (sources x windows) per chunk of transfer_entropies; a
# chunk holds at least one source. Its joint keys and counts are int64
# arrays of up to twice this size, so the budget sets the memory scoring
# adds to a run's peak, not its speed. On the 24-source `wide` benchmark
# workload, 2**16 raised the peak resident memory from 42.8 to 44.8 MB with
# no gain in time; 2**14 stays within 0.2 MB of one source per chunk.
_CHUNK_KEYS = 2**14


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

    The columns may also be N-D arrays of one shape (the first may be a
    broadcast view): a batch of rows is then folded at once, within the
    bounds of the whole batch, and a re-rank ranks the whole batch. Within
    each row the keys still follow tuple order, so each row counts the same
    as it would alone.
    """
    keys, span = None, 1
    for col in columns:
        col = np.asarray(col, dtype=np.int64)
        lo, hi = bounds or (int(col.min()), int(col.max()))
        width = hi - lo + 1
        if span * width >= _ID_LIMIT:
            if keys is not None:
                distinct, ids = np.unique(keys, return_inverse=True)
                keys, span = ids.reshape(keys.shape), len(distinct)
            if span * width >= _ID_LIMIT:
                distinct, ids = np.unique(col, return_inverse=True)
                col, lo, width = ids.reshape(col.shape), 0, len(distinct)
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


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values in each row of a row-wise ascending
    array (or in an ascending 1-D array) starts, as flat indices, then
    ``ordered.size``: run r is ``ordered.flat[starts[r]:starts[r + 1]]``, and
    every row starts a run."""
    edge = np.empty(ordered.size + 1, dtype=bool)
    rows = edge[:-1].reshape(ordered.shape)
    rows[..., :1] = True
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=rows[..., 1:])
    edge[-1] = True
    return np.flatnonzero(edge)


def _counts(keys: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """How often each distinct key occurs in each row of a 2-D key array, in
    ascending key order within a row: the run lengths of one row-wise value
    sort, flat, and where each row's counts end. For dense ids a row's
    counts are the bincount of its ids. The keys are sorted in place."""
    n = keys.shape[1]
    keys.sort(axis=1)
    starts = _run_starts(keys)
    ends = np.searchsorted(starts, np.arange(n, keys.size + 1, n)).tolist()
    return np.diff(starts), ends


def _entropies(keys: np.ndarray) -> list[float]:
    """Entropy in bits of the keys in each row of a 2-D key array, which
    this sorts in place.

    A term ``p * log2 p`` depends only on its count, so it is computed once
    for each count from 1 to the largest and looked up for the flat counts
    of every row. Each row's entropy is the pairwise sum of its own
    contiguous slice of terms, the same float as for that row alone.
    """
    counts, ends = _counts(keys)
    p = np.arange(int(counts.max()) + 1) / keys.shape[1]
    p[0] = 1.0  # no count is 0; this keeps log2 finite
    p *= np.log2(p)
    terms = p[counts]
    return [float(-terms[a:b].sum()) for a, b in zip([0, *ends], ends)]


def _joint_entropy(*columns) -> float:
    return _entropies(_fold(columns)[None])[0]


def _clamped(value: float, what: str) -> float:
    # Plug-in conditional mutual information is nonnegative; only float
    # round-off can push it below zero, and only by ~1e-16.
    if -CLAMP_EPS <= value < 0.0:
        logger.debug("clamping %.3e from %s to zero", value, what)
        return 0.0
    return value


def _windows(arr: np.ndarray, k: int) -> np.ndarray:
    """Keys of the (k+1)-symbol windows ending at t = k .. n-2 of a 1-D
    array, or of each row of a 2-D one: one fold of the k+1 lagged slices,
    all within the bounds of the whole array."""
    n = arr.shape[-1]
    bounds = int(arr.min()), int(arr.max())
    return _fold([arr[..., j: n - 1 - k + j] for j in range(k + 1)], bounds)


def _history(arr: np.ndarray, k: int) -> np.ndarray:
    """Dense ids of the (k+1)-symbol windows ending at t = k .. n-2."""
    return np.unique(_windows(arr, k), return_inverse=True)[1]


def _aligned(k: int, *seqs) -> list[np.ndarray]:
    """Validate equal-length sequences; return their columns."""
    if k < 0:
        raise ValueError("k must be >= 0")
    cols = [_column(s) for s in seqs]
    _check_lengths(k, cols)
    return cols


def _check_lengths(k: int, cols) -> None:
    n = len(cols[-1])
    if any(len(c) != n for c in cols):
        raise LengthMismatch(
            "lengths differ: " + ", ".join(str(len(c)) for c in cols)
        )
    if n < k + 2:
        raise SequenceTooShort(f"need at least k+2={k + 2} samples, got {n}")


def shannon_entropy(seq) -> float:
    """Entropy of the empirical symbol distribution, in bits."""
    arr = _column(seq)
    if len(arr) == 0:
        raise EmptySequence("cannot take the entropy of an empty sequence")
    return _entropies(arr[None].copy())[0]


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


def _target_terms(target, k: int):
    """Check a target and a depth; return the target's column, ``k``, its
    window ids, its (next, own window) ids and H(next | own)."""
    (y,) = _aligned(k, target)
    yw = _history(y, k)
    next_own = _joint_ids(y[k + 1:], yw)
    h_next_own, h_own = _entropies(np.stack([next_own, yw]))
    return y, k, yw, next_own, h_next_own - h_own


def _transfer_rows(rows: np.ndarray, k: int, yw: np.ndarray,
                   next_own: np.ndarray, h_own: float) -> list[float]:
    """H(next | own) - H(next | own, source) for each source row of ``rows``.

    The (next, own, source window) and (own, source window) keys of every
    row are one :func:`_fold` of the target's ids with the rows' window
    keys, a (2, rows, windows) batch counted with one row-wise sort.
    """
    xw = _windows(rows, k)
    ids = np.stack([next_own, yw])[:, None]
    keys = _fold((np.broadcast_to(ids, (2, *xw.shape)), xw))
    del xw  # not needed while the keys are counted
    h = _entropies(keys.reshape(-1, keys.shape[2]))
    return [_clamped(h_own - (h_joint - h_given), "transfer entropy")
            for h_joint, h_given in zip(h[:len(rows)], h[len(rows):])]


def transfer_entropy(source, target, k: int) -> float:
    """Directed information flow source -> target, in bits.

    The reduction in uncertainty of the target's next symbol from knowing
    the source's depth-k state history in addition to the target's own:
    H(next | own history) - H(next | own and source history).
    """
    return transfer_entropies([source], target, k)[0]


def transfer_entropies(sources, target, k: int) -> list[float]:
    """``[transfer_entropy(s, target, k) for s in sources]``, equal float for
    float, with the target's terms computed once. The target and ``k`` are
    checked first; ``sources`` may be any iterable and is read lazily, each
    source checked against the target when its turn comes.
    """
    return _scores(sources, _target_terms(target, k))


def _scores(sources, target) -> list[float]:
    """:func:`transfer_entropies` of ``sources`` toward a target prepared by
    :func:`_target_terms`, so that a caller scoring many batches against
    one target prepares it once."""
    y, k, *terms = target
    values, chunk = [], []
    rows_per_chunk = max(1, _CHUNK_KEYS // len(terms[0]))
    for source in sources:
        x = _column(source)
        _check_lengths(k, (x, y))
        chunk.append(x)
        if len(chunk) == rows_per_chunk:
            values += _transfer_rows(np.stack(chunk), k, *terms)
            chunk = []
    if chunk:
        values += _transfer_rows(np.stack(chunk), k, *terms)
    return values


def causation_entropy_pair(x, y, z, k: int) -> tuple[float, float]:
    """Extra information each of x, y carries about z beyond the other.

    Returns (x beyond (z, y), y beyond (z, x)): the first component is
    H(z_next | z,y histories) - H(z_next | z,x,y histories), the second the
    symmetric quantity with x and y swapped.
    """
    xa, ya, za = _aligned(k, x, y, z)
    _, _, zw, next_own, _ = _target_terms(za, k)
    xw, yw = _windows(xa, k), _windows(ya, k)
    h_zx = _joint_entropy(next_own, xw) - _joint_entropy(zw, xw)
    h_zy = _joint_entropy(next_own, yw) - _joint_entropy(zw, yw)
    h_zxy = _joint_entropy(next_own, xw, yw) - _joint_entropy(zw, xw, yw)
    return (
        _clamped(h_zy - h_zxy, "causation entropy x beyond (z,y)"),
        _clamped(h_zx - h_zxy, "causation entropy y beyond (z,x)"),
    )
