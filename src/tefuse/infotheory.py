"""Plug-in transfer and causation entropy, from joint Shannon entropies.

Everything is measured in bits (log base 2) from empirical joint
frequencies; outcomes that never occur contribute nothing. No small-sample
bias correction is applied: the clustering metric only ever compares values
computed at identical sample sizes, so the common plug-in bias largely
cancels out of the comparison.

Joint distributions are formed by tupling aligned columns (raw symbols or
history windows) and counting distinct tuples, never by combining entropies
of the parts. :func:`_fold` turns the tuples into int64 keys in mixed radix,
which keeps lexicographic tuple order, with a sort only when the product of
the column widths would reach 2**62. Keys that are only counted come back
as int32 when that product, which bounds every key, is at most 2**31; the
fold decides this from the product it tracks, never from a scan of the
keys, and an integer sort orders int32 and int64 keys alike. Every entropy
is a row of one kernel, :func:`_entropies`: its counts are the run lengths
of one row-wise value sort of the keys (:func:`_counts`), so they come in
lexicographic tuple order, the order a sort of the stacked rows gives, and
each row's terms are summed over its own contiguous slice. Each count
array, and with it every floating-point sum over it, is therefore the same
element for element whatever way the tuples are formed, whatever the key
width and whichever rows share a batch. Dense ids 0..m-1
(:func:`_joint_ids`, one more sort) are made only where a table needs them:
the target's windows and its (next, own window) states, which every source
is joined with, and the estimator. A source's windows stay raw keys. A
history window is the tuple of its k+1 lagged symbols, so every quantity
here is invariant under any bijective relabeling of the input alphabets.

Lag convention: the target symbol at t+1 is paired with states through t,
giving aligned tuples for t = k .. n-2.

Every transfer and causation entropy takes one path, and every entropy
behind them is a row of one kernel call. :func:`_target_terms` checks a
target and a depth and prepares, once, the target's (next, own window) and
own window ids as one (2, 1, windows) stack, that stack's bounds, and
H(next | own history); :func:`_source` checks a source against it. The kernel
:func:`_conditional_entropies` gives H(next | own, source) for each row of
a 2-D array of source window keys. :func:`_scores` scores 2-D blocks of
sources, one row per source, against a prepared target, with one length
check per block, as H(next | own) less the kernel's row; a caller with
many batches prepares the target once. Sources are cut into chunks by one
rule, :func:`_chunks`: at most ``_CHUNK_KEYS`` source window keys to a
chunk, and at least one source. :func:`transfer_entropies` checks the
target first, then reads its sources lazily, checks each one when its turn
comes and stacks each chunk into a block; :func:`transfer_entropy` is
``transfer_entropies`` of one source. :func:`causation_entropy_pair` makes
one kernel call over the window keys of y, of x and of the pair (x, y),
whose fold keeps the lexicographic order of (x, y) windows. A kernel call
costs one pass that folds the target's stack in, within the given bounds,
to give its (next, own, source) and (own, source) keys over the whole
batch, and one row-wise sort of those keys, whatever the number of rows in
it.
"""

from __future__ import annotations

import itertools
import logging

import numpy as np

from .errors import LengthMismatch, SequenceTooShort

logger = logging.getLogger(__name__)

CLAMP_EPS = 1e-12
_ID_LIMIT = 2**62
# Keys of a fold whose span (the bound on its keys) is at most this fit
# int32; see _fold's ``narrow``.
_INT32_SPAN = 2**31
# Source window keys (sources x windows) per chunk of transfer_entropies; a
# chunk holds at least one source. Its joint keys and counts are arrays of
# up to twice this size, so the budget sets the memory scoring
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


def _fold(columns, bounds=None, narrow=False) -> np.ndarray:
    """Keys of the tuples formed by aligned, non-empty integer columns.

    Equal tuples share a key and keys follow lexicographic tuple order, but
    they are not dense: sorting the keys sorts the tuples. Columns are folded
    left to right in mixed radix: the keys so far are scaled by the next
    column's width (max - min + 1, measured, or from ``bounds``, which
    gives each column's (min, max), or None to measure it) and the column,
    shifted to start at zero, added. When that would take the product of
    widths to 2**62, the keys so far are re-ranked with one sort and the
    product restarts at the number of distinct keys; a column whose own
    width still overflows is dense-ranked too. Otherwise no column costs a
    sort.

    The columns may also be N-D arrays of one shape, the first of which may
    be smaller, broadcasting over the rest: a batch of rows is then folded at
    once, within the bounds of the whole batch, and a re-rank ranks the whole
    batch. The keys are scaled in place, or out of place while they are
    smaller than the column. Within each row the keys still follow tuple
    order, so each row counts the same as it would alone.

    Every key lies below the product of widths the fold tracks. With
    ``narrow``, for keys that are only sorted or counted, keys whose product
    is at most 2**31 come back as int32, which sorts faster and in the same
    order; the choice follows from that product, never from a scan. When
    the last column broadcasts the keys to the batch's shape, it is added
    straight into int32 keys, so the batch never exists as int64.
    """
    keys, span = None, 1
    for index, (col, col_bounds) in enumerate(
            zip(columns, bounds or itertools.repeat(None))):
        col = np.asarray(col, dtype=np.int64)
        lo, hi = col_bounds or (int(col.min()), int(col.max()))
        width = hi - lo + 1
        if span * width >= _ID_LIMIT:
            if keys is not None:
                distinct, ids = np.unique(keys, return_inverse=True)
                keys, span = ids.reshape(keys.shape), len(distinct)
            if span * width >= _ID_LIMIT:
                distinct, ids = np.unique(col, return_inverse=True)
                col, lo, width = ids.reshape(col.shape), 0, len(distinct)
        span *= width
        if keys is None:
            keys = col - lo
        elif keys.shape != col.shape:
            last = index == len(columns) - 1
            out = np.empty(np.broadcast_shapes(keys.shape, col.shape),
                           _key_type(span, narrow and last))
            keys = np.add(keys * width - lo, col, out=out, casting="unsafe")
        else:
            keys *= width
            keys += col - lo if lo else col
    return keys.astype(_key_type(span, narrow), copy=False)


def _key_type(span: int, narrow: bool):
    """int32 for narrowed keys below a span of at most 2**31, else int64."""
    return np.int32 if narrow and span <= _INT32_SPAN else np.int64


def _joint_ids(*columns) -> np.ndarray:
    """Dense ids of the tuples formed by aligned, non-empty integer columns.

    Equal tuples share an id, ids run 0..m-1 over the m distinct tuples and
    follow lexicographic tuple order: one sort ranks the :func:`_fold` keys.
    Only tables that keep or index by ids use them (the target's windows
    and states, the estimator); an entropy counts the keys directly.
    """
    return np.unique(_fold(columns), return_inverse=True)[1]


def _run_edges(ordered: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Whether each element of a row-wise ascending array (or of an
    ascending 1-D array) starts a run of equal values, written to ``out``
    when given: each row's first element does, and every other element that
    differs from the one before it."""
    if out is None:
        out = np.empty(ordered.shape, dtype=bool)
    out[..., :1] = True
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=out[..., 1:])
    return out


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values in each row of a row-wise ascending
    array (or in an ascending 1-D array) starts, as flat indices, then
    ``ordered.size``: run r is ``ordered.flat[starts[r]:starts[r + 1]]``, and
    every row starts a run."""
    edge = np.empty(ordered.size + 1, dtype=bool)
    _run_edges(ordered, edge[:-1].reshape(ordered.shape))
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
    return _fold([arr[..., j: n - 1 - k + j] for j in range(k + 1)], [bounds] * (k + 1))


def _check_lengths(k: int, cols) -> None:
    n = len(cols[-1])
    if any(len(c) != n for c in cols):
        raise LengthMismatch(
            "lengths differ: " + ", ".join(str(len(c)) for c in cols)
        )
    if n < k + 2:
        raise SequenceTooShort(f"need at least k+2={k + 2} samples, got {n}")


def _target_terms(target, k: int):
    """Check a target and a depth; return the target's column, ``k``, its
    (next, own window) ids and its window ids as one (2, 1, windows) stack,
    that stack's (min, max) and H(next | own)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    y = _column(target)
    _check_lengths(k, (y,))
    yw = _joint_ids(_windows(y, k))
    next_own = _joint_ids(y[k + 1:], yw)
    ids = np.stack([next_own, yw])
    h_next_own, h_own = _entropies(ids.copy())  # which sorts its copy
    return y, k, ids[:, None], (0, int(ids.max())), h_next_own - h_own


def _source(source, y: np.ndarray, k: int) -> np.ndarray:
    """A source's column, checked against the target's column ``y``."""
    x = _column(source)
    _check_lengths(k, (x, y))
    return x


def _conditional_entropies(keys: np.ndarray, ids: np.ndarray,
                           id_bounds: tuple[int, int]) -> list[float]:
    """H(next | own, source) for each row of a 2-D array of source window
    keys, toward a target's (2, 1, windows) id stack.

    The (next, own, source) and (own, source) keys of every row are
    :func:`_fold`'s keys of the id stack, within its given bounds, and the
    row: a (2, rows, windows) batch counted with one row-wise sort, of
    int32 keys where they fit.
    """
    joint = _fold((ids, keys), (id_bounds, None), narrow=True)
    h = _entropies(joint.reshape(-1, joint.shape[2]))
    return [h_joint - h_given for h_joint, h_given in zip(h[:len(keys)], h[len(keys):])]


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
    terms = _target_terms(target, k)
    y = terms[0]
    checked = (_source(source, y, k) for source in sources)
    return _scores(map(np.stack, _chunks(checked, len(y) - 1 - k)), terms)


def _chunks(items, windows: int):
    """Consecutive lists of ``items``, read lazily, of as many as fit in
    ``_CHUNK_KEYS`` source window keys at ``windows`` keys each (at least
    one); the last list may be shorter."""
    items, size = iter(items), max(1, _CHUNK_KEYS // windows)
    while chunk := list(itertools.islice(items, size)):
        yield chunk


def _scores(blocks, target) -> list[float]:
    """Transfer entropy of each row of each 2-D block of sources toward a
    target prepared by :func:`_target_terms`, so that a caller scoring many
    batches against one target prepares it once; each block's width is
    checked against the target."""
    y, k, ids, id_bounds, h_own = target
    values = []
    for block in blocks:
        _check_lengths(k, (block[0], y))
        h = _conditional_entropies(_windows(block, k), ids, id_bounds)
        values += [_clamped(h_own - h_source, "transfer entropy") for h_source in h]
    return values


def causation_entropy_pair(x, y, z, k: int) -> tuple[float, float]:
    """Extra information each of x, y carries about z beyond the other.

    Returns (x beyond (z, y), y beyond (z, x)): the first component is
    H(z_next | z,y histories) - H(z_next | z,x,y histories), the second the
    symmetric quantity with x and y swapped.
    """
    z, k, ids, id_bounds, _ = _target_terms(z, k)
    xw, yw = _windows(np.stack([_source(x, z, k), _source(y, z, k)]), k)
    h_zy, h_zx, h_zxy = _conditional_entropies(
        np.stack([yw, xw, _fold((xw, yw))]), ids, id_bounds)
    return (
        _clamped(h_zy - h_zxy, "causation entropy x beyond (z,y)"),
        _clamped(h_zx - h_zxy, "causation entropy y beyond (z,x)"),
    )
