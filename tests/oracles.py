"""Independent brute-force oracles for the test suite.

Everything here is deliberately written with plain Python dictionaries,
tuples, and math.log2 — no numpy, no imports from the package under test —
so the oracle path shares no code with the implementations it checks.
The exceptions are frozen copies of earlier implementations that a faster
one must match bit for bit: :func:`joint_ids_oracle` and the dense-id
entropies built on it (:func:`dense_transfer_entropies_oracle`,
:func:`dense_causation_entropy_pair_oracle`), the radix states
:func:`embed_oracle`, all numpy, and the writer
:func:`predictions_csv_oracle`, which reads the package's report objects by
attribute.
"""

import math
from collections import Counter


def entropy_of_counts(counts):
    """Shannon entropy in bits of a count table (dict or Counter values)."""
    total = sum(counts.values())
    h = 0.0
    for c in counts.values():
        p = c / total
        h -= p * math.log2(p)
    return h


def entropy_oracle(seq):
    return entropy_of_counts(Counter(seq))


def conditional_entropy_oracle(nxt, given):
    """H(next | given) from raw joint counts: H(joint) - H(given)."""
    given = [tuple(g) if isinstance(g, (list, tuple)) else (g,) for g in given]
    joint = Counter(zip(nxt, given))
    marg = Counter(given)
    return entropy_of_counts(joint) - entropy_of_counts(marg)


def window(seq, t, k):
    """The (k+1)-symbol history window ending at t, earliest first."""
    return tuple(seq[t - k: t + 1])


def te_oracle(x, y, k):
    """Transfer entropy x -> y in bits, as a difference of conditional
    entropies built from explicit window tuples for t = k .. n-2."""
    n = len(y)
    nxt = [y[t + 1] for t in range(k, n - 1)]
    yw = [window(y, t, k) for t in range(k, n - 1)]
    xw = [window(x, t, k) for t in range(k, n - 1)]
    h_own = (entropy_of_counts(Counter(zip(nxt, yw)))
             - entropy_of_counts(Counter(yw)))
    h_both = (entropy_of_counts(Counter(zip(nxt, yw, xw)))
              - entropy_of_counts(Counter(zip(yw, xw))))
    return h_own - h_both


def te_ratio_sum_oracle(x, y, k):
    """Transfer entropy x -> y in bits, as the explicit probability-ratio sum

        mean over t of log2[p(next | own, source) / p(next | own)]

    with every probability a ratio of raw tuple counts. Algebraically equal
    to te_oracle, but summed per sample rather than per distinct outcome."""
    n = len(y)
    triples = [(y[t + 1], window(y, t, k), window(x, t, k))
               for t in range(k, n - 1)]
    c_full = Counter(triples)
    c_cond = Counter((own, src) for _, own, src in triples)
    c_next_own = Counter((nxt, own) for nxt, own, _ in triples)
    c_own = Counter(own for _, own, _ in triples)
    total = 0.0
    for nxt, own, src in triples:
        total += math.log2((c_full[nxt, own, src] * c_own[own])
                           / (c_cond[own, src] * c_next_own[nxt, own]))
    return total / len(triples)


def joint_te_oracle(x, y, z, k):
    """Transfer entropy (x, y) -> z with the pair tupled elementwise."""
    merged = list(zip(x, y))
    return te_oracle(merged, z, k)


def score_oracle(x, y, z, k):
    """The pair-fusion score: (T_x - T_xy) + (T_y - T_xy)."""
    te_x = te_oracle(x, z, k)
    te_y = te_oracle(y, z, k)
    te_xy = joint_te_oracle(x, y, z, k)
    return (te_x - te_xy) + (te_y - te_xy)


def causation_pair_oracle(x, y, z, k):
    """(x beyond (z, y), y beyond (z, x)) toward z's next symbol."""
    n = len(z)
    nxt = [z[t + 1] for t in range(k, n - 1)]
    zw = [window(z, t, k) for t in range(k, n - 1)]
    xw = [window(x, t, k) for t in range(k, n - 1)]
    yw = [window(y, t, k) for t in range(k, n - 1)]

    def cond(parts):
        joint = Counter(zip(nxt, *parts))
        marg = Counter(zip(*parts))
        return entropy_of_counts(joint) - entropy_of_counts(marg)

    h_zx = cond([zw, xw])
    h_zy = cond([zw, yw])
    h_zxy = cond([zw, xw, yw])
    return h_zy - h_zxy, h_zx - h_zxy


def joint_ids_oracle(*columns):
    """Dense lexicographic ids of the row tuples, by the eager fold: after
    every column the ids are scaled by its span, the column added, and the
    result re-ranked with a sort."""
    import numpy as np

    n = len(columns[0])
    ids = np.zeros(n, dtype=np.int64)
    for col in columns:
        col = np.asarray(col, dtype=np.int64)
        lo, hi = int(col.min()), int(col.max())
        if hi - lo < n:
            ids = ids * (hi - lo + 1) + (col - lo)
        else:
            ids = ids * n + np.unique(col, return_inverse=True)[1]
        ids = np.unique(ids, return_inverse=True)[1]
    return ids


def _dense_entropy(ids):
    import numpy as np

    p = np.bincount(ids) / len(ids)
    return float(-(p * np.log2(p)).sum())


def _dense_history(arr, k):
    n = len(arr)
    return joint_ids_oracle(*(arr[j: n - 1 - k + j] for j in range(k + 1)))


def _clamp(value):
    return 0.0 if -1e-12 <= value < 0.0 else value


def dense_transfer_entropies_oracle(sources, target, k):
    """Transfer entropy of each source toward ``target``, every window and
    joint state numbered densely and counted with ``np.bincount``."""
    import numpy as np

    y = np.asarray(target, dtype=np.int64)
    yw = _dense_history(y, k)
    next_own = joint_ids_oracle(y[k + 1:], yw)
    h_own = _dense_entropy(next_own) - _dense_entropy(yw)
    values = []
    for source in sources:
        xw = _dense_history(np.asarray(source, dtype=np.int64), k)
        h_both = (_dense_entropy(joint_ids_oracle(next_own, xw))
                  - _dense_entropy(joint_ids_oracle(yw, xw)))
        values.append(_clamp(h_own - h_both))
    return values


def dense_causation_entropy_pair_oracle(x, y, z, k):
    """(x beyond (z, y), y beyond (z, x)) by the dense-id path."""
    import numpy as np

    x, y, z = (np.asarray(a, dtype=np.int64) for a in (x, y, z))
    zw, xw, yw = _dense_history(z, k), _dense_history(x, k), _dense_history(y, k)
    next_own = joint_ids_oracle(z[k + 1:], zw)
    next_zx, zx = joint_ids_oracle(next_own, xw), joint_ids_oracle(zw, xw)
    h_zx = _dense_entropy(next_zx) - _dense_entropy(zx)
    h_zy = (_dense_entropy(joint_ids_oracle(next_own, yw))
            - _dense_entropy(joint_ids_oracle(zw, yw)))
    h_zxy = (_dense_entropy(joint_ids_oracle(next_zx, yw))
             - _dense_entropy(joint_ids_oracle(zx, yw)))
    return _clamp(h_zy - h_zxy), _clamp(h_zx - h_zxy)


def embed_oracle(symbols, k, b):
    """Radix states of the (k+1)-symbol windows, earliest symbol most
    significant, as a sliding-window matrix product with the powers of b."""
    import numpy as np

    symbols = np.asarray(symbols, dtype=np.int64)
    if k == 0:
        return symbols.copy()
    windows = np.lib.stride_tricks.sliding_window_view(symbols, k + 1)
    powers = b ** np.arange(k, -1, -1, dtype=np.int64)
    return windows @ powers


def sort_and_split_edges(values, b):
    """Quantile edges by explicit sorting: the floor(i*n/b)-th order
    statistic (1-based) for i = 1 .. b-1."""
    ordered = sorted(values)
    n = len(ordered)
    return [ordered[(i * n) // b - 1] for i in range(1, b)]


def bin_counts(values, edges):
    """How many values land in each bin, a value on an edge going below it."""
    counts = [0] * (len(edges) + 1)
    for v in values:
        s = sum(1 for e in edges if e < v)
        counts[s] += 1
    return counts


def predictions_csv_oracle(report):
    """``predictions.csv`` text written row by row, one repr per number."""
    lines = ["level,row,truth,predicted"]
    for block in report.predictions:
        for pos, truth, pred in zip(block.positions.tolist(), block.truth.tolist(),
                                    block.predicted.tolist()):
            lines.append(f"{block.level},{pos},{truth!r},{pred!r}")
    return "\n".join(lines) + "\n"
