"""Target estimation at every level of a fusion hierarchy.

The estimator is a conditional frequency table over joint history states:
for each distinct state tuple observed in training it counts the next
target symbol, and unseen states fall back to the global target
distribution, so prediction is total. A node's state at t is its
(k+1)-symbol history window ending at t, the window the entropies count
(:func:`tefuse.infotheory._windows`), and joint states are numbered with
the dense-id primitive (:func:`tefuse.infotheory._joint_ids`) over the
training and held-out rows together, so a held-out row is seen exactly
when it shares an id with a training row; training counts
``id * alphabet + label`` with one bincount. The same lag-1 convention as
transfer entropy applies: the target at t+1 is paired with states through
t. A prediction is the state's most frequent next symbol, or the prior's
when the state was never seen in training, ties going to the lower symbol.

Continuous targets are discretized by maximum entropy partitioning and
predictions are mapped back to values through per-bin training medians.
Discrete targets (class labels) are used as-is; each label is its own value.

Per-level evaluation mirrors the fusion pipeline's training discipline:
partitions and frequency tables are fitted on the contiguous training
prefix and scored on the held-out suffix. Level 0 tuples all leaf states
jointly (the unfused baseline); level h uses the partially fused node set.
The report holds the held-out rows and truth once, for every level.

A fused node's symbol at t is a function of its pair's symbols at t, so its
window is a function of theirs, and a level's joint state is a function of
the next coarser level's joint state together with the windows of the pair
merged there; that triple in turn gives back every window of the level.
:func:`evaluate_levels` therefore ranks the coarsest level's states once,
over every row, and each finer level as a 3-column rank of the coarser
level's ids and the merged pair's window keys. Dense ranking keeps the
order of the keys, so ranking raw window keys gives the ids that ranking
dense window ids (``_joint_ids(_windows(...))``) would. Predictions
depend only on how rows group into states, not on how the ids are
numbered, so they equal those of a frequency table fitted on each level's
full window matrix. The nodes' window keys are folded a chunk of
nodes at a time, cut by the transfer-entropy kernel's chunk rule
(:func:`tefuse.infotheory._chunks`), so a level pays for no per-node fold
and a long series is never stacked whole; each chunk's keys share its
bounds, which changes them as numbers but keeps their order within a row.
Every level predicts through one function, :func:`_held_out_symbols`: a
mask of the states training rows reach and one of the states held-out rows
reach pick the table rows reduced to their argmax, and every other state
takes the prior's. :func:`predictions_csv` formats each distinct number
once and joins each level's lines in one pass, so both per-row stages pay
per distinct value or per queried state.
"""

from __future__ import annotations

import logging

import numpy as np

from .clustering import MergeTree, _train_length, leaf_sequences, replay_merges
from .errors import PipelineError
from .frozen import Frozen, FrozenValue
from .infotheory import _chunks, _joint_ids, _windows
from .ingest import Dataset, RunConfig, split_index
from .jsonout import _json_bytes
from .sdf import (MAX_ENTROPY, SymbolSequence, _distinct, _fit_partitions, _named,
                  _one_dimensional, symbolize)

logger = logging.getLogger(__name__)

ACCURACY = "accuracy"
RMSE = "rmse"


def _median(ordered: np.ndarray) -> float | None:
    """``np.median`` of a non-empty ascending array, bit for bit, or None
    when the median is zero.

    The median is the middle value, or (a + b) / 2 of the middle two, which
    is how np.median's mean of them rounds. Whether np.median gives a zero
    median as -0.0 or 0.0 depends on which zero its partition of the values,
    in their own order, puts in the middle and on how the numpy version sums
    -0.0, so a zero is left to the caller.
    """
    mid = len(ordered) // 2
    if len(ordered) % 2:
        median = ordered[mid]
    else:
        median = (ordered[mid - 1] + ordered[mid]) / 2
    return None if median == 0 else float(median)


def discretize_target(values, b: int, name: str | None = None):
    """Symbolize a continuous target and pick per-bin representative values.

    Returns (symbols, partition, representatives) where representative s is
    the median of the values falling in bin s, equal to ``np.median`` of
    them bit for bit. A bin is a contiguous run of the sorted values, so the
    fit's one sort gives every median (a zero median is taken by np.median).
    Every bin below the top holds its own upper edge, a training value,
    since the fit refuses edges that are not strictly increasing. Only the
    top bin can be empty, when ties make its lower edge the maximum, and it
    then takes the representative of the bin below, so lookups stay total.
    A target that cannot be partitioned raises
    :class:`~tefuse.errors.DegenerateInput`, and one whose edges or medians
    pass float64's range :class:`~tefuse.errors.PipelineError`, each naming
    ``name`` when given.
    """
    values = _one_dimensional(values)
    ordered = np.array(values[None])  # the fit sorts it in place
    names = None if name is None else [name]
    partition = _fit_partitions(ordered, b, MAX_ENTROPY, names)[0]
    ordered = ordered[0]
    seq = symbolize(values, partition, "target")
    representatives = np.full(b, np.nan)
    # bin s holds the values v with edge[s-1] < v <= edge[s]
    ends = np.searchsorted(ordered, partition.edges, side="right").tolist()
    for s, (lo, hi) in enumerate(zip([0, *ends], [*ends, len(ordered)])):
        # only the top bin can be empty, and it takes the bin below's median
        median = _median(ordered[lo:hi]) if hi > lo else representatives[s - 1]
        representatives[s] = (np.median(values[seq.symbols == s])
                               if median is None else median)
    if not np.isfinite(representatives).all():
        raise PipelineError(_named(name, f"the {b}-bin medians "
                                         f"{representatives.tolist()} are not all finite"))
    return seq, partition, representatives


def _held_out_symbols(ids: np.ndarray, n_train: int, targets: np.ndarray,
                      prior: np.ndarray) -> np.ndarray:
    """The predicted symbol of each held-out row, ``ids[n_train:]``, from a
    frequency table of the training rows, ``ids[:n_train]`` paired with
    ``targets``: a state's most frequent next symbol if some training row
    has it, else the prior's, ties going to the lower symbol.

    One bincount of ``id * alphabet + target`` counts the table. Two masks
    mark the states that training rows reach (``seen``) and that held-out
    rows reach; the argmax runs over the table rows both mark, never more
    rows than the table's and far fewer where most states occur only in
    training, and every other state takes the prior's argmax.
    """
    train, test = ids[:n_train], ids[n_train:]
    distinct, alphabet = int(ids.max()) + 1, len(prior)
    table = np.bincount(train * alphabet + targets, minlength=distinct * alphabet)
    seen = np.zeros(distinct, dtype=bool)
    seen[train] = True
    queried = np.zeros(distinct, dtype=bool)
    queried[test] = True
    rows = np.flatnonzero(seen & queried)
    best = np.full(distinct, np.argmax(prior))
    best[rows] = np.argmax(table.reshape(distinct, alphabet)[rows], axis=1)
    return best[test]


class LevelScore(FrozenValue):
    """One level's held-out score: ``metric`` is accuracy or RMSE over
    ``n_test`` rows."""

    __slots__ = ("level", "metric", "value", "n_test")

    def __init__(self, level: int, metric: str, value: float, n_test: int):
        self._fill(locals())


class EvaluationReport(Frozen):
    """Per-level scores and held-out series. Every level predicts the same
    rows, so their numbers (``positions``) and ``truth`` are stored once;
    ``predicted[level]`` holds that level's values, in target units."""

    __slots__ = ("rows", "config", "positions", "truth", "predicted")

    def __init__(self, rows: tuple[LevelScore, ...], config: dict, positions: np.ndarray,
                 truth: np.ndarray, predicted: tuple[np.ndarray, ...]):
        self._fill(locals())


def _labels(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending. The sort is stable, so when both -0.0
    and 0.0 occur the zero label takes the sign of its first occurrence;
    a bare ``np.unique`` sorts with quicksort and leaves that sign to the
    sort order."""
    return _distinct(np.sort(values, kind="stable"))


def resolve_target_kind(values, config: RunConfig) -> str:
    """Dispatch rule: integral values with few distinct levels are class
    labels; everything else is treated as continuous and discretized.

    A forced ``discrete`` kind skips the bound on the number of levels but
    not the integrality test: a target that fails it raises ``ValueError``.
    """
    if config.target_kind == "continuous":
        return "continuous"
    values = np.asarray(values, dtype=np.float64)
    integral = bool(np.all(np.abs(values - np.round(values)) <= 1e-9))
    if config.target_kind == "discrete":
        if not integral:
            raise ValueError(f"target column {config.target_column!r} holds values "
                             "that are not integers, so it cannot be discrete")
        return "discrete"
    if integral and len(_labels(values)) <= config.target_alphabet:
        return "discrete"
    return "continuous"


def target_symbols(dataset: Dataset, config: RunConfig):
    """Symbolize the target column for transfer entropy and estimation.

    Returns (sequence, kind, labels, representatives): for discrete targets
    the distinct values become class ids and representatives are the labels
    themselves; for continuous targets the sequence is a maximum-entropy
    discretization fitted on the training prefix, with per-bin medians of
    the training rows as representatives.
    """
    values = dataset.column(config.target_column)
    kind = resolve_target_kind(values, config)
    if kind == "discrete":
        labels = _labels(values)
        symbols = np.searchsorted(labels, values)
        seq = SymbolSequence(symbols, len(labels), config.target_column)
        return seq, kind, labels, labels.astype(np.float64)
    train_len = split_index(dataset.n, config.train_fraction)
    _, partition, representatives = discretize_target(
        values[:train_len], config.target_alphabet, config.target_column
    )
    seq = symbolize(values, partition, config.target_column)
    return seq, kind, None, representatives


def evaluate_levels(tree: MergeTree, dataset: Dataset, config: RunConfig) -> EvaluationReport:
    """Score held-out prediction quality at every level of the tree.

    Discrete targets report accuracy; continuous targets report RMSE between
    bin-representative predictions and the continuous truth. The tree must
    have been produced from this dataset's training split with this
    configuration; leaves and merges are replayed deterministically, so a
    tree whose leaves are not the configured sources, in order, raises
    :class:`TreeDatasetMismatch`, and an RMSE that passes float64's range
    a :class:`~tefuse.errors.PipelineError` naming the target.

    Each level's joint states are ranked once, coarsest level first: the
    last level's ids are the joint ids of its nodes' windows, and level h's
    are the joint ids of level h+1's ids and the windows of the pair merged
    at level h+1, a 3-column rank however many nodes are active. One rule
    then predicts every level (:func:`_held_out_symbols`): a held-out row
    takes its state's most frequent next symbol in training, or the prior's
    when no training row shares its state, ties going to the lower symbol,
    as a frequency table fitted on the level's window matrix would predict.
    """
    n = dataset.n
    s = _train_length(n, config)
    k = config.depth
    if s >= n:
        raise ValueError("train fraction leaves no held-out rows to evaluate")

    nodes = replay_merges(leaf_sequences(dataset, config), tree, config)
    target_seq, kind, _, representatives = target_symbols(dataset, config)
    tsyms = target_seq.symbols
    alphabet = target_seq.alphabet_size
    truth = dataset.column(config.target_column)[s:]
    metric = ACCURACY if kind == "discrete" else RMSE

    # Window ids for t = k .. n-2: rows before s-k-1 predict tsyms[k+1:s],
    # the rest predict the held-out tsyms[s:].
    n_train = s - k - 1
    targets = tsyms[k + 1: s]
    prior = np.bincount(targets, minlength=alphabet)
    # the nodes' window keys, one fold per chunk of nodes, cut by the
    # kernel's chunk rule so that a long series is not stacked whole; the
    # full-length series are dropped once their keys exist
    windows = {a: keys for chunk in _chunks(nodes.items(), n - 1 - k)
               for a, keys in zip(dict(chunk),
                                  _windows(np.stack([seq.symbols for _, seq in chunk]), k))}
    del nodes

    ids = _joint_ids(*(windows[a] for a in tree.levels[-1]))
    symbols = [_held_out_symbols(ids, n_train, targets, prior)]
    for record in reversed(tree.merges):
        ids = _joint_ids(ids, *(windows[a] for a in record.pair))
        symbols.append(_held_out_symbols(ids, n_train, targets, prior))
    symbols.reverse()

    rows: list[LevelScore] = []
    predicted: list[np.ndarray] = []
    for level, (active, pred_syms) in enumerate(zip(tree.levels, symbols)):
        values = representatives[pred_syms]
        if metric == ACCURACY:
            value = float(np.mean(pred_syms == tsyms[s:]))
        else:
            value = float(np.sqrt(np.mean((values - truth) ** 2)))
            if not np.isfinite(value):
                raise PipelineError(_named(config.target_column,
                                           f"the level {level} RMSE is {value}"))
        rows.append(LevelScore(level=level, metric=metric, value=value, n_test=n - s))
        predicted.append(values)
        logger.info("level %d (%d nodes): %s = %.4f on %d held-out rows",
                    level, len(active), metric, value, n - s)
    return EvaluationReport(rows=tuple(rows), config=config.to_dict(),
                            positions=np.arange(s, n), truth=truth,
                            predicted=tuple(predicted))


def report_csv(report: EvaluationReport) -> bytes:
    lines = ["level,metric,value,n_test"]
    for row in report.rows:
        lines.append(f"{row.level},{row.metric},{row.value!r},{row.n_test}")
    return ("\n".join(lines) + "\n").encode()


def report_json(report: EvaluationReport) -> bytes:
    doc = {
        "config": report.config,
        "levels": [
            {"level": r.level, "metric": r.metric, "value": r.value, "n_test": r.n_test}
            for r in report.rows
        ],
    }
    return _json_bytes(doc)


def _number_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each element as a Python number, one call per distinct
    value. Floats are told apart by their bits, so -0.0 and 0.0 keep their
    own texts; a numpy 2 scalar's repr would be "np.float64(...)"."""
    if values.dtype != np.float64:
        return [repr(v) for v in values.tolist()]
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = [repr(v) for v in bits.view(np.float64).tolist()]
    return [texts[i] for i in inverse.tolist()]


def predictions_csv(report: EvaluationReport) -> bytes:
    """One line per level and held-out row: ``level,row,truth,predicted``,
    the numbers written as Python ``repr``s, as UTF-8 bytes.

    A level's text is one ``"".join`` over one list of three pieces per
    line, which every level reuses: ``parts[0::3]`` holds the level's
    prefix, ``parts[1::3]`` the ``row,truth,`` texts, built once for all
    levels, and ``parts[2::3]`` the level's predictions. A prediction takes
    one of a few values, so each distinct number is formatted once, and no
    line is concatenated on its own. Each level's text is encoded as one
    chunk, so only one level is held as text.
    """
    rows = [f"{pos},{truth}," for pos, truth in
            zip(report.positions.tolist(), _number_texts(report.truth))]
    parts = [""] * (3 * len(rows))
    parts[1::3] = rows
    chunks = [b"level,row,truth,predicted"]
    for level, predicted in enumerate(report.predicted):
        parts[0::3] = [f"\n{level},"] * len(rows)  # ends the line before
        parts[2::3] = _number_texts(predicted)
        chunks.append("".join(parts).encode())
    chunks.append(b"\n")
    return b"".join(chunks)
