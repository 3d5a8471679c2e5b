"""Target estimation at every level of a fusion hierarchy.

The estimator is a conditional frequency table over joint history states:
for each distinct state tuple observed in training it stores the empirical
distribution of the next target symbol, and unseen states fall back to the
global target distribution, so prediction is total. A node's state at t is
the id of its (k+1)-symbol history window ending at t, a dense id of the
window the entropies count (:func:`tefuse.embedding.history_ids`), and joint
states are counted with the same dense-id primitive
(:func:`tefuse.infotheory._joint_ids`): training counts ``id * alphabet +
label`` with one bincount, and prediction numbers the training states and
the queried states together, so a query row is seen exactly when it shares
an id with a training row. The same lag-1 convention as transfer entropy
applies: the target at t+1 is paired with states through t.

Continuous targets are discretized by maximum entropy partitioning and
predictions are mapped back to values through per-bin training medians.
Discrete targets (class labels) are used as-is; each label is its own value.

Per-level evaluation mirrors the fusion pipeline's training discipline:
partitions and frequency tables are fitted on the contiguous training
prefix and scored on the held-out suffix. Level 0 tuples all leaf states
jointly (the unfused baseline); level h uses the partially fused node set.
The report holds the held-out rows and truth once, for every level.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .clustering import MergeTree, leaf_sequences, replay_merges
from .embedding import history_ids
from .errors import EmptySequence, LengthMismatch, SequenceTooShort
from .infotheory import _joint_ids
from .ingest import Dataset, RunConfig, split_index
from .jsonout import _json_bytes
from .sdf import SymbolSequence, _distinct, fit_mep_partition, symbolize

logger = logging.getLogger(__name__)

ACCURACY = "accuracy"
RMSE = "rmse"


@dataclass
class FrequencyEstimator:
    """Empirical distribution of the next target symbol per joint state.

    Row i of ``distributions`` belongs to the state tuple ``states[i]``; the
    distinct training states are stored in lexicographic order.
    """

    states: np.ndarray
    distributions: np.ndarray
    prior: np.ndarray
    target_alphabet: int
    bin_representatives: np.ndarray | None = None


def _state_rows(states) -> np.ndarray:
    arr = np.asarray(states, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("states must be a 1-D or 2-D integer array")
    return arr


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


def discretize_target(values, b: int):
    """Symbolize a continuous target and pick per-bin representative values.

    Returns (symbols, partition, representatives) where representative s is
    the median of the values falling in bin s, equal to ``np.median`` of
    them bit for bit. A bin is a contiguous run of the sorted values, so one
    sort gives every median (a zero median is taken by np.median). A bin
    left empty by ties inherits the nearest populated bin's representative
    so lookups stay total.
    """
    values = np.asarray(values, dtype=np.float64)
    partition = fit_mep_partition(values, b)
    seq = symbolize(values, partition, "target")
    representatives = np.full(b, np.nan)
    # bin s holds the values v with edge[s-1] < v <= edge[s]
    ordered = np.sort(values)
    ends = np.searchsorted(ordered, partition.edges, side="right").tolist()
    for s, (lo, hi) in enumerate(zip([0, *ends], [*ends, len(ordered)])):
        if hi > lo:
            median = _median(ordered[lo:hi])
            representatives[s] = (np.median(values[seq.symbols == s])
                                   if median is None else median)
    for s in range(b):
        if np.isnan(representatives[s]):
            populated = np.flatnonzero(~np.isnan(representatives))
            nearest = populated[np.argmin(np.abs(populated - s))]
            representatives[s] = representatives[nearest]
    return seq, partition, representatives


def train(states, target_symbols, target_alphabet: int | None = None) -> FrequencyEstimator:
    """Fit the frequency table from aligned (state, next target symbol) pairs."""
    rows = _state_rows(states)
    targets = np.asarray(
        target_symbols.symbols if isinstance(target_symbols, SymbolSequence)
        else target_symbols,
        dtype=np.int64,
    )
    if len(rows) != len(targets):
        raise LengthMismatch(
            f"{len(rows)} states but {len(targets)} target symbols"
        )
    if len(rows) == 0:
        raise EmptySequence("cannot train on zero samples")
    alphabet = int(target_alphabet if target_alphabet is not None
                   else targets.max() + 1)
    if targets.min() < 0 or targets.max() >= alphabet:
        raise ValueError(f"target symbols must lie in 0..{alphabet - 1}")
    ids = _joint_ids(*rows.T)
    distinct = int(ids.max()) + 1
    states = np.empty((distinct, rows.shape[1]), dtype=np.int64)
    states[ids] = rows
    counts = np.bincount(ids * alphabet + targets, minlength=distinct * alphabet)
    counts = counts.reshape(distinct, alphabet).astype(np.float64)
    prior = np.bincount(targets, minlength=alphabet) / len(targets)
    return FrequencyEstimator(
        states=states,
        distributions=counts / counts.sum(axis=1, keepdims=True),
        prior=prior,
        target_alphabet=alphabet,
    )


def predict(est: FrequencyEstimator, states):
    """Predict target symbols (and values, when representatives exist).

    Each state looks up its training distribution, falling back to the
    global prior when unseen; the argmax breaks ties toward the lower
    symbol id. Returns (symbols, values) with values None when the
    estimator has no ``bin_representatives``.
    """
    rows = _state_rows(states)
    seen = len(est.states)
    ids = _joint_ids(*np.concatenate([est.states, rows]).T)
    row_of_id = np.full(int(ids.max()) + 1, -1)
    row_of_id[ids[:seen]] = np.arange(seen)
    found = row_of_id[ids[seen:]]
    # An unseen row finds -1, which picks the prior's argmax appended last.
    best = np.append(np.argmax(est.distributions, axis=1), np.argmax(est.prior))
    symbols = best[found]
    if est.bin_representatives is None:
        return symbols, None
    return symbols, est.bin_representatives[symbols]


@dataclass(frozen=True)
class LevelScore:
    level: int
    metric: str
    value: float
    n_test: int


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Per-level scores and held-out series. Every level predicts the same
    rows, so their numbers (``positions``) and ``truth`` are stored once;
    ``predicted[level]`` holds that level's values, in target units."""

    rows: tuple[LevelScore, ...]
    config: dict
    positions: np.ndarray
    truth: np.ndarray
    predicted: tuple[np.ndarray, ...]


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
        values[:train_len], config.target_alphabet
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
    :class:`TreeDatasetMismatch`.
    """
    n = dataset.n
    s = split_index(n, config.train_fraction)
    k = config.depth
    if s < k + 2:
        raise SequenceTooShort(
            f"training prefix of {s} rows cannot support depth k={k}"
        )
    if s >= n:
        raise ValueError("train fraction leaves no held-out rows to evaluate")

    leaves = leaf_sequences(dataset, config)
    nodes = replay_merges(leaves, tree, config)
    target_seq, kind, _, representatives = target_symbols(dataset, config)
    tsyms = target_seq.symbols
    alphabet = target_seq.alphabet_size
    truth = dataset.column(config.target_column)[s:]
    metric = ACCURACY if kind == "discrete" else RMSE

    # Window ids for t = k .. n-2, kept while the node is active: rows before
    # s-k-1 predict tsyms[k+1:s], the rest predict the held-out tsyms[s:].
    windows: dict = {}
    rows: list[LevelScore] = []
    predicted: list[np.ndarray] = []
    for level, active in enumerate(tree.levels):
        windows = {a: windows[a] if a in windows else history_ids(nodes[a], k)
                   for a in active}
        matrix = np.column_stack([windows[a] for a in active])
        est = train(matrix[: s - k - 1], tsyms[k + 1: s], target_alphabet=alphabet)
        est.bin_representatives = representatives
        pred_syms, values = predict(est, matrix[s - k - 1:])
        if metric == ACCURACY:
            value = float(np.mean(pred_syms == tsyms[s:]))
        else:
            value = float(np.sqrt(np.mean((values - truth) ** 2)))
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

    The ``row,truth,`` prefixes are built once for all levels, and a
    prediction takes one of a few values, so each distinct number is
    formatted once and the lines are joined from those texts. Each level's
    lines are encoded as one chunk, so only one level is held as text.
    """
    rows = [f"{pos},{truth}," for pos, truth in
            zip(report.positions.tolist(), _number_texts(report.truth))]
    chunks = [b"level,row,truth,predicted"]
    for level, predicted in enumerate(report.predicted):
        prefix = f"\n{level},"  # ends the line before
        chunks.append("".join([prefix + row + pred for row, pred in
                               zip(rows, _number_texts(predicted))]).encode())
    chunks.append(b"\n")
    return b"".join(chunks)
