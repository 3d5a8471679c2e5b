"""Bottom-up hierarchy of fused variables driven by a transfer-entropy score.

At each level every unordered pair of active nodes is scored with

    (T_x->target - T_pair->target) + (T_y->target - T_pair->target)

where T_pair is measured on the raw merged (b_x * b_y)-ary sequence. Scoring
therefore happens before any repartitioning, which makes the score exactly
the negated sum of the pair's causation entropies toward the target and
independent of the fused alphabet. The argmin pair is fused, repartitioned
to the working alphabet, and replaces its parents; ties break toward the
lexicographically smallest (i, j) node-id pair so runs are reproducible.

Scores can be negative or positive and are never clamped. Every active pair
is a candidate at every level, in ascending (i, j) order, and the argmin is
taken over the full list, so a run's output depends only on its inputs and
configuration. A node's sequence never changes once created, and a TE
depends only on the rows it counts, so the TEs live in one table keyed by
content. When a node is made it gets a content id: the lowest node id with
the same training-prefix symbols and alphabet. A single is keyed ``(c,)``
and a pair of nodes i < j ``(c_i, c_j)``, in the pair's own orientation,
so the key fixes the merged row ``prefix[i] * b_j + prefix[j]``. Each
distinct row is scored once: the first level scores every leaf and every
pair, and each later level only the new node's keys, alone and paired with
each other active node, that no earlier node already gave. A fused node
often repeats its major parent's training symbols (see the fusion note in
the README), and then its single and its pairs with the nodes below that
parent cost nothing. :func:`cluster`'s core also returns the rows each
level scored, which the ``cluster`` and ``inject-noise`` commands write as
the manifest's ``te_computed``. The target is prepared once per run
(:func:`~tefuse.infotheory._target_terms`), and a level passes its new keys
in one batch to :func:`~tefuse.infotheory._scores`, the one path to the TE
kernel, as 2-D blocks of one chunk each, cut by the kernel's rule
(:func:`~tefuse.infotheory._chunks`). The one node table holds training
prefixes, sliced on entry and fused from their parents' prefixes, so no
held-out row is read; :func:`replay_merges` alone fuses full series. A
chunk's block is gathered from the prefixes when its turn comes, one row
per key: its singles' prefixes, then its pairs' merged columns, which one
multiply-add over the gathered prefixes makes with
:func:`~tefuse.fusion.merge_pair`'s arithmetic. Equal rows give equal
windows, keys and floats whatever else shares their block, so the values
equal :func:`score_pair`'s, whatever the chunk size and whichever node
first brought the content; :func:`_pair_score` writes the distance for
both, so the candidate list and the winner depend on neither the batching
nor the table. Each score equals minus the sum of the pair's
:func:`~tefuse.infotheory.causation_entropy_pair` values, up to round-off.

``tree.json`` is ``json.dumps(doc, indent=2)`` plus a line break, byte for
byte, and :func:`_export_json`, the one writer that knows its schema,
writes that text itself: an indent would send ``json.dumps`` to its
pure-Python encoder. A candidate keeps its pair's score from level to
level, so most candidate and TE entries repeat, and each distinct entry is
formatted once.
"""

from __future__ import annotations

import itertools
import json
import logging
import math

import numpy as np

from .errors import LengthMismatch, MalformedArtifact, SequenceTooShort, TreeDatasetMismatch
from .frozen import FrozenValue
from .fusion import fuse, merge_pair
from .infotheory import _chunks, _scores, _target_terms, transfer_entropies
from .ingest import Dataset, RunConfig, split_index
from .jsonout import _parse_json
from .sdf import (MAX_ENTROPY, UNIFORM, Partition, SymbolSequence, _fit_partitions,
                  symbolize)

logger = logging.getLogger(__name__)


class MergeRecord(FrozenValue):
    """One fusion step: the level it produces, the chosen pair, and the
    full scoring context (every candidate's score, every active node's
    transfer entropy toward the target) at selection time."""

    __slots__ = ("level", "pair", "score", "all_candidate_scores", "te_to_target")

    def __init__(self, level: int, pair: tuple[int, int], score: float,
                 all_candidate_scores: tuple[tuple[tuple[int, int], float], ...],
                 te_to_target: tuple[tuple[int, float], ...]):
        self._fill(locals())


class MergeTree(FrozenValue):
    """Full clustering record: leaf names, node names by id (leaves first,
    fused nodes in creation order), merges, and the active node ids at
    every level, level 0 being the unfused leaves."""

    __slots__ = ("leaves", "node_names", "merges", "levels")

    def __init__(self, leaves: tuple[str, ...], node_names: tuple[str, ...],
                 merges: tuple[MergeRecord, ...], levels: tuple[tuple[int, ...], ...]):
        self._fill(locals())


def score_pair(x: SymbolSequence, y: SymbolSequence, z: SymbolSequence, k: int) -> float:
    """Information lost toward z by replacing x and y with their raw merge."""
    return _pair_score(*transfer_entropies([x, y, merge_pair(x, y).values], z, k))


def _pair_score(te_x: float, te_y: float, te_xy: float) -> float:
    """A pair's distance from its nodes' and its merge's TE to the target."""
    return (te_x - te_xy) + (te_y - te_xy)


def cluster(
    sources: list[SymbolSequence],
    target: SymbolSequence,
    config: RunConfig,
) -> MergeTree:
    """Run the fusion hierarchy until ``config.stop_at`` supernodes remain.

    Every source and the target are cut to the training prefix
    (``config.train_fraction`` of the common length) on entry, and fused
    nodes are fused from their parents' prefixes, so the tree depends on no
    held-out row; :func:`replay_merges` rebuilds full-length fused series.
    """
    return _cluster(sources, target, config)[0]


def _cluster(sources: list[SymbolSequence], target: SymbolSequence,
             config: RunConfig) -> tuple[MergeTree, list[int]]:
    """:func:`cluster`'s tree, and the number of transfer entropies it
    scored at each level."""
    if len(sources) < 2:
        raise ValueError("clustering needs at least two source sequences")
    n = len(target)
    for seq in sources:
        if len(seq) != n:
            raise LengthMismatch(
                f"source {seq.source_name!r} has length {len(seq)}, target has {n}"
            )
    train_len = _train_length(n, config)
    k = config.depth

    # nodes by id, and each node's content id: the lowest node id with the
    # same training prefix and alphabet, found when the node is made
    nodes: list[SymbolSequence] = []
    content: list[int] = []
    first_of: dict[tuple[int, bytes], int] = {}

    def add(seq: SymbolSequence) -> None:
        content.append(first_of.setdefault((seq.alphabet_size, seq.symbols.tobytes()),
                                           len(nodes)))
        nodes.append(seq)

    for seq in sources:
        add(SymbolSequence(seq.symbols[:train_len], seq.alphabet_size, seq.source_name))
    z_terms = _target_terms(target.symbols[:train_len], k)
    active = list(range(len(sources)))
    levels = [tuple(active)]
    merges: list[MergeRecord] = []
    # T(x->z) keyed (c,) and T(xy->z) keyed (c_i, c_j) by content id, for
    # nodes i < j; active ids stay ascending because a fused node takes the
    # next id and goes last. A content id is a node id holding that content.
    te: dict[tuple[int, ...], float] = {}
    scored: list[int] = []

    def block(chunk):
        # one row per key: a node's prefix, or for a pair merge_pair's
        # x * b_y + y on the prefixes; a chunk's pairs follow its singles
        rows = np.concatenate([nodes[key[0]].symbols for key in chunk]).reshape(len(chunk), -1)
        merged = [nodes[key[1]] for key in chunk if len(key) == 2]
        if merged:
            tail = rows[len(chunk) - len(merged):]
            tail *= np.array([y.alphabet_size for y in merged])[:, None]
            tail += np.concatenate([y.symbols for y in merged]).reshape(tail.shape)
        return rows

    level = fresh = 0  # nodes from id ``fresh`` on have no keys looked up yet
    while len(active) > config.stop_at:
        level += 1
        pairs = list(itertools.combinations(active, 2))
        wanted = [*((content[j],) for j in active if j >= fresh),
                  *((content[i], content[j]) for i, j in pairs if j >= fresh)]
        missing = [key for key in dict.fromkeys(wanted) if key not in te]
        blocks = map(block, _chunks(missing, train_len - 1 - k))
        te.update(zip(missing, _scores(blocks, z_terms)))
        scored.append(len(missing))
        single = {i: te[content[i],] for i in active}
        scores = [_pair_score(single[i], single[j], te[content[i], content[j]])
                  for i, j in pairs]

        # Pairs are enumerated in ascending (i, j) order, so the first
        # minimum is the lexicographic tie-break winner.
        best = min(range(len(pairs)), key=lambda idx: scores[idx])
        win_i, win_j = pairs[best]

        fused = fuse(nodes[win_i], nodes[win_j], config.fused_alphabet)
        fresh = len(nodes)
        add(fused)
        merges.append(MergeRecord(
            level=level,
            pair=(win_i, win_j),
            score=scores[best],
            all_candidate_scores=tuple(zip(pairs, scores)),
            te_to_target=tuple(single.items()),
        ))
        active = [a for a in active if a not in (win_i, win_j)] + [fresh]
        levels.append(tuple(active))
        logger.info(
            "level %d: fused nodes %d+%d -> %d (%s), score %.6f over %d candidates, "
            "%d transfer entropies scored",
            level, win_i, win_j, fresh, fused.source_name, scores[best], len(pairs),
            scored[-1],
        )

    tree = MergeTree(
        leaves=tuple(seq.source_name for seq in sources),
        node_names=tuple(seq.source_name for seq in nodes),
        merges=tuple(merges),
        levels=tuple(levels),
    )
    return tree, scored


def _train_length(n: int, config: RunConfig) -> int:
    """The length of the training prefix of ``n`` rows, which must hold the
    k + 2 rows a depth-k transfer entropy needs."""
    train_len = split_index(n, config.train_fraction)
    if train_len < config.depth + 2:
        raise SequenceTooShort(
            f"training prefix of {train_len} rows cannot support depth k={config.depth}")
    return train_len


def replay_merges(
    leaf_seqs: list[SymbolSequence], tree: MergeTree, config: RunConfig
) -> dict[int, SymbolSequence]:
    """Rebuild every node's full-length sequence from the recorded merges.

    Fusion is deterministic given the pair order and the training prefix, so
    replaying a stored tree against the same symbolized leaves extends the
    clustering run's prefix node sequences exactly to full length. Leaves
    whose names are not the tree's leaves, in order, raise
    :class:`TreeDatasetMismatch`.
    """
    names = tuple(seq.source_name for seq in leaf_seqs)
    if names != tree.leaves:
        raise TreeDatasetMismatch(
            f"tree leaves {list(tree.leaves)} are not the configured sources "
            f"{list(names)}"
        )
    train_len = split_index(len(leaf_seqs[0]), config.train_fraction)
    nodes = dict(enumerate(leaf_seqs))
    for index, record in enumerate(tree.merges):
        i, j = record.pair
        nodes[len(tree.leaves) + index] = fuse(
            nodes[i], nodes[j], config.fused_alphabet, fit_length=train_len
        )
    return nodes


def fit_leaves(dataset: Dataset,
               config: RunConfig) -> list[tuple[Partition, SymbolSequence]]:
    """Each source's partition, fitted on the training prefix, and symbols.

    The sources' training prefixes are stacked, the one copy the fit needs,
    and fitted together, one row each (:func:`~tefuse.sdf._fit_partitions`:
    a maximum entropy fit sorts them with one row-wise sort); each column is
    then symbolized from its own full-length values. A source that cannot
    be partitioned raises :class:`~tefuse.errors.DegenerateInput` naming the
    first such source in config order.
    """
    kind = MAX_ENTROPY if config.partitioner == "mep" else UNIFORM
    train_len = split_index(dataset.n, config.train_fraction)
    names = config.source_columns
    columns = [dataset.column(name) for name in names]
    partitions = _fit_partitions(np.stack([values[:train_len] for values in columns]),
                                 config.alphabet, kind, names)
    return [(partition, symbolize(values, partition, name))
            for partition, values, name in zip(partitions, columns, names)]


def leaf_sequences(dataset: Dataset, config: RunConfig) -> list[SymbolSequence]:
    """Symbolize every source column, partitions fitted on the training prefix."""
    return [seq for _, seq in fit_leaves(dataset, config)]


def export_tree(tree: MergeTree, format: str = "json") -> bytes:
    """Serialize a tree to JSON (full record) or Graphviz DOT (dendrogram)."""
    if format == "json":
        return _export_json(tree)
    if format == "dot":
        return _export_dot(tree)
    raise ValueError(f"unknown export format {format!r}")


def _export_json(tree: MergeTree) -> bytes:
    """``json.dumps(doc, indent=2) + "\\n"``, UTF-8 encoded, of the document
    ``{"leaves", "node_names", "merges", "levels"}``; each merge is
    ``{"level", "pair", "score", "candidates": [[[i, j], score], ...],
    "te_to_target": [[i, value], ...]}``.

    A candidate or TE entry is formatted once per distinct entry. Its key
    holds the value's type and the sign of a zero, since a dict takes
    ``1 == 1.0`` and ``0.0 == -0.0`` as one key.
    """
    entries: dict = {}

    def entry(first, value) -> str:  # a list item at depth 4, as in merge()
        key = (first, value, type(value), value == 0 and math.copysign(1.0, value))
        text = entries.get(key)
        if text is None:
            head = _block([str(i) for i in first], 5) if isinstance(first, tuple) else str(first)
            text = entries[key] = _block([head, _number(value)], 4)
        return text

    def merge(record: MergeRecord) -> str:
        return _block([
            f'"level": {record.level}',
            '"pair": ' + _block([str(i) for i in record.pair], 3),
            '"score": ' + _number(record.score),
            '"candidates": ' + _block([entry(pair, score) for pair, score
                                       in record.all_candidate_scores], 3),
            '"te_to_target": ' + _block([entry(node_id, value) for node_id, value
                                         in record.te_to_target], 3),
        ], 2, "{}")

    text = _block([
        '"leaves": ' + _block([json.dumps(name) for name in tree.leaves], 1),
        '"node_names": ' + _block([json.dumps(name) for name in tree.node_names], 1),
        '"merges": ' + _block([merge(record) for record in tree.merges], 1),
        '"levels": ' + _block([_block([str(i) for i in level], 2)
                               for level in tree.levels], 1),
    ], 0, "{}")
    return (text + "\n").encode()


def _block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """``json.dumps(indent=2)``'s text of a list (or, with ``"{}"``, an
    object) at nesting depth ``depth``, from its items' texts."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _number(value) -> str:
    """``json.dumps`` of an int or float: its ``repr``, or ``NaN``,
    ``Infinity`` or ``-Infinity``."""
    if type(value) is float and not math.isfinite(value):
        return json.dumps(value)
    return repr(value)


def tree_from_json(data: bytes | str) -> MergeTree:
    """Inverse of the JSON export; parse(export(tree)) == tree.

    Raises :class:`MalformedArtifact` for bytes that are not JSON, a missing
    or mistyped entry, or a tree that no run could have produced.
    """
    tree = _parse_json(data, "tree", _tree_from_doc)
    _check_tree(tree)
    return tree


def _check_tree(tree: MergeTree) -> None:
    """Names are strings, node ids integers and scores numbers; merge i is
    at the integer level i + 1 and pairs two distinct nodes active at that
    level, the node names cover leaves and merges, and the levels are the
    active sets the merges produce (evaluation indexes nodes through them)."""
    ids = [i for level in tree.levels for i in level]
    scores = []
    for record in tree.merges:
        ids += [*record.pair, *(i for pair, _ in record.all_candidate_scores for i in pair),
                *(i for i, _ in record.te_to_target)]
        scores += [record.score, *(s for _, s in record.all_candidate_scores),
                   *(v for _, v in record.te_to_target)]
    if not all(isinstance(name, str) for name in tree.leaves + tree.node_names):
        raise MalformedArtifact("tree has a node name that is not a string")
    if not all(type(i) is int for i in ids):
        raise MalformedArtifact("tree has a node id that is not an integer")
    if not all(type(s) in (int, float) for s in scores):
        raise MalformedArtifact("tree has a score that is not a number")
    n_leaves, n_merges = len(tree.leaves), len(tree.merges)
    if len(tree.node_names) != n_leaves + n_merges:
        raise MalformedArtifact(
            f"tree names {len(tree.node_names)} nodes, but {n_leaves} leaves "
            f"and {n_merges} merges make {n_leaves + n_merges}"
        )
    active = list(range(n_leaves))
    levels = [tuple(active)]
    for index, record in enumerate(tree.merges):
        if type(record.level) is not int or record.level != index + 1:
            raise MalformedArtifact(f"merge {index} claims level {record.level!r}")
        pair = record.pair
        if len(pair) != 2 or pair[0] == pair[1] or not all(i in active for i in pair):
            raise MalformedArtifact(
                f"merge {index} pairs {list(pair)}, not two distinct nodes "
                f"among the active {active}"
            )
        active = [a for a in active if a not in pair] + [n_leaves + index]
        levels.append(tuple(active))
    if tree.levels != tuple(levels):
        raise MalformedArtifact(
            f"tree levels {[list(level) for level in tree.levels]} do not follow "
            f"from its {n_merges} merges"
        )


def _tree_from_doc(doc: dict) -> MergeTree:
    return MergeTree(
        leaves=tuple(doc["leaves"]),
        node_names=tuple(doc["node_names"]),
        merges=tuple(
            MergeRecord(
                level=m["level"],
                pair=tuple(m["pair"]),
                score=m["score"],
                all_candidate_scores=tuple(
                    (tuple(pair), score) for pair, score in m["candidates"]
                ),
                te_to_target=tuple(
                    (node_id, value) for node_id, value in m["te_to_target"]
                ),
            )
            for m in doc["merges"]
        ),
        levels=tuple(tuple(level) for level in doc["levels"]),
    )


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _export_dot(tree: MergeTree) -> bytes:
    lines = ["graph fusion_tree {", "  rankdir=BT;", "  node [shape=box];"]
    for node_id, name in enumerate(tree.node_names):
        lines.append(f"  n{node_id} [label={_dot_quote(name)}];")
    for index, record in enumerate(tree.merges):
        parent = len(tree.leaves) + index
        label = _dot_quote(format(record.score, ".6g"))
        for child in record.pair:
            lines.append(f"  n{parent} -- n{child} [label={label}];")
    leaf_rank = " ".join(f"n{i};" for i in range(len(tree.leaves)))
    lines.append(f"  {{ rank=same; {leaf_rank} }}")
    for index in range(len(tree.merges)):
        lines.append(f"  {{ rank=same; n{len(tree.leaves) + index}; }}")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
