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
configuration. A node's sequence never changes once created, so each
single-node TE and each pair's joint TE is computed once, on first use, and
kept in one table keyed by node-id tuple, ``(i,)`` or ``(i, j)``: the first
level computes every single and every pair, and each later level only the
new node's TE and its pairs with the other active nodes. The target is
prepared once per run (:func:`~tefuse.infotheory._target_terms`), and a
level passes its missing keys in one batch to
:func:`~tefuse.infotheory._scores`, the one path to the TE kernel, which
scores in row-wise chunks of a fixed key budget; a merged pair's column is
made only when its chunk is gathered. The values equal :func:`score_pair`'s,
whatever the chunk size; :func:`_pair_score` writes the distance for both,
and kept and fresh values are the same floats, so the candidate list and
the winner depend on neither the batching nor the
table. Each score equals minus the sum of the pair's
:func:`~tefuse.infotheory.causation_entropy_pair` values, up to round-off.

``tree.json`` is ``json.dumps(doc, indent=2)`` plus a line break, byte for
byte. :func:`_export_json` builds the document, the one place that knows
its schema, and :func:`tefuse.jsonout._json_bytes` writes it: the C encoder
writes the one-line text, which numpy then re-indents block by block.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

from .errors import LengthMismatch, MalformedArtifact, SequenceTooShort, TreeDatasetMismatch
from .fusion import fuse, merge_pair
from .infotheory import _scores, _target_terms, transfer_entropies
from .ingest import Dataset, RunConfig, split_index
from .jsonout import _json_bytes, _parse_json
from .sdf import (Partition, SymbolSequence, fit_mep_partition, fit_uniform_partition,
                  symbolize)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MergeRecord:
    """One fusion step: the level it produces, the chosen pair, and the
    full scoring context (every candidate's score, every active node's
    transfer entropy toward the target) at selection time."""

    level: int
    pair: tuple[int, int]
    score: float
    all_candidate_scores: tuple[tuple[tuple[int, int], float], ...]
    te_to_target: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class MergeTree:
    """Full clustering record: leaf names, node names by id (leaves first,
    fused nodes in creation order), merges, and the active node ids at
    every level, level 0 being the unfused leaves."""

    leaves: tuple[str, ...]
    node_names: tuple[str, ...]
    merges: tuple[MergeRecord, ...]
    levels: tuple[tuple[int, ...], ...]


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

    All scoring uses only the training prefix (``config.train_fraction`` of
    the common length); fused node sequences are produced full length, with
    their repartition quantiles fitted on the same prefix, so downstream
    evaluation sees no information from held-out rows.
    """
    if len(sources) < 2:
        raise ValueError("clustering needs at least two source sequences")
    n = len(target)
    for seq in sources:
        if len(seq) != n:
            raise LengthMismatch(
                f"source {seq.source_name!r} has length {len(seq)}, target has {n}"
            )
    train_len = split_index(n, config.train_fraction)
    k = config.depth
    if train_len < k + 2:
        raise SequenceTooShort(
            f"training prefix of {train_len} rows cannot support depth k={k}"
        )

    nodes: dict[int, SymbolSequence] = dict(enumerate(sources))
    names = [seq.source_name for seq in sources]
    z_terms = _target_terms(target.symbols[:train_len], k)
    active = list(range(len(sources)))
    levels = [tuple(active)]
    merges: list[MergeRecord] = []
    # T(x->z) keyed (i,) and T(xy->z) keyed (i, j) with i < j; active ids
    # stay ascending because a fused node takes the next id and goes last.
    te: dict[tuple[int, ...], float] = {}

    def train_view(key):
        if len(key) == 1:
            return nodes[key[0]].symbols[:train_len]
        return merge_pair(nodes[key[0]], nodes[key[1]]).values[:train_len]

    level = 0
    while len(active) > config.stop_at:
        level += 1
        pairs = list(itertools.combinations(active, 2))
        missing = [key for key in [*((i,) for i in active), *pairs] if key not in te]
        te.update(zip(missing, _scores(map(train_view, missing), z_terms)))
        scores = [_pair_score(te[i,], te[j,], te[i, j]) for i, j in pairs]

        # Pairs are enumerated in ascending (i, j) order, so the first
        # minimum is the lexicographic tie-break winner.
        best = min(range(len(pairs)), key=lambda idx: scores[idx])
        win_i, win_j = pairs[best]

        fused = fuse(nodes[win_i], nodes[win_j], config.fused_alphabet,
                     fit_length=train_len)
        new_id = len(names)
        names.append(fused.source_name)
        nodes[new_id] = fused
        merges.append(MergeRecord(
            level=level,
            pair=(win_i, win_j),
            score=scores[best],
            all_candidate_scores=tuple(zip(pairs, scores)),
            te_to_target=tuple((i, te[i,]) for i in active),
        ))
        active = [a for a in active if a not in (win_i, win_j)] + [new_id]
        levels.append(tuple(active))
        logger.info(
            "level %d: fused nodes %d+%d -> %d (%s), score %.6f over %d candidates",
            level, win_i, win_j, new_id, fused.source_name, scores[best], len(pairs),
        )

    return MergeTree(
        leaves=tuple(seq.source_name for seq in sources),
        node_names=tuple(names),
        merges=tuple(merges),
        levels=tuple(levels),
    )


def te_computed(tree: MergeTree) -> list[int]:
    """The transfer entropies :func:`cluster` computes per level: every single
    and pair of the m leaves first, then at each later level with m active
    nodes the newest node alone and paired with each of the other m - 1."""
    return [m + m * (m - 1) // 2 if h == 0 else m
            for h, m in enumerate(len(level) for level in tree.levels[:-1])]


def replay_merges(
    leaf_seqs: list[SymbolSequence], tree: MergeTree, config: RunConfig
) -> dict[int, SymbolSequence]:
    """Rebuild every node's full-length sequence from the recorded merges.

    Fusion is deterministic given the pair order and the training prefix, so
    replaying a stored tree against the same symbolized leaves reproduces the
    clustering run's node sequences exactly. Leaves whose names are not the
    tree's leaves, in order, raise :class:`TreeDatasetMismatch`.
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
    """Each source's partition, fitted on the training prefix, and symbols."""
    fit = fit_mep_partition if config.partitioner == "mep" else fit_uniform_partition
    train_len = split_index(dataset.n, config.train_fraction)
    out = []
    for name in config.source_columns:
        values = dataset.column(name)
        partition = fit(values[:train_len], config.alphabet)
        out.append((partition, symbolize(values, partition, name)))
    return out


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
    doc = {
        "leaves": list(tree.leaves),
        "node_names": list(tree.node_names),
        "merges": [
            {
                "level": record.level,
                "pair": list(record.pair),
                "score": record.score,
                "candidates": [
                    [list(pair), score]
                    for pair, score in record.all_candidate_scores
                ],
                "te_to_target": [
                    [node_id, value] for node_id, value in record.te_to_target
                ],
            }
            for record in tree.merges
        ],
        "levels": [list(level) for level in tree.levels],
    }
    return _json_bytes(doc)


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
