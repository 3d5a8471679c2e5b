import json
import math

import numpy as np
import pytest

from tefuse import (
    MalformedArtifact,
    RunConfig,
    SymbolSequence,
    TreeDatasetMismatch,
    append_noise_channels,
    causation_entropy_pair,
    cluster,
    export_tree,
    replay_merges,
    score_pair,
    split_index,
    transfer_entropy,
    tree_from_json,
)
from tefuse import clustering, infotheory
from tefuse.clustering import leaf_sequences
from tefuse.estimate import target_symbols

from oracles import score_oracle
from synthdata import occupancy_like


def _seqs(arrays, b):
    return [SymbolSequence(a, b, f"s{i}") for i, a in enumerate(arrays)]


def _config(n_sources, **kw):
    defaults = dict(
        target_column="z",
        source_columns=tuple(f"s{i}" for i in range(n_sources)),
        alphabet=2,
        depth=0,
        train_fraction=1.0,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def xor_system(n, seed, extra_noise=2):
    """z's next symbol is x0 xor x1; further channels are independent."""
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, 2, n)
    x1 = rng.integers(0, 2, n)
    z = np.empty(n, dtype=np.int64)
    z[0] = 0
    z[1:] = np.bitwise_xor(x0[:-1], x1[:-1])
    channels = [x0, x1] + [rng.integers(0, 2, n) for _ in range(extra_noise)]
    return channels, z


class TestScorePair:
    def test_duplicate_pair_scores_zero(self):
        rng = np.random.default_rng(0)
        x = SymbolSequence(rng.integers(0, 3, 400), 3, "x")
        z = SymbolSequence(rng.integers(0, 3, 400), 3, "z")
        dup = SymbolSequence(x.symbols.copy(), 3, "x2")
        assert score_pair(x, dup, z, 1) == 0.0

    def test_xor_pair_scores_minus_two(self):
        channels, z = xor_system(100_000, seed=1, extra_noise=0)
        x = SymbolSequence(channels[0], 2, "x")
        y = SymbolSequence(channels[1], 2, "y")
        zs = SymbolSequence(z, 2, "z")
        score = score_pair(x, y, zs, 0)
        assert abs(score - (-2.0)) < 0.02
        assert transfer_entropy(x, zs, 0) < 0.01
        assert transfer_entropy(y, zs, 0) < 0.01

    def test_independent_triple_near_zero(self):
        rng = np.random.default_rng(2)
        x = SymbolSequence(rng.integers(0, 2, 10_000), 2, "x")
        y = SymbolSequence(rng.integers(0, 2, 10_000), 2, "y")
        z = SymbolSequence(rng.integers(0, 2, 10_000), 2, "z")
        assert abs(score_pair(x, y, z, 1)) < 0.05

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(15, 120))
            b = int(rng.integers(2, 4))
            k = int(rng.integers(0, 3))
            x, y, z = (rng.integers(0, b, n) for _ in range(3))
            got = score_pair(
                SymbolSequence(x, b), SymbolSequence(y, b), SymbolSequence(z, b), k
            )
            assert math.isclose(
                got, score_oracle(x.tolist(), y.tolist(), z.tolist(), k),
                abs_tol=1e-12,
            )

    def test_negated_causation_entropy_identity(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(20, 200))
            b = int(rng.integers(2, 4))
            k = int(rng.integers(0, 3))
            x = SymbolSequence(rng.integers(0, b, n), b)
            y = SymbolSequence(rng.integers(0, b, n), b)
            z = SymbolSequence(rng.integers(0, b, n), b)
            score = score_pair(x, y, z, k)
            c_x, c_y = causation_entropy_pair(x, y, z, k)
            assert math.isclose(score, -(c_x + c_y), abs_tol=1e-10)

    def test_target_terms_built_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        x, y, z = (SymbolSequence(rng.integers(0, 3, 300), 3) for _ in range(3))
        built = []

        def building(*args):
            built.append(args)
            return target_terms(*args)

        target_terms = infotheory._target_terms
        monkeypatch.setattr(infotheory, "_target_terms", building)
        score_pair(x, y, z, 2)
        assert len(built) == 1

    @pytest.mark.parametrize("k", range(4))
    def test_equals_three_transfer_entropy_calls(self, k):
        rng = np.random.default_rng(9 + k)
        for b in (2, 3, 5):
            x, y, z = (SymbolSequence(rng.integers(0, b, 500), b) for _ in range(3))
            merged = SymbolSequence(x.symbols * b + y.symbols, b * b)
            te_x, te_y, te_xy = (transfer_entropy(s, z, k) for s in (x, y, merged))
            assert score_pair(x, y, z, k) == (te_x - te_xy) + (te_y - te_xy)


class TestCluster:
    def test_two_sources_single_merge(self):
        rng = np.random.default_rng(5)
        seqs = _seqs([rng.integers(0, 2, 100) for _ in range(2)], 2)
        z = SymbolSequence(rng.integers(0, 2, 100), 2, "z")
        tree = cluster(seqs, z, _config(2))
        assert len(tree.merges) == 1
        assert len(tree.node_names) == 3
        assert tree.levels[0] == (0, 1) and tree.levels[1] == (2,)

    def test_jointly_driving_pair_merges_first(self):
        channels, z = xor_system(4000, seed=6)
        tree = cluster(_seqs(channels, 2), SymbolSequence(z, 2, "z"), _config(4))
        assert tree.merges[0].pair == (0, 1)
        assert tree.merges[0].score < -0.5

    def test_candidate_counts_per_level(self):
        rng = np.random.default_rng(7)
        seqs = _seqs([rng.integers(0, 2, 300) for _ in range(6)], 2)
        z = SymbolSequence(rng.integers(0, 2, 300), 2, "z")
        tree = cluster(seqs, z, _config(6))
        counts = [len(m.all_candidate_scores) for m in tree.merges]
        assert counts == [15, 10, 6, 3, 1]
        for m, n_active in zip(tree.merges, range(6, 1, -1)):
            assert len(m.all_candidate_scores) == n_active * (n_active - 1) // 2

    def test_stop_at(self):
        rng = np.random.default_rng(8)
        seqs = _seqs([rng.integers(0, 2, 200) for _ in range(5)], 2)
        z = SymbolSequence(rng.integers(0, 2, 200), 2, "z")
        tree = cluster(seqs, z, _config(5, stop_at=2))
        assert len(tree.merges) == 3
        assert len(tree.levels[-1]) == 2

    def test_recorded_scores_match_score_pair(self):
        channels, z = xor_system(1500, seed=9)
        seqs = _seqs(channels, 2)
        zs = SymbolSequence(z, 2, "z")
        tree = cluster(seqs, zs, _config(4))
        nodes = replay_merges(seqs, tree, _config(4))
        first = tree.merges[0]
        for (i, j), recorded in first.all_candidate_scores:
            assert recorded == score_pair(nodes[i], nodes[j], zs, 0)
        assert first.score == min(s for _, s in first.all_candidate_scores)

    def test_replay_rejects_leaves_other_than_the_trees(self):
        channels, z = xor_system(600, seed=9)
        seqs = _seqs(channels, 2)
        tree = cluster(seqs, SymbolSequence(z, 2, "z"), _config(4))
        for others in (seqs[1:] + seqs[:1], seqs[:-1],
                       [*seqs[:-1], SymbolSequence(channels[-1], 2, "s9")]):
            with pytest.raises(TreeDatasetMismatch):
                replay_merges(others, tree, _config(4))

    def test_te_to_target_recorded(self):
        channels, z = xor_system(1000, seed=10)
        tree = cluster(_seqs(channels, 2), SymbolSequence(z, 2, "z"), _config(4))
        first = dict(tree.merges[0].te_to_target)
        assert set(first) == {0, 1, 2, 3}
        assert all(v >= 0.0 for v in first.values())

    def test_leaf_order_invariance_of_merge_sets(self):
        # permuting the source order relabels ids but, absent exact score
        # ties, the same variable pairs merge at every level
        channels, z = xor_system(3000, seed=12)
        zs = SymbolSequence(z, 2, "z")
        seqs = _seqs(channels, 2)
        perm = [2, 0, 3, 1]
        permuted = [
            SymbolSequence(channels[p], 2, f"s{p}") for p in perm
        ]
        tree_a = cluster(seqs, zs, _config(4))
        tree_b = cluster(permuted, zs, _config(4))

        def merged_name_sets(tree):
            out = []
            names = list(tree.node_names)
            for m in tree.merges:
                out.append(frozenset((names[m.pair[0]], names[m.pair[1]])))
            return out

        assert merged_name_sets(tree_a) == merged_name_sets(tree_b)

    def test_scoring_ignores_heldout_rows(self):
        channels, z = xor_system(1000, seed=13)
        seqs = _seqs(channels, 2)
        zs = SymbolSequence(z, 2, "z")
        config = _config(4, train_fraction=0.6)
        tree = cluster(seqs, zs, config)
        prefix = [SymbolSequence(s.symbols[:600], 2, s.source_name) for s in seqs]
        z_prefix = SymbolSequence(z[:600], 2, "z")
        tree_prefix = cluster(prefix, z_prefix, _config(4, train_fraction=1.0))
        assert [m.pair for m in tree.merges] == [m.pair for m in tree_prefix.merges]
        assert [m.score for m in tree.merges] == [m.score for m in tree_prefix.merges]

    def test_replay_reproduces_fused_sequences(self):
        channels, z = xor_system(800, seed=14)
        seqs = _seqs(channels, 2)
        config = _config(4, train_fraction=0.8)
        tree = cluster(seqs, SymbolSequence(z, 2, "z"), config)
        nodes = replay_merges(seqs, tree, config)
        # every recorded level-2+ score is reproducible from replayed nodes
        zs_train = SymbolSequence(z[:640], 2, "z")
        for m in tree.merges:
            i, j = m.pair
            got = score_pair(
                SymbolSequence(nodes[i].symbols[:640], nodes[i].alphabet_size),
                SymbolSequence(nodes[j].symbols[:640], nodes[j].alphabet_size),
                zs_train, 0,
            )
            assert got == m.score


class TestPairCache:
    """Each pair's joint TE is computed once and reused at later levels."""

    @pytest.fixture(scope="class")
    def noisy_run(self):
        # 5 occupancy-like channels plus 2 injected noise channels
        config = RunConfig(
            target_column="Occupancy",
            source_columns=("Temperature", "Humidity", "Light", "CO2",
                            "HumidityRatio", "noise_1", "noise_2"),
            alphabet=3, depth=1, train_fraction=0.7,
        )
        dataset = append_noise_channels(occupancy_like(n=1500, seed=3), 2, seed=4)
        leaves = leaf_sequences(dataset, config)
        target, _, _, _ = target_symbols(dataset, config)
        return leaves, target, config

    def test_recorded_scores_equal_fresh_score_pair(self, noisy_run):
        leaves, target, config = noisy_run
        tree = cluster(leaves, target, config)
        nodes = replay_merges(leaves, tree, config)
        train_len = split_index(len(target), config.train_fraction)

        def view(seq):
            return SymbolSequence(seq.symbols[:train_len], seq.alphabet_size)

        z_train = view(target)
        assert len(tree.merges) == 6
        for record, active in zip(tree.merges, tree.levels):
            expected = [(i, j) for a, i in enumerate(active) for j in active[a + 1:]]
            assert [pair for pair, _ in record.all_candidate_scores] == expected
            for (i, j), recorded in record.all_candidate_scores:
                assert recorded == score_pair(view(nodes[i]), view(nodes[j]),
                                              z_train, config.depth)
            # the winner's score is minus its pair's causation entropies
            c_x, c_y = causation_entropy_pair(view(nodes[record.pair[0]]),
                                              view(nodes[record.pair[1]]),
                                              z_train, config.depth)
            assert abs(record.score + (c_x + c_y)) <= 1e-10

    def test_transfer_entropy_calls_follow_pair_formula(self, noisy_run, monkeypatch):
        leaves, target, config = noisy_run
        batches, terms_built = [], []

        def counting(sources, *args):
            sources = list(sources)
            batches.append(len(sources))
            return scores(sources, *args)

        def building(*args):
            terms_built.append(args)
            return target_terms(*args)

        scores, target_terms = clustering._scores, clustering._target_terms
        monkeypatch.setattr(clustering, "_scores", counting)
        monkeypatch.setattr(clustering, "_target_terms", building)
        tree = cluster(leaves, target, config)
        n = len(leaves)
        # the target's terms once per run, and one batch per level: all
        # singles and pairs first, then at each later level with m active
        # nodes the new node alone and paired with each of the other m - 1
        assert len(terms_built) == 1
        assert len(batches) == len(tree.merges) == n - 1
        assert batches == [n + n * (n - 1) // 2, *range(n - 1, 1, -1)]
        # the manifest's te_computed counts the same batches
        assert batches == clustering.te_computed(tree)
        assert sum(batches) == n + n * (n - 1) // 2 + sum(range(2, n))

    def test_te_table_equals_transfer_entropy(self, noisy_run, monkeypatch):
        leaves, target, config = noisy_run
        scored = []

        def recording(sources, *args):
            sources = list(sources)
            values = scores(sources, *args)
            scored.extend(zip(sources, values))
            return values

        scores = clustering._scores
        monkeypatch.setattr(clustering, "_scores", recording)
        cluster(leaves, target, config)
        z_train = target.symbols[:split_index(len(target), config.train_fraction)]
        n = len(leaves)
        assert len(scored) == n + n * (n - 1) // 2 + sum(range(2, n))
        for source, value in scored:
            assert value == transfer_entropy(source, z_train, config.depth)

    def test_tree_bytes_do_not_depend_on_the_chunk_budget(self, noisy_run, monkeypatch):
        leaves, target, config = noisy_run
        default = export_tree(cluster(leaves, target, config))
        # one source per chunk, then every source of a level in one chunk
        for budget in (1, 2**40):
            monkeypatch.setattr(infotheory, "_CHUNK_KEYS", budget)
            assert export_tree(cluster(leaves, target, config)) == default


class TestExport:
    def _small_tree(self):
        rng = np.random.default_rng(15)
        seqs = _seqs([rng.integers(0, 2, 120) for _ in range(2)], 2)
        z = SymbolSequence(rng.integers(0, 2, 120), 2, "z")
        return cluster(seqs, z, _config(2))

    def test_two_leaf_dot(self):
        dot = export_tree(self._small_tree(), "dot").decode()
        assert dot.count("[label=") == 3 + 2  # 3 node labels + 2 edge labels
        assert dot.count(" -- ") == 2

    def test_json_round_trip(self):
        channels, z = xor_system(600, seed=16)
        tree = cluster(_seqs(channels, 2), SymbolSequence(z, 2, "z"), _config(4))
        assert tree_from_json(export_tree(tree, "json")) == tree

    def test_five_leaf_dot_has_nine_nodes(self):
        rng = np.random.default_rng(17)
        seqs = _seqs([rng.integers(0, 3, 400) for _ in range(5)], 3)
        z = SymbolSequence(rng.integers(0, 3, 400), 3, "z")
        tree = cluster(seqs, z, _config(5, alphabet=3))
        dot = export_tree(tree, "dot").decode()
        node_lines = [
            line for line in dot.splitlines()
            if line.strip().startswith("n") and "[label=" in line and "--" not in line
        ]
        assert len(node_lines) == 9

    @pytest.mark.parametrize("damage", [
        lambda doc: doc["merges"][0].update(pair=[1, 1]),
        lambda doc: doc["merges"][0].update(pair=[0, 4]),
        lambda doc: doc["merges"][1].update(pair=[0, 99]),
        lambda doc: doc["merges"][0].update(pair=[0, 1, 2]),
        lambda doc: doc["merges"][1].update(pair=doc["merges"][0]["pair"]),
        lambda doc: doc["levels"].pop(),
        lambda doc: doc["levels"][1].append(99),
        lambda doc: doc["node_names"].append("extra"),
        lambda doc: doc.pop("levels"),
        lambda doc: doc["merges"][0].update(pair=7),
        lambda doc: doc["merges"][0].update(pair=[0.0, 1]),
        lambda doc: doc["merges"][0].update(level=5),
        lambda doc: doc["merges"][0].update(level=True),
        lambda doc: doc["merges"][0].update(level=1.0),
        lambda doc: doc["merges"][0].update(score="x"),
        lambda doc: doc["merges"][0].update(score=None),
        lambda doc: doc["merges"][0].update(score=True),
        lambda doc: doc["merges"][0]["candidates"][0].__setitem__(1, None),
        lambda doc: doc["merges"][0]["candidates"][0].__setitem__(0, ["0", 1]),
        lambda doc: doc["merges"][0]["te_to_target"][0].__setitem__(1, "0.5"),
        lambda doc: doc["node_names"].__setitem__(0, 1),
        lambda doc: doc["leaves"].__setitem__(0, None),
    ])
    def test_impossible_tree_rejected(self, damage):
        channels, z = xor_system(600, seed=16)
        tree = cluster(_seqs(channels, 2), SymbolSequence(z, 2, "z"), _config(4))
        doc = json.loads(export_tree(tree, "json"))
        damage(doc)
        with pytest.raises(MalformedArtifact):
            tree_from_json(json.dumps(doc))

    def test_undecodable_tree_rejected(self):
        for data in (b"", b'{"leaves": [', b"\xff\xfe", b"[1, 2]"):
            with pytest.raises(MalformedArtifact):
                tree_from_json(data)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export_tree(self._small_tree(), "svg")
