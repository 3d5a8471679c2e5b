import numpy as np
import pytest

from tefuse import (
    Dataset,
    EmptyAfterFiltering,
    MissingColumn,
    RunConfig,
    UnparseableHeader,
    append_noise_channels,
    load_csv,
    read_config_file,
    split_index,
)


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def config():
    return RunConfig(target_column="z", source_columns=("a", "b", "c"))


class TestLoadCsv:
    def test_clean_passthrough(self, tmp_path, config):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(100, 5)).round(4)
        path = write_csv(tmp_path / "d.csv", ["a", "b", "x", "c", "z"], rows)
        cfg = RunConfig(target_column="z", source_columns=("a", "b"))
        ds = load_csv(path, cfg)
        assert ds.n == 100
        assert ds.names == ("a", "b", "z")
        assert ds.dropped_rows == 0
        assert np.allclose(ds.column("b"), rows[:, 1])

    def test_blank_cells_drop_rows(self, tmp_path, config):
        rows = [[i, i + 1, i + 2, i + 3] for i in range(100)]
        rows[10][1] = ""
        rows[20][3] = ""
        path = write_csv(tmp_path / "d.csv", ["a", "b", "c", "z"], rows)
        ds = load_csv(path, config)
        assert ds.n == 98
        assert ds.dropped_rows == 2

    def test_non_numeric_and_nan_cells_drop_rows(self, tmp_path, config):
        rows = [[i, i, i, i] for i in range(10)]
        rows[3][0] = "broken"
        rows[5][2] = "nan"
        path = write_csv(tmp_path / "d.csv", ["a", "b", "c", "z"], rows)
        ds = load_csv(path, config)
        assert ds.n == 8 and ds.dropped_rows == 2

    def test_infinite_cells_drop_rows(self, tmp_path, config):
        rows = [[i, i, i, i] for i in range(10)]
        rows[2][1] = "inf"
        rows[4][0] = "-inf"
        rows[6][3] = "Infinity"
        path = write_csv(tmp_path / "d.csv", ["a", "b", "c", "z"], rows)
        ds = load_csv(path, config)
        assert ds.n == 7 and ds.dropped_rows == 3
        assert all(np.isfinite(c).all() for c in ds.columns)
        assert ds.column("a").tolist() == [0, 1, 3, 5, 7, 8, 9]

    def test_unselected_columns_do_not_matter(self, tmp_path, config):
        rows = [[i, i, i, "junk", i] for i in range(10)]
        path = write_csv(tmp_path / "d.csv", ["a", "b", "c", "note", "z"], rows)
        assert load_csv(path, config).n == 10

    def test_missing_column(self, tmp_path, config):
        path = write_csv(tmp_path / "d.csv", ["a", "b", "z"], [[1, 2, 3]])
        with pytest.raises(MissingColumn) as info:
            load_csv(path, config)
        assert info.value.name == "c"

    def test_empty_after_filtering(self, tmp_path, config):
        path = write_csv(tmp_path / "d.csv", ["a", "b", "c", "z"],
                         [["x", 1, 2, 3], [4, "y", 5, 6]])
        with pytest.raises(EmptyAfterFiltering):
            load_csv(path, config)

    def test_empty_file(self, tmp_path, config):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(UnparseableHeader):
            load_csv(path, config)

    def test_duplicate_header(self, tmp_path, config):
        path = write_csv(tmp_path / "d.csv", ["a", "a", "c", "z"], [[1, 2, 3, 4]])
        with pytest.raises(UnparseableHeader):
            load_csv(path, config)

    def test_scientific_notation(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "z"],
                         [["1e-3", "2.5E2"], ["-4e1", "0"]])
        cfg = RunConfig(target_column="z", source_columns=("a",))
        ds = load_csv(path, cfg)
        assert ds.column("a").tolist() == [0.001, -40.0]
        assert ds.column("z").tolist() == [250.0, 0.0]

    def test_pure_given_bytes(self, tmp_path, config):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(50, 4)).tolist()
        a = write_csv(tmp_path / "a.csv", ["a", "b", "c", "z"], rows)
        b = tmp_path / "b.csv"
        b.write_bytes(a.read_bytes())
        da, db = load_csv(a, config), load_csv(b, config)
        assert da.names == db.names
        for name in da.names:
            assert np.array_equal(da.column(name), db.column(name))

    def test_column_order_follows_config(self, tmp_path):
        rows = [[1, 2, 3, 4]]
        path = write_csv(tmp_path / "d.csv", ["a", "b", "c", "z"], rows)
        cfg = RunConfig(target_column="z", source_columns=("c", "a"))
        ds = load_csv(path, cfg)
        assert ds.names == ("c", "a", "z")


class TestRunConfig:
    def test_target_cannot_be_source(self):
        with pytest.raises(ValueError):
            RunConfig(target_column="a", source_columns=("a", "b"))

    def test_fused_alphabet_defaults_to_alphabet(self):
        cfg = RunConfig(target_column="z", source_columns=("a",), alphabet=7)
        assert cfg.fused_alphabet == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(target_column="z", source_columns=("a",), alphabet=1)
        with pytest.raises(ValueError):
            RunConfig(target_column="z", source_columns=("a",), train_fraction=0.0)
        with pytest.raises(ValueError):
            RunConfig(target_column="z", source_columns=("a",), stop_at=0)
        with pytest.raises(ValueError):
            RunConfig(target_column="z", source_columns=("a",), depth=-1)

    def test_dict_round_trip(self):
        cfg = RunConfig(target_column="z", source_columns=("a", "b"), alphabet=4)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


class TestSplitIndex:
    def test_ceiling(self):
        assert split_index(10, 0.7) == 7
        assert split_index(100, 0.7) == 70
        assert split_index(3, 0.5) == 2
        assert split_index(10, 1.0) == 10

    def test_float_fuzz_does_not_overshoot(self):
        for n in (10, 100, 1000, 8143):
            assert split_index(n, 0.7) == int(np.ceil(np.round(0.7 * n, 6)))


class TestNoiseChannels:
    def test_appended_names_and_determinism(self):
        ds = Dataset(names=("a", "z"), columns=(np.arange(5.0), np.ones(5)))
        one = append_noise_channels(ds, 2, seed=42)
        two = append_noise_channels(ds, 2, seed=42)
        assert one.names == ("a", "z", "noise_1", "noise_2")
        assert np.array_equal(one.column("noise_1"), two.column("noise_1"))
        other = append_noise_channels(ds, 2, seed=43)
        assert not np.array_equal(one.column("noise_1"), other.column("noise_1"))

    def test_name_collision(self):
        ds = Dataset(names=("noise_1", "z"), columns=(np.arange(3.0), np.ones(3)))
        with pytest.raises(ValueError):
            append_noise_channels(ds, 1, seed=0)


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# comment\n"
            "target = z\n"
            "sources = a,b , c\n"
            "\n"
            "alphabet=5\n"
        )
        entries = read_config_file(path)
        assert entries == {"target": "z", "sources": "a,b , c", "alphabet": "5"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("alphabet 5\n")
        with pytest.raises(ValueError):
            read_config_file(path)
