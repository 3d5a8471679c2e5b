import csv
import hashlib
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tefuse import ingest
from tefuse import (
    Dataset,
    EmptyAfterFiltering,
    MissingColumn,
    RunConfig,
    UnparseableHeader,
    UnreadableCsv,
    append_noise_channels,
    load_csv,
    read_config_file,
    split_index,
)
from tefuse.ingest import _parse_rows


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

    @pytest.mark.parametrize("row", [0, 1, 300])
    def test_invalid_utf8_raises(self, tmp_path, config, row):
        lines = [b"a,b,c,z"] + [b"1,2,3,4"] * 400
        lines[row] += b",\xff"
        path = tmp_path / "latin.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(UnreadableCsv, match="not valid UTF-8"):
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

    @pytest.mark.parametrize("text", [
        "a,b,c,z\n1,2,3,4\n5,6,7,8\n",
        "\ufeffa,b,c,z\r\n1,2,3,4\r\n,6,7,8\r\n9,1,2,3",  # BOM, a bad row, no last break
        "a,b,c,z\n" + "1.5,2,3,4\n" * 20_000,  # many read chunks
    ], ids=["small", "bom-bad-row", "large"])
    def test_digest_sees_every_byte(self, tmp_path, config, text):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        digest = hashlib.sha256()
        loaded, plain = load_csv(path, config, digest), load_csv(path, config)
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
        assert loaded.dropped_rows == plain.dropped_rows
        for name in plain.names:
            assert loaded.column(name).tobytes() == plain.column(name).tobytes()

    @pytest.mark.parametrize("row", [1, 300])
    def test_invalid_utf8_raises_with_digest(self, tmp_path, config, row):
        lines = [b"a,b,c,z"] + [b"1,2,3,4"] * 400
        lines[row] += b",\xff"
        path = tmp_path / "latin.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(UnreadableCsv) as plain:
            load_csv(path, config)
        with pytest.raises(UnreadableCsv, match=re.escape(str(plain.value))):
            load_csv(path, config, hashlib.sha256())

    def test_column_order_follows_config(self, tmp_path):
        rows = [[1, 2, 3, 4]]
        path = write_csv(tmp_path / "d.csv", ["a", "b", "c", "z"], rows)
        cfg = RunConfig(target_column="z", source_columns=("c", "a"))
        ds = load_csv(path, cfg)
        assert ds.names == ("c", "a", "z")


# Sources ("b", "a") and target "z" of the header "a,x,b,z" select the
# cells 2, 0 and 3 of each row, in that order; x is never read.
BULK_CONFIG = RunConfig(target_column="z", source_columns=("b", "a"))
BULK_INDICES = [2, 0, 3]


def assert_loads_as_loop(path, body, header="a,x,b,z\n"):
    """load_csv (bulk parse plus fallback) reads ``body`` as the loop does."""
    path.write_bytes((header + body).encode("utf-8"))
    columns, dropped = _parse_rows(body, BULK_INDICES)
    if not columns.shape[1]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyAfterFiltering):
                load_csv(path, BULK_CONFIG)
        return
    ds = load_csv(path, BULK_CONFIG)
    assert ds.names == ("b", "a", "z")
    assert ds.dropped_rows == dropped
    assert np.array(ds.columns).tobytes() == columns.tobytes()
    assert all(c.flags.c_contiguous for c in ds.columns)


BULK_CASES = {
    "quoted_fields": '"1",9,"2",3\n4,9,"5,0",6\n7,"9",8,"9"\n',
    "quoted_commas_in_unselected_cell": '1,"x,5,6,7",2,3\n',
    "quoted_index_and_date": '1,"2015-02-04 17:51:00",2,3\n4,"2015-02-04 17:52:00",5,6\n',
    "quoted_newline_in_unselected_cell": '1,"x\n5,6",2,3\n4,9,5,6\n',
    "doubled_quotes": '1,"say ""5""",2,3\n4,"""",5,6\n',
    "stray_quotes": '1,x"y,2,3\n4,9,5,6\n"7" ,9,8,9\n',
    # The second quote opens a field csv reads to the last line; cutting
    # at an even quote count after the second line would split it.
    "stray_quote_before_quoted_field": 'x",9,2,3\n",9,5,6\n7,9,8,9\n"\n1,9,2,3\n4,9",5,6\n',
    "text_after_closing_quote": '"1"5,9,"2"x"y,3\n4,9,5,6\n',
    "unterminated_quote": '1,9,2,3\n4,"9,5,6\n7,9,8,9\n',
    "short_rows": "1,9,2,3\n4,9\n5\n6,9,7,8\n",
    "long_rows": "1,9,2,3,4,5\n6,9,7,8\n",
    "blank_lines": "\n1,9,2,3\n\n\n4,9,5,6\n\n",
    "whitespace_only_lines": "1,9,2,3\n \n\t\n4,9,5,6\n",
    "hash_at_line_start": "#1,9,2,3\n4,9,5,6\n#\n7,9,8,9\n",
    "nan": "nan,9,2,3\n1,9,NaN,3\n4,9,5,6\n",
    "inf": "inf,9,2,3\n1,9,-inf,3\n4,9,5,6\n",
    "Infinity": "Infinity,9,2,3\n1,9,2,-Infinity\n4,9,5,6\n",
    "1e500": "1e500,9,2,3\n1,9,2,-1e500\n4,9,5,6\n1e-500,9,2,3\n",
    "underscore_digits": "1_000,9,2,3\n4,9,5,6\n",
    "fullwidth_digits": "１２,9,2,3\n4,9,5,6\n",
    "surrounding_spaces": " 2.5 ,9,\t3\t, 4\n5,9,6,7\n",
    "unselected_junk": "1,junk,2,3\n4,,5,6\n",
    "signed_zero": "-0.0,9,0.0,-0\n",
    "crlf_line_endings": "1,9,2,3\r\n4,9,5,6\r\n\r\n7,9,8,9\r\n",
    "lone_cr_line_endings": "1,9,2,3\r4,9,5,6\r\r7,9,8,9\r",
    "ascii_separators": "\x1c1,9,2,3\n4,9,5\x1f,6\n7,9,8,9\n",
    "no_final_newline": "1,9,2,3\n4,9,5,6",
    "every_row_dropped": "x,9,2,3\n1,9,nan,3\n",
}


# Cells that numpy and float() read alike, and cells where they may not.
NUMBERS = ["1", "-2.5", "0", "-0.0", "3e2", ".5", "7.", "+4", "nan", "-nan",
           "inf", "-inf", "Infinity", "1e500", "1e-500", " 2.5 ", "\t3", "\xa06"]
TRICKY = ["", " ", "x", "#", "#1", "1_000", "１２", "\x1c1", '"1,5"', '"2\n3"',
          '"2\r3"', '1"', '"4', '""', '"""', '"1""2"', '"1" ', ' "1"', '"1"2']


@st.composite
def cells(draw, clean):
    """A cell from the tokens above; a clean one is a number, bare or quoted."""
    if clean:
        number = draw(st.sampled_from(NUMBERS))
        return draw(st.sampled_from([number, f'"{number}"']))
    return draw(st.sampled_from(NUMBERS + TRICKY))


@st.composite
def csv_bodies(draw):
    """CSV text built from the tokens above, and whether it is clean: only
    numbers, bare or quoted, in rows of four cells or more and blank lines,
    ended by LF or CRLF. The bulk parse must read a clean text without the
    loop."""
    clean = draw(st.booleans())
    rows = (st.one_of(st.just([]), st.lists(cells(True), min_size=4, max_size=6))
            if clean else st.lists(cells(False), max_size=6))
    ends = st.sampled_from(["\n", "\r\n"] if clean else ["\n", "\r\n", "\r"])
    lines = draw(st.lists(st.tuples(rows, ends), max_size=12))
    return "".join(",".join(row) + end for row, end in lines), clean


class TestBulkParse:
    """load_csv reads every text as the per-row loop does, bit for bit."""

    @pytest.mark.parametrize("body", BULK_CASES.values(), ids=BULK_CASES.keys())
    def test_named_case_matches_loop(self, tmp_path, body):
        assert_loads_as_loop(tmp_path / "d.csv", body)

    @pytest.mark.parametrize("block_chars", [1, 5, 12])
    @pytest.mark.parametrize("body", BULK_CASES.values(), ids=BULK_CASES.keys())
    def test_named_case_in_small_blocks_matches_loop(self, body, block_chars):
        columns, dropped = _parse_rows(body, BULK_INDICES)
        bulk, bulk_dropped = ingest._parse_bulk(body, BULK_INDICES, block_chars)
        assert bulk_dropped == dropped
        assert bulk.shape == columns.shape
        assert bulk.tobytes() == columns.tobytes()

    def test_quoted_header_with_newline(self, tmp_path):
        assert_loads_as_loop(tmp_path / "d.csv", "1,9,2,3\n4,9,5,6\n",
                             header='a,"x\ny",b,"z"\n')

    @pytest.mark.parametrize("body", ["", "\n", "\n\n", " \n", "\r\n"])
    def test_header_only_file_raises_without_warning(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_text("a,x,b,z\n" + body, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyAfterFiltering):
                load_csv(path, BULK_CONFIG)

    def test_plain_numbers_skip_the_loop(self, tmp_path, monkeypatch):
        # The bulk parse must read these texts itself: a fallback to the
        # loop on every text would pass the comparisons above.
        def refuse(text, indices):
            raise AssertionError("fell back to the per-row loop")

        body = ("1,9,2,3\r\n\r\n 4.5 ,9,nan,6\r\n-0.0,x,3e2,7\r\n"
                "1,9,1e500,2\r\n8,9,10,11,12\r\n")
        path = tmp_path / "d.csv"
        path.write_bytes(("\ufeffa,x,b,z\r\n" + body).encode("utf-8"))
        columns, dropped = _parse_rows(body, BULK_INDICES)
        monkeypatch.setattr(ingest, "_parse_rows", refuse)
        ds = load_csv(path, BULK_CONFIG)
        assert np.array(ds.columns).tobytes() == columns.tobytes()
        assert ds.dropped_rows == dropped == 2
        assert ds.column("a").tolist() == [1.0, -0.0, 8.0]
        assert np.signbit(ds.column("a")[1])

    @settings(deadline=None, max_examples=300)
    @given(csv_bodies())
    def test_random_text_matches_loop(self, tmp_path_factory, drawn):
        body, clean = drawn
        if clean and body.strip():
            with mock.patch.object(ingest, "_parse_rows", side_effect=AssertionError):
                ingest._parse_bulk(body, BULK_INDICES)
        assert_loads_as_loop(tmp_path_factory.getbasetemp() / "bulk.csv", body)

    @settings(deadline=None, max_examples=300)
    @given(csv_bodies(), st.integers(1, 24))
    def test_small_blocks_match_loop(self, drawn, block_chars):
        # Cuts between blocks fall inside the text here, next to quotes,
        # blank lines and rows the loop must read.
        body, _ = drawn
        columns, dropped = _parse_rows(body, BULK_INDICES)
        bulk, bulk_dropped = ingest._parse_bulk(body, BULK_INDICES, block_chars)
        assert bulk_dropped == dropped
        assert bulk.shape == columns.shape
        assert bulk.tobytes() == columns.tobytes()

    @pytest.mark.parametrize("bad_row", ["5,9,,6", '5,9,"",6', "5,9", "5,9,x,6"])
    @pytest.mark.parametrize("unselected", ["9", '"9"', '"9,\n9"'])
    def test_bad_row_sends_only_its_block_to_the_loop(self, bad_row, unselected):
        good = [f"{i},{unselected},{i}.5,{-i}" for i in range(2000)]
        body = "\n".join(good[:1500] + [bad_row] + good[1500:]) + "\n"
        columns, dropped = _parse_rows(body, BULK_INDICES)
        looped = []

        def loop(text, indices):
            looped.append(len(text))
            return _parse_rows(text, indices)

        with mock.patch.object(ingest, "_parse_rows", side_effect=loop):
            bulk, bulk_dropped = ingest._parse_bulk(body, BULK_INDICES, 1000)
        assert (bulk_dropped, dropped) == (1, 1)
        assert bulk.tobytes() == columns.tobytes()
        assert len(looped) == 1 and looped[0] < 1100

    def test_field_over_the_csv_limit_raises_as_the_loop_does(self, tmp_path):
        # A block longer than the limit could hold such a field in a column
        # loadtxt skips, so the loop reads it.
        old = csv.field_size_limit(1000)
        try:
            body = "".join(f'{i},"{"y" * 900}",{i}.5,{-i}\n' for i in range(100))
            assert_loads_as_loop(tmp_path / "ok.csv", body)
            body += '1,"' + "y" * 1001 + '",2,3\n' + body
            with pytest.raises(csv.Error):
                _parse_rows(body, BULK_INDICES)
            path = tmp_path / "big.csv"
            path.write_text("a,x,b,z\n" + body)
            with pytest.raises(UnreadableCsv, match="field larger than field limit"):
                load_csv(path, BULK_CONFIG)
        finally:
            csv.field_size_limit(old)

    def test_many_bad_rows_send_the_rest_to_the_loop(self):
        # Past the first block, loadtxt would only fail again.
        body = "".join(f"{i},9,{i}.5,{-i}\n{i},9,,0\n" for i in range(2000))
        columns, dropped = _parse_rows(body, BULK_INDICES)
        with mock.patch.object(ingest, "_loadtxt", wraps=ingest._loadtxt) as loadtxt:
            bulk, bulk_dropped = ingest._parse_bulk(body, BULK_INDICES, 1000)
        assert loadtxt.call_count == 1
        assert (bulk_dropped, dropped) == (2000, 2000)
        assert bulk.tobytes() == columns.tobytes()


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
