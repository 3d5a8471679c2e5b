import builtins
import contextlib
import hashlib
import importlib.util
import io
import json
import logging
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tefuse
from tefuse import RunConfig, cli
from tefuse.cli import _CONFIG_FLAGS, main

from synthdata import (AHU_SOURCES, AHU_TARGET, OCC_SOURCES, OCC_TARGET, ahu_like,
                       occupancy_like, write_dataset_csv)

COMMON = [
    "--target", "Occupancy",
    "--sources", "Temperature,Humidity,Light,CO2,HumidityRatio",
    "--alphabet", "3",
    "--depth", "1",
    "--train-fraction", "0.7",
]


@pytest.fixture(scope="module")
def occ_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "occ.csv"
    write_dataset_csv(occupancy_like(n=2400, seed=20), path)
    return path


# a stored entry deleted, where a test parameter gives the stored value
REMOVED = object()

# flags giving a continuous (non-integer) target
CONTINUOUS = ["--target", "Temperature", "--sources", "Humidity,Light,CO2"]


def run_cluster(occ_csv, out, extra=()):
    return main(["cluster", "--input", str(occ_csv), *COMMON,
                 "--out", str(out), *extra])


# one non-default value per configuration key, as a flag or file would give it
CONFIG_VALUES = {
    "target": "Occupancy",
    "sources": "Temperature,Light,CO2",
    "alphabet": "4",
    "target_alphabet": "6",
    "depth": "2",
    "fused_alphabet": "3",
    "stop_at": "2",
    "train_fraction": "0.6",
    "seed": "5",
    "partitioner": "uniform",
    "target_kind": "discrete",
}


@pytest.fixture
def opened(monkeypatch):
    """The paths passed to open(), in call order (pathlib opens through
    io.open; before Python 3.11 through its accessor's copy of it)."""
    paths = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        paths.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    accessor = getattr(pathlib, "_NormalAccessor", None)
    if accessor is not None:
        monkeypatch.setattr(accessor, "open", staticmethod(counting_open))
    return paths


def _flag(key):
    return "--" + key.replace("_", "-")


class TestCluster:
    def test_outputs_and_merge_count(self, occ_csv, tmp_path):
        out = tmp_path / "run"
        assert run_cluster(occ_csv, out) == 0
        tree = json.loads((out / "tree.json").read_text())
        assert len(tree["leaves"]) == 5
        assert len(tree["merges"]) == 4
        assert (out / "tree.dot").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["candidate_evaluations"] == [10, 6, 3, 1]
        # the rows cluster scored: 5 singles + 10 pairs, then each level's
        # new contents only, since every fused node repeats a parent's
        # training symbols (a table keyed by node id scores [15, 4, 3, 2])
        assert manifest["te_computed"] == [15, 3, 1, 0]
        assert manifest["config"]["alphabet"] == 3
        assert "sha256" in manifest["input"]

    def test_te_computed_at_benchmark_scale(self, tmp_path):
        # the benchmark's seed-0 ahu run: every fused node repeats a leaf's
        # training symbols, so after level 1 a level scores only the pairs
        # that meet that content in the orientation the table lacks
        csv = tmp_path / "ahu.csv"
        write_dataset_csv(ahu_like(n=6720, seed=40), csv)
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(csv), "--target", AHU_TARGET,
                     "--sources", ",".join(AHU_SOURCES), "--alphabet", "10", "--depth", "5",
                     "--target-alphabet", "10", "--train-fraction", "0.7",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["te_computed"] == [36, 6, 2, 2, 3, 0, 1]

    def test_stop_at(self, occ_csv, tmp_path):
        out = tmp_path / "run"
        assert run_cluster(occ_csv, out, ["--stop-at", "2"]) == 0
        tree = json.loads((out / "tree.json").read_text())
        assert len(tree["merges"]) == 3

    def test_missing_target_is_usage_error(self, occ_csv, tmp_path):
        code = main(["cluster", "--input", str(occ_csv),
                     "--sources", "Temperature,Humidity",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_unknown_column_is_config_error(self, occ_csv, tmp_path):
        code = main(["cluster", "--input", str(occ_csv),
                     "--target", "Occupancy", "--sources", "Temperature,CO3",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["cluster", "--input", str(tmp_path / "nope.csv"), *COMMON,
                     "--out", str(tmp_path / "x")])
        assert code == 3

    @pytest.mark.parametrize("where", ["header", "selected", "unselected"])
    def test_oversized_cell_is_data_error(self, occ_csv, tmp_path, capsys, where):
        # csv refuses a field over its 131,072-character limit
        header, *rows = occ_csv.read_text().splitlines()
        cell = '"' + "7" * 200_000 + '"'
        if where == "header":
            header += "," + cell
        else:
            rows[5] = (rows[5].replace(",", "," + cell + ",", 1) if where == "selected"
                       else rows[5] + "," + cell)
        path = tmp_path / "big.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        code = main(["cluster", "--input", str(path), *COMMON,
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "field larger than field limit" in capsys.readouterr().err

    def test_invalid_utf8_is_data_error(self, occ_csv, tmp_path, capsys):
        lines = occ_csv.read_bytes().splitlines(keepends=True)
        lines[40] = lines[40].replace(b",", b",\xff", 1)
        path = tmp_path / "latin.csv"
        path.write_bytes(b"".join(lines))
        code = main(["cluster", "--input", str(path), *COMMON,
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_idempotent_and_thread_invariant(self, occ_csv, tmp_path):
        out1, out2, out8 = (tmp_path / d for d in ("a", "b", "c"))
        run_cluster(occ_csv, out1)
        run_cluster(occ_csv, out2)
        assert (out1 / "tree.json").read_bytes() == (out2 / "tree.json").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
        assert main(["--threads", "8", "cluster", "--input", str(occ_csv),
                     *COMMON, "--out", str(out8)]) == 0
        assert (out1 / "tree.json").read_bytes() == (out8 / "tree.json").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out8 / "manifest.json").read_bytes()

    def test_config_file_with_flag_override(self, occ_csv, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "target = Occupancy\n"
            "sources = Temperature,Humidity,Light,CO2,HumidityRatio\n"
            "alphabet = 4\n"
            "depth = 1\n"
        )
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(occ_csv), "--config", str(conf),
                     "--alphabet", "3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alphabet"] == 3  # flag wins
        assert manifest["config"]["depth"] == 1     # file applies

    def test_config_file_with_byte_order_mark(self, occ_csv, tmp_path):
        # a leading BOM once made the first key '\ufefftarget', exit 2
        text = ("target = Occupancy\n"
                "sources = Temperature,Humidity,Light,CO2,HumidityRatio\n"
                "alphabet = 3\n"
                "depth = 1\n")
        outputs = []
        for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
            conf = tmp_path / f"{name}.conf"
            conf.write_bytes(data)
            out = tmp_path / name
            assert main(["cluster", "--input", str(occ_csv), "--config", str(conf),
                         "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            outputs.append(((out / "tree.json").read_bytes(), manifest["config"]))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("key", list(_CONFIG_FLAGS))
    def test_config_file_key_matches_flag(self, occ_csv, tmp_path, key):
        # every value differs from its default, so a key the file reader
        # dropped would show as a different manifest config
        expected = RunConfig(**{field: parse(CONFIG_VALUES[k])
                                for k, (field, parse, _) in _CONFIG_FLAGS.items()})
        field = _CONFIG_FLAGS[key][0]
        assert getattr(expected, field) != getattr(RunConfig("t", ("s",)), field)
        others = [arg for k, v in CONFIG_VALUES.items() if k != key
                  for arg in (_flag(k), v)]
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {CONFIG_VALUES[key]}\n")
        for name, extra in (("flag", [_flag(key), CONFIG_VALUES[key]]),
                            ("file", ["--config", str(conf)])):
            out = tmp_path / name
            assert main(["symbolize", "--input", str(occ_csv), *others, *extra,
                         "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"] == json.loads(json.dumps(expected.to_dict()))


    def test_partitioner_outside_choices_is_config_error(self, occ_csv, tmp_path,
                                                         capsys):
        out = tmp_path / "x"
        assert run_cluster(occ_csv, out, ["--partitioner", "bogus"]) == 2
        assert "partitioner must be one of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cluster", "inject-noise", "symbolize"])
    def test_help_lists_every_option_with_its_default(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        defaults = RunConfig.defaults()
        for key, (field, _, _) in _CONFIG_FLAGS.items():
            # argparse's line for a flag: "--key KEY help", up to the next flag
            _, _, entry = text.partition(f"{_flag(key)} {key.upper()} ")
            entry = entry.split(" --")[0]
            assert entry
            if defaults.get(field) is not None:
                assert entry.endswith(f"(default {defaults[field]})")
            else:
                assert "(default" not in entry


class TestEvaluate:
    def test_report_rows_per_level(self, occ_csv, tmp_path):
        run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
        run_cluster(occ_csv, run_dir)
        assert main(["evaluate", "--input", str(occ_csv),
                     "--tree", str(run_dir), "--out", str(eval_dir)]) == 0
        lines = (eval_dir / "report.csv").read_text().splitlines()
        assert lines[0] == "level,metric,value,n_test"
        assert len(lines) == 1 + 5  # levels 0..4
        assert all(line.split(",")[1] == "accuracy" for line in lines[1:])
        report = json.loads((eval_dir / "report.json").read_text())
        assert [r["level"] for r in report["levels"]] == [0, 1, 2, 3, 4]
        preds = (eval_dir / "predictions.csv").read_text().splitlines()
        assert preds[0] == "level,row,truth,predicted"
        assert len(preds) > 1
        for line in preds[1:]:
            level, row, truth, predicted = line.split(",")
            int(level), int(row), float(truth), float(predicted)
        assert (eval_dir / "evaluate_manifest.json").exists()

    def test_tampered_input_rejected(self, occ_csv, tmp_path):
        run_dir = tmp_path / "run"
        run_cluster(occ_csv, run_dir)
        tampered = tmp_path / "tampered.csv"
        text = occ_csv.read_text().splitlines()
        text[1] = text[1].replace(text[1].split(",")[0], "999.0", 1)
        tampered.write_text("\n".join(text) + "\n")
        code = main(["evaluate", "--input", str(tampered),
                     "--tree", str(run_dir), "--out", str(tmp_path / "eval")])
        assert code == 3

    def test_other_input_that_does_not_parse_is_a_mismatch(self, occ_csv, tmp_path,
                                                           capsys):
        # a file without the configured columns is named as the wrong file
        # (exit 3), not reported as a missing column (exit 2)
        run_dir = tmp_path / "run"
        run_cluster(occ_csv, run_dir)
        other = tmp_path / "other.csv"
        other.write_text("a,b\n1,2\n")
        capsys.readouterr()
        assert main(["evaluate", "--input", str(other), "--tree", str(run_dir),
                     "--out", str(tmp_path / "eval")]) == 3
        assert "tree was built from" in capsys.readouterr().err

    def test_mismatched_input_is_not_parsed(self, occ_csv, tmp_path, capsys,
                                            monkeypatch):
        run_dir = tmp_path / "run"
        run_cluster(occ_csv, run_dir)
        other = tmp_path / "other.csv"
        other.write_bytes(occ_csv.read_bytes() + b"\n")
        calls = []
        monkeypatch.setattr(cli, "load_csv", lambda *a, **k: calls.append(a))
        capsys.readouterr()
        assert main(["evaluate", "--input", str(other), "--tree", str(run_dir),
                     "--out", str(tmp_path / "eval")]) == 3
        assert "tree was built from" in capsys.readouterr().err
        assert calls == []

    def test_depth_beyond_radix_state_range(self, occ_csv, tmp_path):
        # 3^41 windows do not fit a 64-bit radix state id; evaluation must
        # accept every tree that clustering produced. This checks only that
        # it runs: at this depth almost no held-out window was seen in
        # training, so the values cannot tell aligned windows from shifted
        # ones. TestEvaluateLevels::test_matches_radix_state_reference checks
        # the alignment at depth 2.
        run_dir = tmp_path / "run"
        assert run_cluster(occ_csv, run_dir, ["--depth", "40"]) == 0
        assert main(["evaluate", "--input", str(occ_csv), "--tree", str(run_dir),
                     "--out", str(tmp_path / "eval")]) == 0
        lines = (tmp_path / "eval" / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + 5

    def test_input_hashed_once(self, occ_csv, tmp_path):
        # the digest is that of the bytes parsed; test_command_opens_input_once
        # checks that they are read once
        run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
        run_cluster(occ_csv, run_dir)
        assert main(["evaluate", "--input", str(occ_csv), "--tree", str(run_dir),
                     "--out", str(eval_dir)]) == 0
        manifests = [json.loads((d / name).read_text()) for d, name in
                     ((run_dir, "manifest.json"), (eval_dir, "evaluate_manifest.json"))]
        digest = hashlib.sha256(occ_csv.read_bytes()).hexdigest()
        assert manifests[0]["input"]["sha256"] == manifests[1]["input"]["sha256"] == digest

    def test_target_kind_overrides_stored_config(self, occ_csv, tmp_path, capsys):
        run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
        assert run_cluster(occ_csv, run_dir, ["--target-alphabet", "2"]) == 0
        assert main(["evaluate", "--input", str(occ_csv), "--tree", str(run_dir),
                     "--target-kind", "continuous", "--out", str(eval_dir)]) == 0
        lines = (eval_dir / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + 5
        assert all(line.split(",")[1] == "rmse" for line in lines[1:])
        manifest = json.loads((eval_dir / "evaluate_manifest.json").read_text())
        assert manifest["config"]["target_kind"] == "continuous"
        capsys.readouterr()
        bogus = tmp_path / "bogus"
        assert main(["evaluate", "--input", str(occ_csv), "--tree", str(run_dir),
                     "--target-kind", "bogus", "--out", str(bogus)]) == 2
        assert "target kind must be one of" in capsys.readouterr().err
        assert not bogus.exists()

    def test_forced_discrete_continuous_target_rejected(self, tmp_path, capsys):
        # once every distinct float became a class, and evaluate wrote an
        # accuracy of 0.0 at every level and exited 0
        csv, run_dir, eval_dir = tmp_path / "ahu.csv", tmp_path / "run", tmp_path / "eval"
        write_dataset_csv(ahu_like(n=1500, seed=40), csv)
        assert main(["cluster", "--input", str(csv), "--target", AHU_TARGET,
                     "--sources", ",".join(AHU_SOURCES), "--alphabet", "4",
                     "--depth", "2", "--out", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--input", str(csv), "--tree", str(run_dir),
                     "--target-kind", "discrete", "--out", str(eval_dir)]) == 2
        assert f"target column {AHU_TARGET!r}" in capsys.readouterr().err
        assert not eval_dir.exists()

    @pytest.mark.parametrize("command", [["cluster"], ["inject-noise", "--noise-count", "2"]])
    def test_evaluate_parses_no_rows_and_makes_no_noise(self, occ_csv, tmp_path, monkeypatch,
                                                        command):
        # evaluate takes the columns cluster parsed, noise channels included,
        # from dataset.f64: it neither parses the CSV nor generates noise
        run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
        assert main([command[0], "--input", str(occ_csv), *COMMON, *command[1:],
                     "--out", str(run_dir)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate parsed the CSV or made noise")

        for module in (cli, tefuse.ingest):
            monkeypatch.setattr(module, "load_csv", refuse)
            monkeypatch.setattr(module, "_noise_block", refuse)
        assert main(["evaluate", "--input", str(occ_csv), "--tree", str(run_dir),
                     "--out", str(eval_dir)]) == 0
        leaves = len(json.loads((run_dir / "tree.json").read_text())["leaves"])
        assert len((eval_dir / "report.csv").read_text().splitlines()) == 1 + leaves

    def test_evaluate_idempotent(self, occ_csv, tmp_path):
        run_dir = tmp_path / "run"
        run_cluster(occ_csv, run_dir)
        one, two = tmp_path / "e1", tmp_path / "e2"
        main(["evaluate", "--input", str(occ_csv), "--tree", str(run_dir),
              "--out", str(one)])
        main(["evaluate", "--input", str(occ_csv), "--tree", str(run_dir),
              "--out", str(two)])
        assert (one / "report.csv").read_bytes() == (two / "report.csv").read_bytes()


class TestMalformedArtifacts:
    """A damaged stored tree or manifest is a data error (exit 3)."""

    @pytest.fixture
    def run_dir(self, occ_csv, tmp_path):
        out = tmp_path / "run"
        assert run_cluster(occ_csv, out) == 0
        return out

    def evaluate(self, occ_csv, run_dir, tmp_path):
        return main(["evaluate", "--input", str(occ_csv),
                     "--tree", str(run_dir), "--out", str(tmp_path / "eval")])

    def test_merge_pair_naming_missing_node(self, occ_csv, run_dir, tmp_path, capsys):
        tree = json.loads((run_dir / "tree.json").read_text())
        tree["merges"][1]["pair"] = [0, 99]
        (run_dir / "tree.json").write_text(json.dumps(tree))
        assert self.evaluate(occ_csv, run_dir, tmp_path) == 3
        assert "data error" in capsys.readouterr().err
        assert main(["export-tree", "--tree", str(run_dir / "tree.json"),
                     "--out", str(tmp_path / "export")]) == 3

    @pytest.mark.parametrize("level", [True, 1.0])
    def test_merge_level_not_an_integer(self, occ_csv, run_dir, tmp_path, capsys, level):
        # equal to 1 by value, so only its type tells it from the first level
        tree = json.loads((run_dir / "tree.json").read_text())
        tree["merges"][0]["level"] = level
        (run_dir / "tree.json").write_text(json.dumps(tree))
        assert self.evaluate(occ_csv, run_dir, tmp_path) == 3
        assert "claims level" in capsys.readouterr().err
        assert main(["export-tree", "--tree", str(run_dir / "tree.json"), "--format",
                     "json", "--out", str(tmp_path / "export")]) == 3
        assert not (tmp_path / "export" / "tree.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda leaves: leaves[1:] + leaves[:1],
        lambda leaves: [leaves[1], leaves[0], *leaves[2:]],
        lambda leaves: [*leaves[:-1], "Occupancy"],
    ], ids=["rotated", "swapped", "renamed"])
    def test_leaves_other_than_configured_sources(self, occ_csv, run_dir, tmp_path,
                                                  capsys, edit):
        # The leaves still number five, so replay would run on the wrong
        # columns if only their count were checked.
        tree = json.loads((run_dir / "tree.json").read_text())
        tree["leaves"] = edit(tree["leaves"])
        (run_dir / "tree.json").write_text(json.dumps(tree))
        assert self.evaluate(occ_csv, run_dir, tmp_path) == 3
        assert "configured sources" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.csv").exists()

    def test_truncated_tree(self, occ_csv, run_dir, tmp_path, capsys):
        data = (run_dir / "tree.json").read_bytes()
        (run_dir / "tree.json").write_bytes(data[: len(data) // 2])
        assert self.evaluate(occ_csv, run_dir, tmp_path) == 3
        assert "data error" in capsys.readouterr().err

    def test_manifest_without_input(self, occ_csv, run_dir, tmp_path, capsys):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        del manifest["input"]
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        assert self.evaluate(occ_csv, run_dir, tmp_path) == 3
        assert "'input'" in capsys.readouterr().err

    def test_manifest_digest_not_a_string(self, occ_csv, run_dir, tmp_path, capsys):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["input"]["sha256"] = 12
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        assert self.evaluate(occ_csv, run_dir, tmp_path) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [0, -1, 7])
    def test_manifest_noise_count_out_of_range(self, occ_csv, tmp_path, capsys, count):
        # the run has 5 CSV sources and 2 noise channels: 1..6 could be noise
        run_dir = tmp_path / "noisy"
        assert main(["inject-noise", "--input", str(occ_csv), *COMMON,
                     "--noise-count", "2", "--seed", "11", "--out", str(run_dir)]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["noise"]["count"] = count
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        assert self.evaluate(occ_csv, run_dir, tmp_path) == 3
        assert "noise count" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("count", 1.5),
        ("count", True),
        ("count", "2"),
        ("seed", 11.7),
        ("seed", "11"),
    ])
    def test_manifest_noise_not_an_integer(self, occ_csv, tmp_path, capsys, key, value):
        # 1.5 and true once read as a count of 1 (exit 2, noise_1 not found),
        # and a seed of 11.7 as 11 (exit 0)
        run_dir = tmp_path / "noisy"
        assert main(["inject-noise", "--input", str(occ_csv), *COMMON,
                     "--noise-count", "2", "--seed", "11", "--out", str(run_dir)]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["noise"][key] = value
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert self.evaluate(occ_csv, run_dir, tmp_path) == 3
        assert f"noise {key} {value!r} is not an integer" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("alphabet", 3.5),
        ("depth", 1.0),
        ("seed", "0"),
        ("target_column", 7),
        ("source_columns", "CO"),
        ("source_columns", ["Temperature", 2]),
        # a JSON boolean once ran as 1 or 0, and a train fraction of true
        # was reported as a configuration error
        ("depth", True),
        ("stop_at", True),
        ("seed", False),
        ("train_fraction", True),
        # a null or missing key once took its default: a null fused
        # alphabet became the source alphabet and changed report.csv
        ("fused_alphabet", None),
        ("fused_alphabet", REMOVED),
        ("target_kind", REMOVED),
        ("color", "red"),
    ])
    def test_manifest_config_of_wrong_type(self, occ_csv, run_dir, tmp_path, capsys,
                                           field, value):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        if value is REMOVED:
            del manifest["config"][field]
        else:
            manifest["config"][field] = value
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        assert self.evaluate(occ_csv, run_dir, tmp_path) == 3
        assert "malformed entry" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, code, message", [
        # a negative noise seed was refused by numpy only after --out existed
        (None, 2, "configuration error: seed must be >= 0"),
        # a noise block that does not give the config's trailing noise
        # sources, or gives a negative seed, exited 2 (noise_1 not found, or
        # numpy's message), and another seed made other noise with exit 0
        (lambda m: m.update(noise=None), 3, "configures column 'noise_1'"),
        (lambda m: m.pop("noise"), 3, "configures column 'noise_1'"),
        (lambda m: m.update(noise=False), 3, "malformed entry"),
        (lambda m: m.update(noise={}), 3, "lacks the entry 'count'"),
        (lambda m: m["noise"].update(count=1), 3, "noise count 1 does not match"),
        (lambda m: m["noise"].update(seed=-1), 3,
         "noise seed -1 is not the configured seed 11"),
        (lambda m: m["noise"].update(seed=12), 3,
         "noise seed 12 is not the configured seed 11"),
        (lambda m: m["config"].update(seed=-1), 3, "seed must be >= 0"),
        # the digest matched, so a column the input lacks is the manifest's fault
        (lambda m: m["config"]["source_columns"].__setitem__(0, "Temp"), 3,
         "configures column 'Temp'"),
    ], ids=["flag-seed", "noise-null", "noise-removed", "noise-false", "noise-empty",
            "noise-count", "noise-seed", "noise-other-seed", "config-seed",
            "renamed-column"])
    def test_noise_and_column_faults(self, occ_csv, tmp_path, capsys, edit, code,
                                     message):
        run_dir, out = tmp_path / "noisy", tmp_path / "eval"
        inject = ["inject-noise", "--input", str(occ_csv), *COMMON, "--noise-count", "2"]
        if edit is None:
            argv = [*inject, "--seed", "-1", "--out", str(out)]
        else:
            assert main([*inject, "--seed", "11", "--out", str(run_dir)]) == 0
            manifest = json.loads((run_dir / "manifest.json").read_text())
            edit(manifest)
            (run_dir / "manifest.json").write_text(json.dumps(manifest))
            argv = ["evaluate", "--input", str(occ_csv), "--tree", str(run_dir),
                    "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("train_fraction", 1),
        ("target_kind", "discrete"),
    ])
    def test_stored_config_that_cannot_be_evaluated(self, occ_csv, tmp_path, capsys,
                                                    field, value):
        # both exited 2, as if a flag had given the value
        run_dir, out = tmp_path / "run", tmp_path / "eval"
        assert run_cluster(occ_csv, run_dir, CONTINUOUS) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["config"][field] = value
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["evaluate", "--input", str(occ_csv), "--tree", str(run_dir),
                     "--out", str(out)]) == 3
        assert f"{run_dir / 'manifest.json'} configures a run" in capsys.readouterr().err
        assert not out.exists()

    def test_score_not_a_number(self, run_dir, tmp_path, capsys):
        tree = json.loads((run_dir / "tree.json").read_text())
        tree["merges"][0]["score"] = "x"
        (run_dir / "tree.json").write_text(json.dumps(tree))
        assert main(["export-tree", "--tree", str(run_dir / "tree.json"),
                     "--format", "dot", "--out", str(tmp_path / "export")]) == 3
        assert "data error" in capsys.readouterr().err


def _edit_manifest(run_dir, edit):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    edit(manifest)
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def _forge_digest(run_dir, data):
    """Record ``data``'s SHA-256 as dataset.f64's digest in the manifest."""
    _edit_manifest(run_dir, lambda m: m["dataset"].update(
        sha256=hashlib.sha256(data).hexdigest()))


def _flip_byte_100(run_dir, path):
    data = bytearray(path.read_bytes())
    data[100] ^= 1
    path.write_bytes(bytes(data))


def _nan_at_row_3(run_dir, path):
    values = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    values[3] = np.nan
    path.write_bytes(values.tobytes())
    _forge_digest(run_dir, path.read_bytes())


# (how dataset.f64 or the manifest is damaged, a part of the message)
DATASET_FAULTS = {
    "missing": (lambda run, path: path.unlink(), "No such file or directory"),
    "truncated": (lambda run, path: path.write_bytes(path.read_bytes()[:-8]),
                  "bytes, not 6 columns of"),
    "emptied": (lambda run, path: path.write_bytes(b""), "holds 0 bytes, not 6 columns"),
    "byte-flipped": (_flip_byte_100, "the manifest records"),
    "directory": (lambda run, path: (path.unlink(), path.mkdir()), "Is a directory"),
    "digest-edited": (lambda run, path: _forge_digest(run, b"other"),
                      "the manifest records"),
    "rows-edited": (lambda run, path: _edit_manifest(
        run, lambda m: m["input"].update(rows=m["input"]["rows"] - 1)),
        "bytes, not 6 columns of"),
    "rows-not-an-integer": (lambda run, path: _edit_manifest(
        run, lambda m: m["input"].update(rows=float(m["input"]["rows"]))),
        "input rows"),
    "columns-edited": (lambda run, path: _edit_manifest(
        run, lambda m: m["dataset"]["columns"].reverse()),
        "records dataset columns"),
    "nan-forged": (_nan_at_row_3, "holds a value that is not finite"),
}


@pytest.mark.parametrize("fault", list(DATASET_FAULTS))
def test_damaged_dataset_file_exits_3(occ_csv, tmp_path, capsys, fault):
    # evaluate reads the columns cluster parsed from dataset.f64 and never
    # parses the CSV's rows, so any damage to the file or to what the
    # manifest records of it is a data error naming the file or manifest
    run_dir, out = tmp_path / "run", tmp_path / "eval"
    assert run_cluster(occ_csv, run_dir) == 0
    damage, message = DATASET_FAULTS[fault]
    damage(run_dir, run_dir / "dataset.f64")
    capsys.readouterr()
    assert main(["evaluate", "--input", str(occ_csv), "--tree", str(run_dir),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("tefuse: data error: ") and message in err
    assert "dataset.f64" in err or "manifest.json" in err
    assert not out.exists()


# the values a stored entry is set to; REMOVED deletes it
STORED_VALUES = [None, True, False, 0, -1, 1, 2, 1.5, 10**30, float("nan"), "x", "",
                 "discrete", [], {}, [0], REMOVED]


def _entry_paths(doc, path=()):
    """The key path of every entry of a JSON document, containers included."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield (*path, key)
        yield from _entry_paths(value, (*path, key))


@pytest.fixture(scope="module")
def stored_runs(tmp_path_factory):
    """A small CSV and, by name, the stored files of three runs of it: a
    discrete and a continuous target, and injected noise."""
    root = tmp_path_factory.mktemp("stored")
    csv = root / "occ.csv"
    write_dataset_csv(occupancy_like(n=1200, seed=3), csv)
    flags = ["--alphabet", "3", "--depth", "1"]
    runs = {"discrete": ["cluster", *COMMON[:4], *flags],
            "continuous": ["cluster", *CONTINUOUS, *flags],
            "noise": ["inject-noise", *COMMON[:4], *flags, "--noise-count", "2",
                      "--seed", "11"]}
    stored = {}
    for name, argv in runs.items():
        assert main([*argv, "--input", str(csv), "--out", str(root / name)]) == 0
        stored[name] = {f: (root / name / f).read_bytes()
                        for f in ("manifest.json", "tree.json", "dataset.f64")}
    return csv, stored


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_stored_entry_edit_exits_0_or_3(stored_runs, data):
    # any one entry of a stored manifest.json or tree.json (the manifest's
    # dataset block and input rows among them), set to a value of any JSON
    # type or deleted: evaluate succeeds or reports a data error, never a
    # configuration error or a traceback, and a failed run leaves no --out
    csv, stored = stored_runs
    run = data.draw(st.sampled_from(sorted(stored)))
    name = data.draw(st.sampled_from(["manifest.json", "tree.json"]))
    doc = json.loads(stored[run][name])
    *parents, key = data.draw(st.sampled_from(list(_entry_paths(doc))))
    value = data.draw(st.sampled_from(STORED_VALUES))
    container = doc
    for step in parents:
        container = container[step]
    if value is REMOVED:
        del container[key]
    else:
        container[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        run_dir, out = Path(tmp) / "run", Path(tmp) / "out"
        run_dir.mkdir()
        for file, data in stored[run].items():
            (run_dir / file).write_bytes(json.dumps(doc).encode() if file == name else data)
        code = main(["evaluate", "--input", str(csv), "--tree", str(run_dir),
                     "--out", str(out)])
        assert code in (0, 3), (run, name, parents, key, value)
        assert code == 0 or not out.exists()


class TestInjectNoise:
    def test_seven_leaf_tree_and_seed_determinism(self, occ_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["inject-noise", "--input", str(occ_csv), *COMMON,
                         "--noise-count", "2", "--seed", "11", "--out", str(out)])
            assert code == 0
        tree = json.loads((a / "tree.json").read_text())
        assert len(tree["leaves"]) == 7
        assert tree["leaves"][-2:] == ["noise_1", "noise_2"]
        assert (a / "tree.json").read_bytes() == (b / "tree.json").read_bytes()
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["noise"] == {"count": 2, "seed": 11}

    def test_different_seed_changes_tree_bytes(self, occ_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["inject-noise", "--input", str(occ_csv), *COMMON,
              "--noise-count", "2", "--seed", "11", "--out", str(a)])
        main(["inject-noise", "--input", str(occ_csv), *COMMON,
              "--noise-count", "2", "--seed", "12", "--out", str(b)])
        assert (a / "tree.json").read_bytes() != (b / "tree.json").read_bytes()

    def test_evaluate_reads_stored_noise(self, occ_csv, tmp_path):
        run_dir = tmp_path / "run"
        main(["inject-noise", "--input", str(occ_csv), *COMMON,
              "--noise-count", "2", "--seed", "11", "--out", str(run_dir)])
        code = main(["evaluate", "--input", str(occ_csv),
                     "--tree", str(run_dir), "--out", str(tmp_path / "eval")])
        assert code == 0
        lines = (tmp_path / "eval" / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + 7  # 7 leaves -> levels 0..6

    def test_single_channel_gives_six_leaves(self, occ_csv, tmp_path):
        out = tmp_path / "one"
        main(["inject-noise", "--input", str(occ_csv), *COMMON,
              "--noise-count", "1", "--seed", "5", "--out", str(out)])
        tree = json.loads((out / "tree.json").read_text())
        assert len(tree["leaves"]) == 6
        assert len(tree["merges"]) == 5

    def test_bad_noise_count(self, occ_csv, tmp_path):
        code = main(["inject-noise", "--input", str(occ_csv), *COMMON,
                     "--noise-count", "0", "--out", str(tmp_path / "x")])
        assert code == 2


class TestSymbolizeAndExport:
    def test_symbolize_outputs(self, occ_csv, tmp_path):
        out = tmp_path / "sym"
        assert main(["symbolize", "--input", str(occ_csv), *COMMON,
                     "--out", str(out)]) == 0
        lines = (out / "symbols.csv").read_text().splitlines()
        assert lines[0].split(",")[:2] == ["Temperature", "Humidity"]
        assert len(lines) == 1 + 2400
        symbols = {int(v) for line in lines[1:3] for v in line.split(",")}
        assert symbols <= set(range(4))
        partitions = json.loads((out / "partitions.json").read_text())
        assert set(partitions) == set(COMMON[3].split(","))
        assert all(len(p["edges"]) == 2 for p in partitions.values())

    def test_uniform_partitioner(self, occ_csv, tmp_path):
        out = tmp_path / "sym"
        assert main(["symbolize", "--input", str(occ_csv), *COMMON,
                     "--partitioner", "uniform", "--out", str(out)]) == 0
        partitions = json.loads((out / "partitions.json").read_text())
        assert all(p["kind"] == "uniform" for p in partitions.values())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["partitioner"] == "uniform"

    def test_export_tree_dot(self, occ_csv, tmp_path):
        run_dir, out = tmp_path / "run", tmp_path / "export"
        run_cluster(occ_csv, run_dir)
        assert main(["export-tree", "--tree", str(run_dir / "tree.json"),
                     "--format", "dot", "--out", str(out)]) == 0
        assert (out / "tree.dot").read_bytes() == (run_dir / "tree.dot").read_bytes()
        manifest = json.loads((out / "export_manifest.json").read_text())
        assert manifest["format"] == "dot"

    def test_export_tree_json_round_trip(self, occ_csv, tmp_path):
        run_dir, out = tmp_path / "run", tmp_path / "export"
        run_cluster(occ_csv, run_dir)
        main(["export-tree", "--tree", str(run_dir / "tree.json"),
              "--format", "json", "--out", str(out)])
        assert (out / "tree.json").read_bytes() == (run_dir / "tree.json").read_bytes()


@pytest.mark.parametrize("argv", [
    lambda csv, run, tmp: ["cluster", "--input", str(tmp), *COMMON,
                           "--out", str(tmp / "x")],
    lambda csv, run, tmp: ["cluster", "--input", str(csv), "--config", str(tmp),
                           *COMMON, "--out", str(tmp / "x")],
    lambda csv, run, tmp: ["cluster", "--input", str(csv), *COMMON,
                           "--out", str(run / "tree.json")],
    lambda csv, run, tmp: ["export-tree", "--tree", str(run), "--out", str(tmp / "x")],
    lambda csv, run, tmp: ["evaluate", "--input", str(csv),
                           "--tree", str(run / "tree.json"), "--out", str(tmp / "x")],
], ids=["input-is-dir", "config-is-dir", "out-is-file", "export-tree-is-dir",
        "evaluate-tree-is-file"])
def test_unusable_path_is_data_error(occ_csv, tmp_path, capsys, argv):
    run_dir = tmp_path / "run"
    assert run_cluster(occ_csv, run_dir) == 0
    capsys.readouterr()
    assert main(argv(occ_csv, run_dir, tmp_path)) == 3
    assert capsys.readouterr().err.startswith("tefuse: data error: ")


# each command with an --out that the test replaces; {csv} and {run} are
# the input CSV and a finished cluster run directory
COMMANDS = {
    "cluster": ["cluster", "--input", "{csv}", *COMMON],
    "inject-noise": ["inject-noise", "--input", "{csv}", *COMMON, "--noise-count", "1"],
    "symbolize": ["symbolize", "--input", "{csv}", *COMMON],
    "evaluate": ["evaluate", "--input", "{csv}", "--tree", "{run}"],
    "export-tree": ["export-tree", "--tree", "{run}/tree.json"],
}


def _command(name, csv, run, out):
    return [a.format(csv=csv, run=run) for a in COMMANDS[name]] + ["--out", str(out)]


@pytest.mark.parametrize("name", [n for n in COMMANDS if n != "export-tree"])
def test_command_opens_input_once(occ_csv, tmp_path, opened, name):
    run_dir = tmp_path / "run"
    assert run_cluster(occ_csv, run_dir) == 0
    opened.clear()
    assert main(_command(name, occ_csv, run_dir, tmp_path / "out")) == 0
    assert opened.count(str(occ_csv)) == 1


@pytest.mark.parametrize("kind", ["file", "under-file", "dangling-link"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_out_is_file_fails_before_work(occ_csv, tmp_path, capsys, caplog, opened, name,
                                       kind):
    run_dir, taken = tmp_path / "run", tmp_path / "taken"
    assert run_cluster(occ_csv, run_dir) == 0
    with caplog.at_level(logging.INFO, logger="tefuse"):
        # the same command with a usable --out logs its work
        assert main(["--verbose", *_command(name, occ_csv, run_dir, tmp_path / "ok")]) == 0
        assert "wrote" in caplog.text
        assert name not in ("cluster", "inject-noise") or "level 1:" in caplog.text
        if kind == "dangling-link":
            taken.symlink_to(tmp_path / "nowhere")
        else:
            taken.write_text("not a directory\n")
        caplog.clear()
        capsys.readouterr()
        opened.clear()
        out = taken / "sub" if kind == "under-file" else taken
        assert main(["--verbose", *_command(name, occ_csv, run_dir, out)]) == 3
    assert capsys.readouterr().err.startswith("tefuse: data error: ")
    assert caplog.text == ""
    assert not (tmp_path / "nowhere").exists()
    assert kind == "dangling-link" or taken.read_text() == "not a directory\n"
    assert str(occ_csv) not in opened and str(run_dir / "tree.json") not in opened


@pytest.mark.parametrize("name", [n for n in COMMANDS if n != "export-tree"])
def test_config_error_creates_no_out(occ_csv, tmp_path, capsys, name):
    run_dir, out = tmp_path / "run", tmp_path / "out"
    assert run_cluster(occ_csv, run_dir) == 0
    argv = _command(name, occ_csv, run_dir, out)
    if name == "evaluate":
        (run_dir / "manifest.json").write_text("{}\n")
        code, message = 3, "lacks the entry"
    else:
        config = tmp_path / "bad.cfg"
        config.write_text("no_such_key = 1\n")
        argv += ["--config", str(config)]
        code, message = 2, "unknown configuration key"
    capsys.readouterr()
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


# Runs that once failed only after creating --out, each with one case per
# command it applies to: (command, flags of the stored run evaluate reads,
# flags, exit code, message). The input also has a column named noise_1.
FAILS_WITHOUT_OUT = [
    *[pytest.param(name, None, ["--sources", "Temperature,RATX"], 2,
                   "column 'RATX' not found", id=f"missing-column-{name}")
      for name in ("cluster", "inject-noise", "symbolize")],
    pytest.param("inject-noise", None, ["--sources", "Temperature,noise_1"], 2,
                 "source columns must be unique", id="noise-named-source-inject-noise"),
    *[pytest.param(name, None, [*CONTINUOUS, "--target-kind", "discrete"], 2,
                   "cannot be discrete", id=f"forced-discrete-{name}")
      for name in ("cluster", "inject-noise", "symbolize")],
    pytest.param("evaluate", CONTINUOUS, ["--target-kind", "discrete"], 2,
                 "cannot be discrete", id="forced-discrete-evaluate"),
    pytest.param("cluster", None, ["--sources", "Temperature"], 2,
                 "at least two source", id="one-source-cluster"),
    pytest.param("evaluate", ["--train-fraction", "1.0"], [], 3,
                 "no held-out rows", id="stored-train-fraction-1-evaluate"),
]


@pytest.fixture(scope="module")
def csv_with_noise_1(tmp_path_factory):
    data = occupancy_like(n=2400, seed=20)
    path = tmp_path_factory.mktemp("data") / "occ_noise_1.csv"
    write_dataset_csv(tefuse.Dataset(names=data.names + ("noise_1",),
                                     columns=data.columns + data.columns[:1],
                                     dropped_rows=data.dropped_rows), path)
    return path


@pytest.mark.parametrize("name, run_flags, flags, code, message", FAILS_WITHOUT_OUT)
def test_failed_run_leaves_no_out(csv_with_noise_1, tmp_path, capsys, name, run_flags,
                                  flags, code, message):
    run_dir, out = tmp_path / "run", tmp_path / "out"
    if run_flags is not None:
        assert run_cluster(csv_with_noise_1, run_dir, run_flags) == 0
    capsys.readouterr()
    assert main(_command(name, csv_with_noise_1, run_dir, out) + flags) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count, code, message", [
    (10**11, 3, "tefuse: data error: Unable to allocate"),
    (10**16, 2, "tefuse: configuration error: array is too big"),
])
def test_huge_noise_count_fails_before_naming_channels(tmp_path, capsys, monkeypatch,
                                                       count, code, message):
    # a count too large to allocate once built a name per channel before the
    # noise block was refused, and such a run was killed for want of memory
    names = cli.noise_columns

    def bounded(n):
        if n > 10**6:
            raise AssertionError(f"{n} channel names built")
        return names(n)

    for module in (cli, tefuse.ingest):
        monkeypatch.setattr(module, "noise_columns", bounded)
    i = np.arange(200)
    path, out = tmp_path / "small.csv", tmp_path / "out"
    write_dataset_csv(tefuse.Dataset(names=("a", "b", "y"),
                                     columns=(np.sin(i / 7), np.cos(i / 5), np.sin(i / 7 + 0.4))),
                      path)
    assert main(["inject-noise", "--input", str(path), "--target", "y", "--sources", "a,b",
                 "--noise-count", str(count), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def degenerate_csv(tmp_path_factory):
    """300 rows: ``a`` and ``y`` vary; ``b`` is constant, ``c`` takes two
    values and ``d`` three; ``y2`` takes two non-integer values and ``y3``
    the integers 0 and 1."""
    i = np.arange(300)
    columns = {"a": np.sin(i / 7) + i / 1000, "b": np.ones(300), "c": i % 2 + 0.25,
               "d": (i % 3).astype(float), "y": np.cos(i / 5) + i / 900,
               "y2": i % 2 + 0.5, "y3": (i // 4 % 2).astype(float)}
    path = tmp_path_factory.mktemp("data") / "degenerate.csv"
    write_dataset_csv(tefuse.Dataset(names=list(columns), columns=list(columns.values())),
                      path)
    return path


# A column too poor for its partition: (command, flags, message). The data
# error names the first such source in config order, or the target.
DEGENERATE_COLUMNS = [
    *[pytest.param(command, ["--target", "y", "--sources", sources], message,
                   id=f"{command}-source-{sources[2]}")
      for command in ("cluster", "symbolize")
      for sources, message in (
          ("a,b,c", "column 'b': need at least 5 distinct values for 5 bins, got 1"),
          ("a,c,b", "column 'c': need at least 5 distinct values for 5 bins, got 2"))],
    pytest.param("cluster", ["--target", "y", "--sources", "a,b,c", "--partitioner", "uniform"],
                 "column 'b': constant series cannot be uniformly partitioned",
                 id="cluster-uniform-source"),
    pytest.param("cluster", ["--target", "y2", "--sources", "a,d", "--alphabet", "3"],
                 "column 'y2': need at least 10 distinct values for 10 bins, got 2",
                 id="cluster-target"),
    # more bins than training rows: refused before any edge is allocated
    pytest.param("cluster", ["--target", "y", "--sources", "a", "--alphabet", str(10**18)],
                 f"column 'a': need at least {10**18} distinct values for {10**18} bins, "
                 "got 210", id="cluster-huge-alphabet"),
    pytest.param("cluster", ["--target", "y", "--sources", "a",
                             "--target-alphabet", str(10**18)],
                 f"column 'y': need at least {10**18} distinct values for {10**18} bins, "
                 "got 210", id="cluster-huge-target-alphabet"),
]


@pytest.mark.parametrize("command, flags, message", DEGENERATE_COLUMNS)
def test_degenerate_column_is_named(degenerate_csv, tmp_path, capsys, command, flags,
                                    message):
    out = tmp_path / "out"
    assert main([command, "--input", str(degenerate_csv), *flags, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"tefuse: data error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("edit, flags, message", [
    # a stored alphabet above d's three values
    (lambda config: config.update(alphabet=4), [],
     "column 'd': need at least 4 distinct values for 4 bins, got 3"),
    # a two-valued class target read as a continuous one
    (lambda config: None, ["--target-kind", "continuous"],
     "column 'y3': need at least 10 distinct values for 10 bins, got 2"),
], ids=["source", "target"])
def test_evaluate_names_degenerate_column(degenerate_csv, tmp_path, capsys, edit, flags,
                                          message):
    run_dir, out = tmp_path / "run", tmp_path / "out"
    assert main(["cluster", "--input", str(degenerate_csv), "--target", "y3",
                 "--sources", "a,d", "--alphabet", "3", "--out", str(run_dir)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    edit(manifest["config"])
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["evaluate", "--input", str(degenerate_csv), "--tree", str(run_dir),
                 *flags, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"tefuse: data error: {message}\n"
    assert not out.exists()


def test_uniform_edges_past_memory_are_a_data_error(degenerate_csv, tmp_path, capsys):
    # 10**18 - 1 uniform edges take 8 EiB, more than any 64-bit address
    # space, so the allocation is refused without touching memory
    out = tmp_path / "out"
    assert main(["cluster", "--input", str(degenerate_csv), "--target", "y",
                 "--sources", "a", "--partitioner", "uniform", "--alphabet", str(10**18),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("tefuse: data error: Unable to allocate")
    assert not out.exists()


# per configuration key, values of the wrong sign or type: argparse refuses
# a number that does not parse, RunConfig every other value
BAD_FLAG_VALUES = {
    "target": ["Temperature"],  # also a source
    "sources": ["Temperature,Temperature", "Occupancy,CO2"],
    "alphabet": ["-3", "1", "2.5"],
    "target_alphabet": ["-2", "x"],
    "depth": ["-1", "1.0"],
    "fused_alphabet": ["-3", "3.0"],
    "stop_at": ["-1", "0", "1e3"],
    "train_fraction": ["-0.5", "1.5", "half"],
    "seed": ["-1", "0.5"],
    "partitioner": ["MEP", ""],
    "target_kind": ["-discrete", "1"],
}


@pytest.mark.parametrize("key", list(_CONFIG_FLAGS))
def test_bad_flag_value_is_config_error_and_creates_no_out(occ_csv, tmp_path, capsys,
                                                           key):
    common = [arg for k, v in CONFIG_VALUES.items() if k != key for arg in (_flag(k), v)]
    for command, extra in (("cluster", []), ("inject-noise", ["--noise-count", "1"]),
                           ("symbolize", [])):
        for value in BAD_FLAG_VALUES[key]:
            out = tmp_path / "out"
            try:
                code = main([command, "--input", str(occ_csv), *common, *extra,
                             f"{_flag(key)}={value}", "--out", str(out)])
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
            assert code == 2, (command, value, capsys.readouterr().err)
            assert not out.exists(), (command, value)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("error", [tefuse.PipelineError, *_subclasses(tefuse.PipelineError)],
                         ids=lambda cls: cls.__name__)
def test_exit_code_follows_error_class(tmp_path, capsys, monkeypatch, error):
    # every package error is a data error (exit 3) but a missing column,
    # which the configuration names (exit 2)
    def command(args):
        raise error("x")

    monkeypatch.setattr(cli, "cmd_export_tree", command)
    code = main(["export-tree", "--tree", str(tmp_path / "tree.json"),
                 "--out", str(tmp_path / "out")])
    if error is tefuse.MissingColumn:
        assert (code, capsys.readouterr().err) == (
            2, "tefuse: configuration error: column 'x' not found in header\n")
    else:
        assert (code, capsys.readouterr().err) == (3, "tefuse: data error: x\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cluster"])  # missing required flags
    assert info.value.code == 2


@pytest.mark.parametrize("command, argv", [
    # read as --target-kind discrete, this would score the tree with exit 0
    ("evaluate", ["--target", "discrete"]),
    # read as --alphabet 3, this would cluster with exit 0
    ("cluster", [*COMMON[:4], "--alph", "3"]),
], ids=["evaluate-target", "cluster-alph"])
def test_an_abbreviated_option_exits_2_and_leaves_no_out(occ_csv, tmp_path, capsys,
                                                         command, argv):
    tree = tmp_path / "run"
    assert run_cluster(occ_csv, tree) == 0
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([command, "--input", str(occ_csv), *(["--tree", str(tree)] * (command == "evaluate")),
              *argv, "--out", str(out)])
    assert info.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
    assert not out.exists()


# The option strings each command accepts, recorded before --out and the
# run options moved into shared parent parsers, and the least argv each
# command parses with.
RUN_OPTIONS = {"--input", "--config", "--target", "--sources", "--alphabet",
               "--target-alphabet", "--depth", "--fused-alphabet", "--stop-at",
               "--train-fraction", "--seed", "--partitioner", "--target-kind"}
COMMAND_OPTIONS = {
    "cluster": (RUN_OPTIONS | {"--out"}, ["--input", "x.csv", "--out", "o"]),
    "inject-noise": (RUN_OPTIONS | {"--noise-count", "--out"},
                     ["--input", "x.csv", "--noise-count", "1", "--out", "o"]),
    "evaluate": ({"--input", "--tree", "--target-kind", "--out"},
                 ["--input", "x.csv", "--tree", "t", "--out", "o"]),
    "symbolize": (RUN_OPTIONS | {"--out"}, ["--input", "x.csv", "--out", "o"]),
    "export-tree": ({"--tree", "--format", "--out"}, ["--tree", "t.json", "--out", "o"]),
}
OPTION_VALUES = {"--format": "json", "--partitioner": "mep"}


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_each_command_accepts_its_recorded_options(capsys, command):
    accepted, least = COMMAND_OPTIONS[command]
    parser = cli.build_parser()

    def code(argv):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code
        return 0

    # every option some command takes: this command parses exactly its own
    # (evaluate refuses --alphabet and export-tree --input), and a prefix of
    # one of them, which argparse would take as an abbreviation, exits 2
    # (evaluate's --target is no --target-kind)
    for option in sorted(set().union(*(o for o, _ in COMMAND_OPTIONS.values()))):
        argv = [command, *least, option, OPTION_VALUES.get(option, "1")]
        assert code(argv) == (0 if option in accepted else 2), option
    for option in sorted(accepted):
        for end in range(3, len(option)):
            argv = [command, *least, option[:end], OPTION_VALUES.get(option, "1")]
            if option[:end] not in accepted:
                assert code(argv) == 2, option[:end]
    assert code(["--verb", command, *least]) == code(["--thr", "2", command, *least]) == 2
    # the least argv needs each of its options
    assert code([command, *least]) == 0
    for index in range(0, len(least), 2):
        assert code([command, *least[:index], *least[index + 2:]]) == 2
    capsys.readouterr()
    # --help lists each option, and no other
    assert code([command, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == accepted | {"--help"}


def _argparse_vars(argv):
    """argparse's namespace for ``argv`` as a dict, or None where it exits
    (with usage and help text swallowed)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


def _same_vars(a, b):
    # of one type (True is no 1), and NaN, which --train-fraction parses,
    # equals only itself as an object
    return a.keys() == b.keys() and all(
        type(a[k]) is type(b[k]) and (a[k] == b[k] or a[k] != a[k] and b[k] != b[k])
        for k in a)


def _valid_values(entry):
    _, _, parse, _, choices, _, _ = entry
    if choices is not None:
        return st.sampled_from(choices)
    if parse is int:
        return st.integers(0, 99).map(str)
    if parse is float:
        return st.sampled_from(["0.5", "0.7", "1", "1e-1", " 0.3 ", "nan", "inf"])
    return st.text(alphabet="ab,. =x-", max_size=5).filter(lambda v: not v.startswith("-"))


# values some flag refuses or only argparse takes: no number, outside
# --format's choices, empty, dash-leading
OTHER_VALUES = st.sampled_from(["x", "1.5", "png", "", "-1", "-x", "1e400", "a b"])


def _any_values(entry):
    return st.one_of(_valid_values(entry), OTHER_VALUES)


@st.composite
def well_formed_lines(draw, values=_valid_values):
    """``[--verbose | --threads INT]* COMMAND (--flag VALUE)*``: each of the
    command's required flags at least once, any of its flags repeated, each
    value drawn from ``values(entry)``."""
    argv = []
    for entry in draw(st.lists(st.sampled_from(cli._TOP), max_size=3)):
        argv += [entry[0]] if entry[2] is None else [entry[0], draw(values(entry))]
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[command][1]
    chosen = [entry for entry in options if entry[3]]
    chosen += draw(st.lists(st.sampled_from(options), max_size=4))
    argv.append(command)
    for entry in draw(st.permutations(chosen)):
        argv += [entry[0], draw(values(entry))]
    return argv


# what a mutation inserts or writes over a token: help, "--", unknown
# commands and flags, prefixes and "=" forms of flags, flags of the wrong
# level, negative numbers, empty and dash-leading values
NOISE = st.one_of(
    st.sampled_from(["-h", "--help", "--", "-", "", "--bogus", "-1", "-0.5", "bogus",
                     "x", "1.5", "1e400", "png", "cluster", "export-tree", "--verbose",
                     "--threads", "--verbose=1", "--threads=2"]),
    st.sampled_from(sorted({entry[0] for _, options in cli._COMMANDS.values()
                            for entry in options})).flatmap(
        lambda flag: st.sampled_from([flag, flag[:-1], flag[:4], flag + "=1",
                                      flag + "=json"]))
)


@st.composite
def command_lines(draw):
    """A line of the well-formed shape, whose values need not parse, with up
    to three tokens inserted, deleted or overwritten."""
    argv = draw(well_formed_lines(_any_values))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        how = draw(st.sampled_from(["insert", "delete", "replace"]))
        if how == "insert":
            argv.insert(at, draw(NOISE))
        elif at < len(argv):
            if how == "delete":
                del argv[at]
            else:
                argv[at] = draw(NOISE)
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=command_lines())
def test_fast_path_agrees_with_argparse(argv):
    # the fast path returns None for every line argparse refuses or prints
    # help for, and argparse's namespace, or None, for the others
    expected, got = _argparse_vars(argv), cli._fast_parse(argv)
    if expected is None:
        assert got is None
    elif got is not None:
        assert _same_vars(vars(got), expected)


@settings(max_examples=200, deadline=None)
@given(argv=well_formed_lines())
def test_fast_path_takes_every_well_formed_line(argv):
    got, expected = cli._fast_parse(argv), _argparse_vars(argv)
    assert got is not None and expected is not None
    assert _same_vars(vars(got), expected)


def _readme_commands():
    """Each ``tefuse ...`` line of README's CLI section, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("tefuse ")]


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


def test_fast_path_takes_readme_and_benchmark_lines():
    # the benchmark times these lines, so the saving rests on each of them
    # skipping argparse
    argvs = _readme_commands()
    assert len(argvs) == 5
    for workload in _workloads().values():
        argvs.append(workload.cluster_argv(Path("in.csv"), Path("tree"), 0))
        argvs.append(workload.evaluate_argv(Path("in.csv"), Path("tree"), Path("eval")))
    for argv in argvs:
        got = cli._fast_parse(argv)
        assert got is not None, argv
        assert _same_vars(vars(got), _argparse_vars(argv)), argv


# two calls to main in one fresh interpreter, each marked on stderr
VERBOSE_SCRIPT = """
import sys
from tefuse.cli import main
tree, out = sys.argv[1:3]
for n, flag in enumerate(sys.argv[3:]):
    print(f"call {n}", file=sys.stderr, flush=True)
    code = main([*([flag] if flag else []), "export-tree", "--tree", tree,
                 "--out", f"{out}/{n}"])
    assert code == 0
"""


@pytest.mark.parametrize("flags", [["", "--verbose"], ["--verbose", ""]],
                         ids=["plain-then-verbose", "verbose-then-plain"])
def test_verbose_applies_to_each_call(occ_csv, tmp_path, flags):
    # logging.basicConfig sets a level only on its first call in a process,
    # so each main sets the tefuse logger's level from its own --verbose
    assert run_cluster(occ_csv, tmp_path / "run") == 0
    src = str(Path(tefuse.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", VERBOSE_SCRIPT, str(tmp_path / "run" / "tree.json"),
         str(tmp_path / "out"), *flags],
        env=env, capture_output=True, text=True, check=True)
    calls = re.split(r"call \d\n", done.stderr)[1:]
    assert len(calls) == 2
    for flag, err in zip(flags, calls):
        wrote = [line for line in err.splitlines()
                 if line.startswith("INFO tefuse.cli: wrote ")]
        assert len(wrote) == (2 if flag else 0), (flag, err)
        assert len(err.splitlines()) == len(wrote), err


# cluster, then evaluate, in one process: does either import numpy.ma?
MASKED_IMPORT_SCRIPT = """
import json, sys
import numpy
with_numpy = "numpy.ma" in sys.modules
from tefuse.cli import main
csv, out, target, sources = sys.argv[1:]
common = ["--input", csv, "--target", target, "--sources", sources,
          "--alphabet", "4", "--depth", "2", "--target-alphabet", "5"]
codes = [main(["cluster", *common, "--out", out]),
         main(["evaluate", "--input", csv, "--tree", out, "--out", out + "/ev"])]
print(json.dumps({"with_numpy": with_numpy, "codes": codes,
                  "masked": "numpy.ma" in sys.modules}))
"""


@pytest.mark.parametrize("make, target, sources, metric", [
    (lambda: ahu_like(n=600, seed=40), AHU_TARGET, AHU_SOURCES, "rmse"),
    (lambda: occupancy_like(n=4000, seed=20), OCC_TARGET, OCC_SOURCES, "accuracy"),
], ids=["continuous", "discrete"])
def test_cluster_and_evaluate_do_not_import_numpy_ma(tmp_path, make, target, sources,
                                                     metric):
    # numpy 2 imports numpy.ma lazily, at a cost of 10-25 ms per process, on
    # a bare np.unique or np.median; a continuous target takes the median
    # path, a discrete one the class-label path
    csv = tmp_path / "data.csv"
    write_dataset_csv(make(), csv)
    src = str(Path(tefuse.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", MASKED_IMPORT_SCRIPT, str(csv), str(tmp_path / "run"),
         target, ",".join(sources)],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    if result["with_numpy"]:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert not result["masked"]
    assert (tmp_path / "run" / "ev" / "report.csv").read_text().count(metric) == len(sources)


# import tefuse.cli, cluster, evaluate, then inject-noise: when is each of
# numpy.random, dataclasses and argparse's modules loaded? Then which are
# loaded after a usage error?
IMPORTS_SCRIPT = """
import json, sys
import numpy
names = ("numpy.random", "dataclasses", "argparse", "gettext", "locale")
with_numpy = {name: name in sys.modules for name in names}
loaded = {name: [] for name in names}
def record():
    for name in names:
        loaded[name].append(name in sys.modules)
from tefuse.cli import main
record()
csv, out, target, sources = sys.argv[1:]
common = ["--input", csv, "--target", target, "--sources", sources,
          "--alphabet", "4", "--depth", "1"]
codes = [main(["cluster", *common, "--out", out + "/plain"])]
record()
codes.append(main(["evaluate", "--input", csv, "--tree", out + "/plain",
                   "--out", out + "/evaluated"]))
record()
codes.append(main(["inject-noise", *common, "--noise-count", "1", "--out", out + "/noisy"]))
record()
try:
    main(["cluster", *common])
except SystemExit as exc:
    usage_exit = exc.code
usage_error = {name: name in sys.modules for name in names}
print(json.dumps({"with_numpy": with_numpy, "codes": codes, "loaded": loaded,
                  "usage_exit": usage_exit, "usage_error": usage_error}))
"""


@pytest.fixture(scope="module")
def fresh_imports(tmp_path_factory):
    """What IMPORTS_SCRIPT reports from a fresh interpreter, run once."""
    tmp_path = tmp_path_factory.mktemp("imports")
    csv = tmp_path / "data.csv"
    write_dataset_csv(ahu_like(n=600, seed=40), csv)
    src = str(Path(tefuse.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", IMPORTS_SCRIPT, str(csv), str(tmp_path / "run"),
         AHU_TARGET, ",".join(AHU_SOURCES)],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    return result


def test_import_and_plain_cluster_do_not_import_numpy_random(fresh_imports):
    # importing numpy.random costs 7-10 ms per process; only injected noise
    # needs it, so a module-level np.random would add that to every command,
    # and evaluating a plain tree regenerates no noise
    if fresh_imports["with_numpy"]["numpy.random"]:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    # not after the import, the plain cluster nor its evaluation; the noise
    # run shows the check would see it
    assert fresh_imports["loaded"]["numpy.random"] == [False, False, False, True]


# evaluate alone in a fresh interpreter: does it load numpy.random?
EVALUATE_IMPORTS_SCRIPT = """
import json, sys
import numpy
with_numpy = "numpy.random" in sys.modules
from tefuse.cli import main
csv, tree, out = sys.argv[1:]
code = main(["evaluate", "--input", csv, "--tree", tree, "--out", out])
print(json.dumps({"with_numpy": with_numpy, "code": code,
                  "loaded": "numpy.random" in sys.modules}))
"""


def test_evaluating_injected_noise_does_not_import_numpy_random(occ_csv, tmp_path):
    # the noise channels come back from dataset.f64, not from the seed, so
    # evaluating an inject-noise tree skips numpy.random's import as well
    run_dir = tmp_path / "noisy"
    assert main(["inject-noise", "--input", str(occ_csv), *COMMON, "--noise-count", "2",
                 "--out", str(run_dir)]) == 0
    src = str(Path(tefuse.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", EVALUATE_IMPORTS_SCRIPT, str(occ_csv), str(run_dir),
         str(tmp_path / "eval")],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert len((tmp_path / "eval" / "report.csv").read_text().splitlines()) == 1 + 7
    if result["with_numpy"]:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert not result["loaded"]


def test_import_cluster_and_evaluate_do_not_import_dataclasses(fresh_imports):
    # the package's records are plain __slots__ classes: creating dataclasses
    # cost about 7 ms of every command's import, and the dataclasses module
    # 1 ms more, which nothing else a command loads pays for
    if fresh_imports["with_numpy"]["dataclasses"]:
        pytest.skip("this numpy imports dataclasses with numpy itself")
    assert fresh_imports["loaded"]["dataclasses"][:3] == [False, False, False]


@pytest.mark.parametrize("name", ["argparse", "gettext", "locale"])
def test_commands_do_not_import_argparse(fresh_imports, name):
    # argparse's first parser cost about 5 ms per process on a 2-vCPU host
    # (gettext's import of locale, regex compiles, a help formatter per
    # option); a well-formed command line takes the fast path and loads
    # none of them
    if fresh_imports["with_numpy"][name]:
        pytest.skip(f"this interpreter loads {name} before tefuse")
    assert fresh_imports["loaded"][name] == [False, False, False, False]
    # a usage error (no --out) builds the parser: the check would see it
    assert fresh_imports["usage_exit"] == 2
    assert fresh_imports["usage_error"][name]
