import builtins
import dataclasses
import hashlib
import io
import json
import logging
import os
import pathlib
import subprocess
import sys
from pathlib import Path

import pytest

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
        # 5 singles + 10 pairs, then the new node alone and with each other node
        assert manifest["te_computed"] == [15, 4, 3, 2]
        assert manifest["config"]["alphabet"] == 3
        assert "sha256" in manifest["input"]

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
        defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        for key, (field, _, _) in _CONFIG_FLAGS.items():
            # argparse's line for a flag: "--key KEY help", up to the next flag
            _, _, entry = text.partition(f"{_flag(key)} {key.upper()} ")
            entry = entry.split(" --")[0]
            assert entry
            if defaults[field] not in (dataclasses.MISSING, None):
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
        assert not (eval_dir / "report.csv").exists()

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

    def test_score_not_a_number(self, run_dir, tmp_path, capsys):
        tree = json.loads((run_dir / "tree.json").read_text())
        tree["merges"][0]["score"] = "x"
        (run_dir / "tree.json").write_text(json.dumps(tree))
        assert main(["export-tree", "--tree", str(run_dir / "tree.json"),
                     "--format", "dot", "--out", str(tmp_path / "export")]) == 3
        assert "data error" in capsys.readouterr().err


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

    def test_evaluate_regenerates_noise(self, occ_csv, tmp_path):
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


@pytest.mark.parametrize("name", list(COMMANDS))
def test_out_is_file_fails_before_work(occ_csv, tmp_path, capsys, caplog, opened, name):
    run_dir, taken = tmp_path / "run", tmp_path / "taken"
    assert run_cluster(occ_csv, run_dir) == 0
    with caplog.at_level(logging.INFO, logger="tefuse"):
        # the same command with a usable --out logs its work
        assert main(["--verbose", *_command(name, occ_csv, run_dir, tmp_path / "ok")]) == 0
        assert "wrote" in caplog.text
        assert name not in ("cluster", "inject-noise") or "level 1:" in caplog.text
        taken.write_text("not a directory\n")
        caplog.clear()
        capsys.readouterr()
        opened.clear()
        assert main(["--verbose", *_command(name, occ_csv, run_dir, taken)]) == 3
    assert capsys.readouterr().err.startswith("tefuse: data error: ")
    assert caplog.text == ""
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
