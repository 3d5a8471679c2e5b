"""Command line front end for the fusion pipeline.

Commands:
    symbolize     fit partitions on the training prefix, dump symbol streams
    cluster       run the fusion hierarchy end to end
    evaluate      per-level prediction quality for a stored tree
    inject-noise  append seeded standard-normal channels, then cluster
    export-tree   re-render a stored tree as JSON or DOT

Every command writes a manifest capturing the semantic configuration, an
input content digest, and library versions, so a run can be replayed and a
stored tree refuses to evaluate against tampered data. Outputs are
byte-identical across reruns and across --threads settings.

Each run option is declared once, in ``_CONFIG_FLAGS``: its RunConfig
field, the parser of its flag and config-file text, and its help; the
help's defaults are RunConfig's. RunConfig then checks flags, config files
and stored manifests alike.

Exit codes: 0 ok, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import (cluster, export_tree, fit_leaves, leaf_sequences, te_computed,
                         tree_from_json)
from .errors import MissingColumn, PipelineError, TreeDatasetMismatch
from .estimate import (evaluate_levels, predictions_csv, report_csv, report_json,
                       target_symbols)
from .ingest import (PARTITIONERS, TARGET_KINDS, RunConfig, append_noise_channels, load_csv,
                     read_config_file)
from .jsonout import _json_bytes, _parse_json

logger = logging.getLogger(__name__)

# Caught in this order: a MissingColumn is a configuration error, every
# other PipelineError a data error, as is an OSError (a missing, unreadable
# or mistyped path).
CONFIG_ERRORS = (ValueError, MissingColumn)
DATA_ERRORS = (PipelineError, OSError)

# Each run option, declared once: key -> (RunConfig field, parser, help).
# The flag is --key with "_" written as "-", and a --config file takes the
# key; both texts go through the parser, and RunConfig checks the result.
_CONFIG_FLAGS = {
    "target": ("target_column", str, "target column name"),
    "sources": ("source_columns", lambda s: tuple(p.strip() for p in s.split(",")),
                "comma-separated source column names"),
    "alphabet": ("alphabet", int, "symbols per source"),
    "target_alphabet": ("target_alphabet", int, "symbols for a continuous target"),
    "depth": ("depth", int, "embedded history length"),
    "fused_alphabet": ("fused_alphabet", int,
                       "symbols after repartitioning a fused pair; unset, the "
                       "source alphabet"),
    "stop_at": ("stop_at", int, "stop when this many supernodes remain"),
    "train_fraction": ("train_fraction", float, "contiguous training prefix fraction"),
    "seed": ("seed", int, "noise-injection seed"),
    "partitioner": ("partitioner", str,
                    f"source partitioning scheme: {', '.join(PARTITIONERS)}"),
    "target_kind": ("target_kind", str,
                    "treat the target as class labels or as a continuous series: "
                    f"{', '.join(TARGET_KINDS)}; discrete needs integer values"),
}

# RunConfig's field defaults; an option whose field has none is required.
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)
             if f.default is not dataclasses.MISSING}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_input(args, config: RunConfig, expected: str | None = None):
    """Read ``--input`` once: the SHA-256 of its bytes and the dataset
    parsed from the same bytes.

    The bytes are hashed before they are parsed. A digest other than
    ``expected`` raises :class:`TreeDatasetMismatch` without a parse, so
    the wrong file is named as such rather than by its first flaw.
    """
    data = Path(args.input).read_bytes()
    digest = _sha256(data)
    if expected is not None and digest != expected:
        raise TreeDatasetMismatch(
            f"{args.input} has digest {digest[:12]}..., tree was built from "
            f"{expected[:12]}..."
        )
    return digest, load_csv(args.input, config, data=data)


def _write(path: Path, data: bytes) -> None:
    path.write_bytes(data)
    logger.info("wrote %s (%d bytes)", path, len(data))


def _build_config(args) -> RunConfig:
    """Merge the key=value config file (if any) with CLI flags; flags win.
    argparse has parsed the flags; file text goes through the same parsers."""
    values: dict = {}
    if args.config:
        for key, raw in read_config_file(args.config).items():
            if key not in _CONFIG_FLAGS:
                raise ValueError(f"unknown configuration key {key!r} in {args.config}")
            field, parse, _ = _CONFIG_FLAGS[key]
            values[field] = parse(raw)
    for key, (field, _, _) in _CONFIG_FLAGS.items():
        if getattr(args, key) is not None:
            values[field] = getattr(args, key)
        elif field not in values and field not in _DEFAULTS:
            raise ValueError(f"{_flag(key)} is required (flag or config file)")
    return RunConfig(**values)


def _versions() -> dict:
    return {
        "tefuse": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _manifest(command: str, args, digest: str, config: RunConfig, dataset,
              extra: dict) -> bytes:
    doc = {
        "command": command,
        "input": {
            "path": str(args.input),
            "sha256": digest,
            "rows": dataset.n,
            "rows_dropped": dataset.dropped_rows,
        },
        "config": config.to_dict(),
    }
    doc.update(extra)
    doc["versions"] = _versions()
    return _json_bytes(doc)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_cluster(args, noise_count: int = 0) -> int:
    config = _build_config(args)
    out = _out_dir(args)
    digest, dataset = _load_input(args, config)
    noise = None
    if noise_count:
        dataset = append_noise_channels(dataset, noise_count, config.seed)
        config = dataclasses.replace(
            config, source_columns=config.source_columns + dataset.names[-noise_count:])
        noise = {"count": noise_count, "seed": config.seed}

    leaves = leaf_sequences(dataset, config)
    target_seq, kind, _, _ = target_symbols(dataset, config)
    tree = cluster(leaves, target_seq, config)

    extra = {"noise": noise, "target_kind_resolved": kind,
             "candidate_evaluations": [len(m.all_candidate_scores) for m in tree.merges],
             "te_computed": te_computed(tree)}
    _write(out / "tree.json", export_tree(tree, "json"))
    _write(out / "tree.dot", export_tree(tree, "dot"))
    _write(out / "manifest.json",
           _manifest("cluster", args, digest, config, dataset, extra))
    return 0


def cmd_inject_noise(args) -> int:
    if args.noise_count < 1:
        raise ValueError("--noise-count must be >= 1")
    return cmd_cluster(args, noise_count=args.noise_count)


def _read_manifest(path: Path) -> tuple[str, RunConfig, dict | None]:
    """The input digest, configuration and noise spec a cluster run recorded."""
    return _parse_json(path.read_bytes(), str(path), _manifest_entries)


def _manifest_entries(manifest: dict) -> tuple[str, RunConfig, dict | None]:
    digest = manifest["input"]["sha256"]
    if not isinstance(digest, str):
        raise TypeError(f"input digest {digest!r} is not a string")
    config = RunConfig.from_dict(manifest["config"])
    noise = manifest.get("noise")
    if noise:
        noise = {"count": noise["count"], "seed": noise["seed"]}
        for key, value in noise.items():
            if type(value) is not int:
                raise TypeError(f"noise {key} {value!r} is not an integer")
        if not 1 <= noise["count"] < len(config.source_columns):
            raise ValueError(f"noise count {noise['count']} is not in "
                             f"1..{len(config.source_columns) - 1}")
    return digest, config, noise


def cmd_evaluate(args) -> int:
    tree_dir = Path(args.tree)
    expected, config, noise = _read_manifest(tree_dir / "manifest.json")
    if args.target_kind is not None:
        config = dataclasses.replace(config, target_kind=args.target_kind)
    out = _out_dir(args)
    digest, dataset = _load_input(args, config_without_noise(config, noise), expected)
    if noise:
        dataset = append_noise_channels(dataset, noise["count"], noise["seed"])
    tree = tree_from_json((tree_dir / "tree.json").read_bytes())
    report = evaluate_levels(tree, dataset, config)

    _write(out / "report.csv", report_csv(report))
    _write(out / "report.json", report_json(report))
    _write(out / "predictions.csv", predictions_csv(report))
    _write(out / "evaluate_manifest.json",
           _manifest("evaluate", args, digest, config, dataset,
                     {"tree": str(tree_dir)}))
    return 0


def config_without_noise(config: RunConfig, noise: dict | None) -> RunConfig:
    """The loader must see only the CSV's own columns; injected noise
    channels, the last ``count`` sources, are regenerated afterwards."""
    if not noise:
        return config
    return dataclasses.replace(
        config, source_columns=config.source_columns[:-noise["count"]])


def cmd_symbolize(args) -> int:
    config = _build_config(args)
    out = _out_dir(args)
    digest, dataset = _load_input(args, config)
    leaves = fit_leaves(dataset, config)
    target_seq, kind, _, _ = target_symbols(dataset, config)

    partitions = {seq.source_name: part.to_dict() for part, seq in leaves}
    columns = [seq.symbols for _, seq in leaves] + [target_seq.symbols]
    lines = [",".join([*config.source_columns, config.target_column])]
    lines += [",".join(map(str, row)) for row in np.column_stack(columns).tolist()]

    _write(out / "symbols.csv", ("\n".join(lines) + "\n").encode())
    _write(out / "partitions.json", _json_bytes(partitions))
    _write(out / "manifest.json",
           _manifest("symbolize", args, digest, config, dataset,
                     {"target_kind_resolved": kind}))
    return 0


def cmd_export_tree(args) -> int:
    out = _out_dir(args)
    tree_path = Path(args.tree)
    data = tree_path.read_bytes()
    tree = tree_from_json(data)
    _write(out / f"tree.{args.format}", export_tree(tree, args.format))
    manifest = {
        "command": "export-tree",
        "input": {"path": str(tree_path), "sha256": _sha256(data)},
        "format": args.format,
        "versions": _versions(),
    }
    _write(out / "export_manifest.json", _json_bytes(manifest))
    return 0


def _add_flag(parser: argparse.ArgumentParser, key: str, default) -> None:
    """Declare ``--key`` from its table entry; the help names ``default`` unless None."""
    _, parse, text = _CONFIG_FLAGS[key]
    if default is not None:
        text += f" (default {default})"
    parser.add_argument(_flag(key), dest=key, type=parse, help=text)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input CSV file")
    parser.add_argument("--config", help="key=value configuration file")
    for key, (field, _, _) in _CONFIG_FLAGS.items():
        _add_flag(parser, key, _DEFAULTS.get(field))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tefuse",
        description="Hierarchical fusion of multivariate time series by "
                    "transfer-entropy similarity.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; pair scoring is "
                             "serial and outputs never depend on this flag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="run the fusion hierarchy")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("inject-noise",
                       help="append seeded noise channels, then cluster")
    _add_config_flags(p)
    p.add_argument("--noise-count", dest="noise_count", type=int, required=True,
                   help="number of standard-normal channels to append")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_inject_noise)

    p = sub.add_parser("evaluate", help="score a stored tree level by level")
    p.add_argument("--input", required=True, help="the original CSV file")
    p.add_argument("--tree", required=True,
                   help="directory holding tree.json and manifest.json")
    _add_flag(p, "target_kind", "as the tree was built")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("symbolize", help="dump symbol streams and partitions")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_symbolize)

    p = sub.add_parser("export-tree", help="re-render a stored tree")
    p.add_argument("--tree", required=True, help="path to tree.json")
    p.add_argument("--format", choices=("json", "dot"), default="dot")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_export_tree)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"tefuse: configuration error: {exc}", file=sys.stderr)
        return 2
    except DATA_ERRORS as exc:
        print(f"tefuse: data error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
