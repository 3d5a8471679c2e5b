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

``cluster`` and ``inject-noise`` also write ``dataset.f64``, the columns
they parsed, noise channels included, as raw little-endian float64 in
config order (sources, then target); the manifest's ``dataset`` block
records its digest and columns. ``evaluate`` hashes ``--input`` and refuses
a digest other than the stored one, reads only the CSV's header, to check
that it holds the configured columns, and then takes the rows from
``dataset.f64`` once its size, digest and values check out. It never parses
the CSV's rows or regenerates noise, and a missing or damaged file is a
data error.

Each ``cmd_*`` returns its artifacts as ``{file name: bytes}``, and only
:func:`main` touches ``--out``: it refuses an unusable ``--out`` before the
command runs and creates it only once the command has returned, so a run
that fails leaves no ``--out`` behind.

Each run option is declared once, in ``_CONFIG_FLAGS``: its RunConfig
field, the parser of its flag and config-file text, and its help; the
help's defaults are RunConfig's. RunConfig then checks flags, config files
and stored manifests alike. Every option of every command, these included,
is declared once, in one table (``_TOP`` and ``_COMMANDS``): its flag, dest,
value parser, whether it is required, its choices, default and help. A
well-formed command line, ``[--verbose | --threads INT]* COMMAND (--flag
VALUE)*`` with only the command's own flags, each required one and no value
starting with "-", is read from the table directly into the namespace
argparse would give. Any other line, ``--help`` and every usage error among
them, goes to the argparse parser :func:`build_parser` makes from the same
table, so help, usage messages and exit code 2 are argparse's; a command
that runs never imports argparse, whose first parser cost a process about
5 ms on a 2-vCPU host.

Exit codes: 0 ok, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import hashlib
import logging
import platform
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .clustering import _cluster, export_tree, fit_leaves, leaf_sequences, tree_from_json
from .errors import MalformedArtifact, MissingColumn, PipelineError, TreeDatasetMismatch
from .estimate import (evaluate_levels, predictions_csv, report_csv, report_json,
                       resolve_target_kind, target_symbols)
from .ingest import (PARTITIONERS, TARGET_KINDS, Dataset, RunConfig, _noise_block,
                     header_indices, load_csv, noise_columns, read_config_file)
from .jsonout import _json_bytes, _parse_json

# named, not __name__, so that it is under "tefuse" in `python -m tefuse.cli` too
logger = logging.getLogger("tefuse.cli")

# Caught in this order: a MissingColumn is a configuration error (evaluate
# raises one from a stored config as a MalformedArtifact), every other
# PipelineError a data error, as is an OSError (a missing, unreadable or
# mistyped path), a MemoryError (an array too large to allocate, such as
# the edges of a uniform partition into 10**18 bins) and a float overflow,
# which a command raises rather than carry an infinite edge, median or
# error into its outputs.
CONFIG_ERRORS = (ValueError, MissingColumn)
DATA_ERRORS = (PipelineError, OSError, FloatingPointError, MemoryError)

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
_DEFAULTS = RunConfig.defaults()

# The columns cluster parsed, which evaluate reads in place of the CSV.
DATASET_FILE = "dataset.f64"


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_input(args, config: RunConfig):
    """Read ``--input`` once: the SHA-256 of its bytes and the dataset
    parsed from the same bytes."""
    data = Path(args.input).read_bytes()
    return _sha256(data), load_csv(args.input, config, data=data)


def _stored_columns(config: RunConfig) -> list[str]:
    """The columns of ``dataset.f64``, in its order: the sources, then the target."""
    return [*config.source_columns, config.target_column]


def _dataset_bytes(dataset, config: RunConfig) -> bytes:
    """``dataset.f64``: the run's columns as little-endian float64, one
    column after another, joined into the file's bytes without a stacked
    copy in between."""
    return b"".join(np.ascontiguousarray(dataset.column(name), dtype="<f8").data
                    for name in _stored_columns(config))


def _build_config(args) -> RunConfig:
    """Merge the key=value config file (if any) with CLI flags; flags win.
    The flags are parsed already; file text goes through the same parsers."""
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


def cmd_cluster(args, noise_count: int = 0) -> dict[str, bytes]:
    config = _build_config(args)
    digest, dataset = _read_input(args, config)
    noise = None
    if noise_count:
        # drawn before any channel is named, so that a count too large to
        # allocate fails at once instead of building its names first
        block = _noise_block(noise_count, dataset.n, config.seed)
        names = noise_columns(noise_count)
        # the full config, so that RunConfig refuses a source named like a channel
        config = config.replace(source_columns=config.source_columns + names)
        dataset = Dataset(dataset.names + names, dataset.columns + tuple(block),
                          dataset.dropped_rows)
        noise = {"count": noise_count, "seed": config.seed}

    leaves = leaf_sequences(dataset, config)
    target_seq, kind, _, _ = target_symbols(dataset, config)
    tree, scored = _cluster(leaves, target_seq, config)

    stored = _dataset_bytes(dataset, config)
    extra = {"noise": noise, "target_kind_resolved": kind,
             "candidate_evaluations": [len(m.all_candidate_scores) for m in tree.merges],
             "te_computed": scored,
             "dataset": {"sha256": _sha256(stored), "columns": _stored_columns(config)}}
    return {"tree.json": export_tree(tree, "json"),
            "tree.dot": export_tree(tree, "dot"),
            DATASET_FILE: stored,
            "manifest.json": _manifest("cluster", args, digest, config, dataset, extra)}


def cmd_inject_noise(args) -> dict[str, bytes]:
    if args.noise_count < 1:
        raise ValueError("--noise-count must be >= 1")
    return cmd_cluster(args, noise_count=args.noise_count)


def _count(value, name: str, least: int) -> int:
    if type(value) is not int or value < least:
        raise ValueError(f"{name} {value!r} is not an integer >= {least}")
    return value


def _manifest_entries(manifest: dict) -> tuple[str, RunConfig, dict | None, dict]:
    """The input digest, configuration and noise spec a cluster run
    recorded, and what it recorded of ``dataset.f64``: its digest and
    columns, and the input's row count and dropped rows."""
    digest = manifest["input"]["sha256"]
    if not isinstance(digest, str):
        raise TypeError(f"input digest {digest!r} is not a string")
    config = RunConfig.from_dict(manifest["config"])
    stored = {"sha256": manifest["dataset"]["sha256"],
              "columns": manifest["dataset"]["columns"],
              "rows": _count(manifest["input"]["rows"], "input rows", 1),
              "rows_dropped": _count(manifest["input"]["rows_dropped"], "dropped rows", 0)}
    if not isinstance(stored["sha256"], str):
        raise TypeError(f"dataset digest {stored['sha256']!r} is not a string")
    noise = manifest.get("noise")
    if noise is None:
        return digest, config, None, stored
    noise = {"count": noise["count"], "seed": noise["seed"]}
    for key, value in noise.items():
        if type(value) is not int:
            raise TypeError(f"noise {key} {value!r} is not an integer")
    count, sources = noise["count"], config.source_columns
    if not 1 <= count < len(sources) or sources[-count:] != noise_columns(count):
        raise ValueError(f"noise count {count} does not match the trailing "
                         f"noise sources of {list(sources)}")
    # evaluate makes no noise, but cmd_cluster records the config's seed, so
    # another one marks an edited manifest that misstates the stored channels
    if noise["seed"] != config.seed:
        raise ValueError(f"noise seed {noise['seed']} is not the configured "
                         f"seed {config.seed}")
    return digest, config, noise, stored


def _stored_dataset(tree_dir: Path, config: RunConfig, stored: dict) -> Dataset:
    """The dataset ``cluster`` parsed, read back from ``dataset.f64``. Its
    columns must be the configured ones, and its size, digest and values
    agree with the manifest's ``stored`` entries."""
    names = _stored_columns(config)
    if stored["columns"] != names:
        raise MalformedArtifact(f"{tree_dir / 'manifest.json'} records dataset columns "
                                f"{stored['columns']!r}, not the configured {names}")
    path = tree_dir / DATASET_FILE
    data = path.read_bytes()
    if len(data) != 8 * len(names) * stored["rows"]:
        raise MalformedArtifact(f"{path} holds {len(data)} bytes, not {len(names)} "
                                f"columns of {stored['rows']} float64 values")
    digest = _sha256(data)
    if digest != stored["sha256"]:
        raise MalformedArtifact(f"{path} has digest {digest[:12]}..., the manifest "
                                f"records {stored['sha256'][:12]}...")
    values = np.frombuffer(data, dtype="<f8").reshape(len(names), stored["rows"])
    if not np.isfinite(values).all():
        raise MalformedArtifact(f"{path} holds a value that is not finite")
    return Dataset(tuple(names), tuple(values), dropped_rows=stored["rows_dropped"])


def cmd_evaluate(args) -> dict[str, bytes]:
    tree_dir = Path(args.tree)
    manifest = tree_dir / "manifest.json"
    expected, config, noise, stored = _parse_json(manifest.read_bytes(), str(manifest),
                                                  _manifest_entries)
    if args.target_kind is not None:
        config = config.replace(target_kind=args.target_kind)
    data = Path(args.input).read_bytes()
    digest = _sha256(data)
    if digest != expected:
        raise TreeDatasetMismatch(
            f"{args.input} has digest {digest[:12]}..., tree was built from "
            f"{expected[:12]}..."
        )
    # the columns the CSV itself holds: all but the injected noise channels
    injected = noise_columns(noise["count"]) if noise else ()
    try:
        header_indices(args.input, [name for name in _stored_columns(config)
                                    if name not in injected], data=data)
    except MissingColumn as exc:
        # the digest matched, so the stored config names a column the run never read
        raise MalformedArtifact(f"{manifest} configures column {exc.name!r}, "
                                f"which {args.input} lacks") from None
    del data  # only its digest and header are read; the rows come from dataset.f64
    dataset = _stored_dataset(tree_dir, config, stored)
    if args.target_kind is not None:
        # a kind the target cannot take is the flag's fault (exit 2)
        resolve_target_kind(dataset.column(config.target_column), config)
    tree = tree_from_json((tree_dir / "tree.json").read_bytes())
    try:
        report = evaluate_levels(tree, dataset, config)
    except ValueError as exc:
        # the input is the one the run read, so the stored config is at fault
        raise MalformedArtifact(f"{manifest} configures a run that cannot be "
                                f"evaluated: {exc}") from None

    return {"report.csv": report_csv(report),
            "report.json": report_json(report),
            "predictions.csv": predictions_csv(report),
            "evaluate_manifest.json": _manifest("evaluate", args, digest, config, dataset,
                                                {"tree": str(tree_dir)})}


def cmd_symbolize(args) -> dict[str, bytes]:
    config = _build_config(args)
    digest, dataset = _read_input(args, config)
    leaves = fit_leaves(dataset, config)
    target_seq, kind, _, _ = target_symbols(dataset, config)

    partitions = {seq.source_name: part.to_dict() for part, seq in leaves}
    columns = [seq.symbols for _, seq in leaves] + [target_seq.symbols]
    lines = [",".join([*config.source_columns, config.target_column])]
    lines += [",".join(map(str, row)) for row in np.column_stack(columns).tolist()]

    return {"symbols.csv": ("\n".join(lines) + "\n").encode(),
            "partitions.json": _json_bytes(partitions),
            "manifest.json": _manifest("symbolize", args, digest, config, dataset,
                                       {"target_kind_resolved": kind})}


def cmd_export_tree(args) -> dict[str, bytes]:
    tree_path = Path(args.tree)
    data = tree_path.read_bytes()
    manifest = {
        "command": "export-tree",
        "input": {"path": str(tree_path), "sha256": _sha256(data)},
        "format": args.format,
        "versions": _versions(),
    }
    return {f"tree.{args.format}": export_tree(tree_from_json(data), args.format),
            "export_manifest.json": _json_bytes(manifest)}


def _option(flag: str, text: str | None, parse=str, required: bool = False,
            choices=None, default=None) -> tuple:
    """One option's table entry: (flag, dest, parse, required, choices,
    default, help). The dest is the flag with "-" written as "_"; a
    ``parse`` of None marks a switch, which takes no value and sets True."""
    return flag, flag[2:].replace("-", "_"), parse, required, choices, default, text


def _run_option(key: str, default) -> tuple:
    """``--key`` from its ``_CONFIG_FLAGS`` entry; the help names ``default``
    unless None."""
    _, parse, text = _CONFIG_FLAGS[key]
    if default is not None:
        text += f" (default {default})"
    return _option(_flag(key), text, parse)


# Every option, declared once: the ones before the command, then each
# command's help and its options in --help order. build_parser gives them
# to argparse, and _fast_parse reads them itself.
_TOP = (_option("--verbose", "log progress to stderr", parse=None, default=False),
        _option("--threads", "accepted for compatibility; pair scoring is serial and "
                "outputs never depend on this flag", parse=int, default=1))
_OUT = (_option("--out", "output directory", required=True),)
_RUN = (_option("--input", "input CSV file", required=True),
        _option("--config", "key=value configuration file"),
        *(_run_option(key, _DEFAULTS.get(field))
          for key, (field, _, _) in _CONFIG_FLAGS.items()))
_COMMANDS = {
    "cluster": ("run the fusion hierarchy", _RUN + _OUT),
    "inject-noise": ("append seeded noise channels, then cluster", _RUN + _OUT + (
        _option("--noise-count", "number of standard-normal channels to append",
                int, required=True),)),
    "evaluate": ("score a stored tree level by level", _OUT + (
        _option("--input", "the original CSV file", required=True),
        _option("--tree", "directory holding tree.json and manifest.json",
                required=True),
        _run_option("target_kind", "as the tree was built"))),
    "symbolize": ("dump symbol streams and partitions", _RUN + _OUT),
    "export-tree": ("re-render a stored tree", _OUT + (
        _option("--tree", "path to tree.json", required=True),
        _option("--format", None, choices=("json", "dot"), default="dot"))),
}


def _func(command: str):
    """The command's ``cmd_*`` function, looked up by name when a line is
    parsed, so that one replaced on the module is the one that runs."""
    return globals()["cmd_" + command.replace("-", "_")]


def _add_options(parser, options: tuple) -> None:
    for flag, dest, parse, required, choices, default, text in options:
        if parse is None:
            parser.add_argument(flag, dest=dest, action="store_true", help=text)
        else:
            parser.add_argument(flag, dest=dest, type=parse, required=required,
                                choices=choices, default=default, help=text)


def build_parser():
    """The argparse parser of the option table, which ``main`` builds only
    for a command line ``_fast_parse`` leaves to it: --help and usage
    errors."""
    import argparse

    # allow_abbrev=False on every parser: argparse would otherwise take any
    # unique prefix of an option for it (evaluate's --target for --target-kind)
    parser = argparse.ArgumentParser(
        prog="tefuse",
        description="Hierarchical fusion of multivariate time series by "
                    "transfer-entropy similarity.",
        allow_abbrev=False,
    )
    _add_options(parser, _TOP)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _COMMANDS.items():
        p = sub.add_parser(command, allow_abbrev=False, help=text)
        _add_options(p, options)
        p.set_defaults(func=_func(command))
    return parser


def _read_options(argv, index: int, options: tuple, values: dict) -> int | None:
    """Read ``(--flag VALUE)*`` from ``argv[index:]`` into ``values`` by dest,
    a switch without its VALUE, up to the first argument that is no flag in
    ``options``; return that argument's index. None if a value is missing,
    starts with "-", does not parse or is not among its choices."""
    entries = {entry[0]: entry for entry in options}
    while index < len(argv) and argv[index] in entries:
        _, dest, parse, _, choices, _, _ = entries[argv[index]]
        if parse is None:
            values[dest] = True
            index += 1
            continue
        if index + 1 == len(argv) or argv[index + 1].startswith("-"):
            return None
        try:
            value = parse(argv[index + 1])
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        index += 2
    return index


def _fast_parse(argv):
    """The namespace argparse gives a command line of the form
    ``[--verbose | --threads INT]* COMMAND (--flag VALUE)*`` whose flags are
    all the command's own, with every required one present, and no value
    starting with "-"; None for any other command line, which is argparse's
    to parse, print help for or refuse."""
    values: dict = {}
    index = _read_options(argv, 0, _TOP, values)
    if index is None or index == len(argv) or argv[index] not in _COMMANDS:
        return None
    command = argv[index]
    options = _COMMANDS[command][1]
    if _read_options(argv, index + 1, options, values) != len(argv):
        return None
    for _, dest, _, required, _, default, _ in _TOP + options:
        if dest not in values:
            if required:
                return None
            values[dest] = default
    return SimpleNamespace(**values, command=command, func=_func(command))


def _refuse_unusable_out(out: Path) -> None:
    """Refuse, creating nothing, an ``--out`` that exists as a non-directory
    (a dangling link too) or sits under one."""
    nearest = next(path for path in (out, *out.parents)
                   if path.exists() or path.is_symlink())
    if not nearest.is_dir():
        raise FileExistsError(f"{nearest} exists and is not a directory")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    # the stderr handler is added once per process, and each call sets the
    # level from its own --verbose
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    logging.getLogger("tefuse").setLevel(logging.INFO if args.verbose else logging.WARNING)
    out = Path(args.out)
    try:
        _refuse_unusable_out(out)
        with np.errstate(over="raise"):
            outputs = args.func(args)
        out.mkdir(parents=True, exist_ok=True)
        for name, data in outputs.items():
            (out / name).write_bytes(data)
            logger.info("wrote %s (%d bytes)", out / name, len(data))
        return 0
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
