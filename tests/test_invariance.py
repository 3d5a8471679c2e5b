"""Inputs that must give the same run, end to end through the CLI.

Each case runs ``cluster`` and ``evaluate`` through :func:`tefuse.cli.main`
on a transformed copy of a small ``synthdata`` input and compares
``tree.json``, ``tree.dot``, ``report.csv`` and ``predictions.csv`` byte
for byte with the run on the input as it is.

- Scaling every source by a power of two: a maximum entropy partition
  depends only on the order of the values, and the uniform partitioner's
  edges lo + i·(hi − lo)/b scale exactly, barring overflow and subnormals.
- The CSV's layout: columns are read by name, so reordering them or adding
  a column no flag selects changes nothing, and neither do CRLF line
  endings.

No invariance is asserted under a decreasing map: a bin is
(e[s-1], e[s]], so negating the sources is not a relabeling of their
symbols, and :func:`test_negated_sources_change_the_run` checks that the
comparison sees that change. Nor under a permutation of the sources: the
lower node id takes a fusion's major digit, which sets the repartition
bins, and round-off decides near-ties between equal scores.
"""

import pytest

from tefuse.cli import main

from synthdata import AHU_SOURCES, AHU_TARGET, OCC_SOURCES, OCC_TARGET, ahu_like, occupancy_like

FILES = ("tree.json", "tree.dot", "report.csv", "predictions.csv")

# name -> (dataset, its sources, its target, run flags)
INPUTS = {
    "continuous": (lambda: ahu_like(n=400, seed=43), AHU_SOURCES, AHU_TARGET,
                   ["--alphabet", "4", "--depth", "2", "--target-alphabet", "5"]),
    "discrete": (lambda: occupancy_like(n=500, seed=23), OCC_SOURCES, OCC_TARGET,
                 ["--alphabet", "3", "--depth", "1", "--fused-alphabet", "4"]),
}


def write_csv(path, dataset, sources, scale=1.0, reverse=False, extra=False, newline="\n"):
    """``dataset`` as CSV with every source multiplied by ``scale``, its
    columns in reverse order when ``reverse``, an unselected column first
    when ``extra``, and ``newline`` after every line."""
    columns = {name: col.tolist() for name, col in zip(dataset.names, dataset.columns)}
    for name in sources:
        columns[name] = [value * scale for value in columns[name]]
    names = list(reversed(dataset.names) if reverse else dataset.names)
    if extra:
        names.insert(0, "unused")
        columns["unused"] = [float(i % 7) for i in range(dataset.n)]
    lines = [",".join(names)]
    lines += [",".join(repr(columns[name][row]) for name in names) for row in range(dataset.n)]
    path.write_bytes("".join(line + newline for line in lines).encode())


def run_outputs(tmp_path, name, partitioner, **layout) -> dict[str, bytes]:
    """The four compared files of ``cluster`` then ``evaluate`` on input
    ``name`` written with ``layout``."""
    make, sources, target, flags = INPUTS[name]
    csv = tmp_path / "data.csv"
    write_csv(csv, make(), sources, **layout)
    run = ["--input", str(csv), "--target", target, "--sources", ",".join(sources),
           "--partitioner", partitioner, *flags]
    assert main(["cluster", *run, "--out", str(tmp_path / "tree")]) == 0
    assert main(["evaluate", "--input", str(csv), "--tree", str(tmp_path / "tree"),
                 "--out", str(tmp_path / "report")]) == 0
    outputs = {}
    for directory in ("tree", "report"):
        for path in sorted((tmp_path / directory).iterdir()):
            if path.name in FILES:
                outputs[path.name] = path.read_bytes()
    assert sorted(outputs) == sorted(FILES)
    return outputs


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The outputs on each input as it is, per (input, partitioner)."""
    cache = {}

    def outputs(name, partitioner):
        if (name, partitioner) not in cache:
            tmp = tmp_path_factory.mktemp(f"{name}-{partitioner}")
            cache[name, partitioner] = run_outputs(tmp, name, partitioner)
        return cache[name, partitioner]

    return outputs


SCALES = [("mep", 2.0), ("mep", 0.5), ("uniform", 2.0), ("uniform", 0.5), ("uniform", 0.25)]


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("partitioner, scale", SCALES)
def test_sources_scaled_by_a_power_of_two(reference, tmp_path, name, partitioner, scale):
    assert run_outputs(tmp_path, name, partitioner, scale=scale) == reference(name, partitioner)


LAYOUTS = {
    "columns-reversed": {"reverse": True},
    "unselected-column": {"extra": True},
    "crlf": {"newline": "\r\n"},
}


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("partitioner", ["mep", "uniform"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_csv_layout(reference, tmp_path, name, partitioner, layout):
    assert (run_outputs(tmp_path, name, partitioner, **LAYOUTS[layout])
            == reference(name, partitioner))


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_negated_sources_change_the_run(reference, tmp_path, name):
    negated = run_outputs(tmp_path, name, "mep", scale=-1.0)
    want = reference(name, "mep")
    assert [f for f in FILES if negated[f] != want[f]] != []
