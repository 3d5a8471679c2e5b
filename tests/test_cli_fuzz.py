"""Every command ends in a documented exit code on small hostile inputs.

Hypothesis draws small numeric CSVs (ties, signed zeros, ±1e308,
subnormals, integers up to 2**53) and run flags (both partitioners, both
target kinds), and runs ``symbolize``, ``cluster`` and ``inject-noise``
through :func:`tefuse.cli.main`, then ``evaluate`` on every tree the two
clustering commands wrote. Each run must return 0, 2 or 3 without raising,
and a run that fails must leave no ``--out`` behind.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tefuse.cli import main

EXIT_CODES = (0, 2, 3)

VALUES = st.one_of(
    # the extremes of float64: signed zeros, the largest finite values,
    # subnormals and the smallest normal, integers at 2**53
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324,
                     2.2250738585072014e-308, 2.0**53, -(2.0**53)]),
    st.integers(-(2**53), 2**53).map(float),
    # a handful of values, so ties are heavy
    st.integers(0, 3).map(float),
)

# a target that --target-kind discrete can take as class labels
LABELS = st.integers(0, 2).map(float)


@st.composite
def tables(draw):
    """A CSV text with sources s0.. and target t, and the run flags."""
    width = draw(st.integers(2, 4))
    rows = draw(st.integers(3, 40))
    sources = [f"s{i}" for i in range(width)]
    target = draw(st.sampled_from([VALUES, LABELS]))
    lines = [",".join([*sources, "t"])]
    for _ in range(rows):
        cells = [draw(VALUES) for _ in sources] + [draw(target)]
        lines.append(",".join(repr(cell) for cell in cells))
    flags = [
        "--target", "t", "--sources", ",".join(sources),
        "--alphabet", str(draw(st.integers(2, 4))),
        "--target-alphabet", str(draw(st.integers(2, 4))),
        "--depth", str(draw(st.integers(0, 2))),
        "--train-fraction", draw(st.sampled_from(["0.5", "0.7", "0.9"])),
        "--partitioner", draw(st.sampled_from(["mep", "uniform"])),
        "--target-kind", draw(st.sampled_from(["discrete", "continuous"])),
    ]
    if draw(st.booleans()):
        flags += ["--fused-alphabet", str(draw(st.integers(2, 6)))]
    return "\n".join(lines) + "\n", flags


def run(argv, out: Path) -> tuple[int, str]:
    """``main``'s exit code and standard error, held to the documented
    codes and to leaving no ``--out`` after a failure; an exception fails
    the test with its traceback."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    assert code in EXIT_CODES, (argv, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    assert (code == 0) == out.exists(), (argv, code, stderr.getvalue())
    return code, stderr.getvalue()


@settings(deadline=None, max_examples=40)
@given(table=tables())
def test_every_command_exits_with_a_documented_code(table):
    text, flags = table
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csv = tmp / "data.csv"
        csv.write_text(text)
        run(["symbolize", "--input", str(csv), *flags], tmp / "symbolize")
        for name, extra in [("cluster", []), ("inject-noise", ["--noise-count", "1"])]:
            tree = tmp / name
            if run([name, "--input", str(csv), *flags, *extra], tree)[0] == 0:
                run(["evaluate", "--input", str(csv), "--tree", str(tree)],
                    tmp / f"evaluate-{name}")


def _overflow_csv(path: Path, scale: float, target_scale: float) -> None:
    rng = np.random.default_rng(3)
    lines = ["a,b,t"]
    columns = rng.uniform(-1, 1, 60) * scale, rng.normal(size=60), rng.uniform(1, 1.7, 60) * target_scale
    lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    path.write_text("\n".join(lines) + "\n")


# (source a's scale, the target's scale, partitioner, the command that
# overflows): equal-width bins over ±1e308, a target bin median of two
# values near 1.7e308, and squared errors of a target near 1e200
OVERFLOWS = {
    "uniform-range": (1e308, 1.0, "uniform", "cluster"),
    "target-median": (1.0, 1e308, "mep", "cluster"),
    "squared-errors": (1.0, 1e200, "mep", "evaluate"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_float_overflow_is_a_data_error(case, tmp_path):
    scale, target_scale, partitioner, failing = OVERFLOWS[case]
    csv = tmp_path / "data.csv"
    _overflow_csv(csv, scale, target_scale)
    flags = ["--input", str(csv), "--target", "t", "--sources", "a,b", "--alphabet", "3",
             "--depth", "1", "--target-kind", "continuous", "--partitioner", partitioner]
    if failing == "evaluate":
        assert run(["cluster", *flags], tmp_path / "tree")[0] == 0
        flags = ["--input", str(csv), "--tree", str(tmp_path / "tree")]
    code, stderr = run([failing, *flags], tmp_path / "out")
    assert code == 3
    assert stderr.startswith("tefuse: data error: overflow encountered in")
