"""Every output file of every command, pinned by its SHA-256.

``.github/check_pins.py`` pins ``tree.json`` and ``report.csv`` on the
benchmark workloads. This suite pins the rest: ``symbols.csv``,
``partitions.json``, ``tree.dot``, ``dataset.f64``, ``report.json``,
``predictions.csv`` and the ``export-tree`` outputs, beside ``tree.json``
and ``report.csv``, from ``symbolize``, ``cluster``, ``inject-noise``, ``evaluate`` and
``export-tree`` run through :func:`tefuse.cli.main` on small
``synthdata`` inputs. The cases take continuous and discrete targets, both
partitioners, and fused alphabets that send repartitioning down its
lossless-relabel and collapsed-edge paths. Manifests are not pinned: they
record paths and library versions.
"""

import hashlib

import pytest

from tefuse.cli import main

from synthdata import (AHU_SOURCES, AHU_TARGET, OCC_SOURCES, OCC_TARGET, ahu_like,
                       occupancy_like, write_dataset_csv)

# name -> (dataset, run flags, clustering command and its extra flags)
CASES = {
    "continuous-mep": (
        lambda: ahu_like(n=800, seed=41),
        ["--target", AHU_TARGET, "--sources", ",".join(AHU_SOURCES), "--alphabet", "4",
         "--depth", "2", "--target-alphabet", "5", "--fused-alphabet", "6"],
        ["cluster"],
    ),
    "continuous-uniform": (
        lambda: ahu_like(n=700, seed=42),
        ["--target", AHU_TARGET, "--sources", ",".join(AHU_SOURCES[:5]),
         "--partitioner", "uniform", "--alphabet", "5", "--depth", "1",
         "--train-fraction", "0.6"],
        ["inject-noise", "--noise-count", "2"],
    ),
    "discrete-mep": (
        lambda: occupancy_like(n=1500, seed=21),
        ["--target", OCC_TARGET, "--sources", ",".join(OCC_SOURCES), "--alphabet", "5",
         "--depth", "1", "--fused-alphabet", "20", "--seed", "7"],
        ["inject-noise", "--noise-count", "2"],
    ),
    "discrete-uniform": (
        lambda: occupancy_like(n=1200, seed=22),
        ["--target", OCC_TARGET, "--sources", ",".join(OCC_SOURCES),
         "--partitioner", "uniform", "--alphabet", "2", "--depth", "2",
         "--fused-alphabet", "5", "--stop-at", "2"],
        ["cluster"],
    ),
}

# "command/file" -> SHA-256, per case; recorded before the bulk leaf fit and
# the integer repartition core were written, and unchanged by them
# (dataset.f64, the columns cluster parsed for evaluate, was added later)
PINS = {
    "continuous-mep": {
        "symbolize/partitions.json":
            "3a141870b99421a196e8d286529cf213d90b315606f875df5833bde7f97f8694",
        "symbolize/symbols.csv":
            "a38627256fcd5e93a55d41a5e202ed1b2ac81f97c4f8c2236fd7b839cdd4c5dc",
        "cluster/dataset.f64":
            "1978d3d276df5222e80c12fa49b6e1e17d5600da4863051bb35c8387c5593071",
        "cluster/tree.dot":
            "9ccd56fe7ab544d932f2bf04cc8ff29b4f2e69a7fa8f66b569e5aeb91d5519a2",
        "cluster/tree.json":
            "06412612bf6de2450b06e98e8a8408c4b2918160db51136ff7dee9b066fc7179",
        "evaluate/predictions.csv":
            "47c8160df7ba0cfb66139baf8fc635a0c85fc6214b141be8a162e36c6bc78dfe",
        "evaluate/report.csv":
            "858f72aeebeb65e8d113da1c5c1e46fae276b158de83e42765a34db0cd1ed9a1",
        "evaluate/report.json":
            "1d816d9f39259a1eeaee762e6427e735d9d649a0d336b0407053dc7790e7738e",
        "export-json/tree.json":
            "06412612bf6de2450b06e98e8a8408c4b2918160db51136ff7dee9b066fc7179",
        "export-dot/tree.dot":
            "9ccd56fe7ab544d932f2bf04cc8ff29b4f2e69a7fa8f66b569e5aeb91d5519a2",
    },
    "continuous-uniform": {
        "symbolize/partitions.json":
            "a164c29d2f602bf005fd6a9ebc4cd5ef261251e1a4c974a374e29f4ffc235706",
        "symbolize/symbols.csv":
            "44e82b31d4b926a1f10f43c1aa1000bb284553583d57a186f0e1ac33ed78bb9e",
        "inject-noise/dataset.f64":
            "c7ff7388550e868dd1bc8f2593e111ce1aab129f1fa943a1be40eaf64205aaaf",
        "inject-noise/tree.dot":
            "0ea8d268c882994736644b0eaffb245ad31ad42ce4805d6f0423203f0eb77639",
        "inject-noise/tree.json":
            "2705bb3c5fe0ee0678b383ffd509cf9519502e60a5d5fab024533d0fa059dabd",
        "evaluate/predictions.csv":
            "bc7cfe866cd083b17f9e0356fae829f340ea8a4ab23a28a0e9ddfd5552651ea6",
        "evaluate/report.csv":
            "f516375d6a78fe4fa2afca0919ca1f72957812ddd1221294a0a1aceb1a8c4f98",
        "evaluate/report.json":
            "0f034b920690b37ff0dfe420a5f02ccaa45eecf457950dadb373ee2ae3bbae7d",
        "export-json/tree.json":
            "2705bb3c5fe0ee0678b383ffd509cf9519502e60a5d5fab024533d0fa059dabd",
        "export-dot/tree.dot":
            "0ea8d268c882994736644b0eaffb245ad31ad42ce4805d6f0423203f0eb77639",
    },
    "discrete-mep": {
        "symbolize/partitions.json":
            "3cb68bb43bec3b73badf7daf97df488262e801e41a11d9927c248b98e6e6d30c",
        "symbolize/symbols.csv":
            "6433c6227cbeb17e4820cbc00133ad786e9260a81a8d68b96477a370d60c2bbd",
        "inject-noise/dataset.f64":
            "6491dfd03d67893dc31aefe867f3966bb20cfc7c47f7ec0ca8457c15fd28fbac",
        "inject-noise/tree.dot":
            "f228de42caa150371ce2551bed42f5ac884cd98bf50ccc56e2b4301d35131808",
        "inject-noise/tree.json":
            "5a1dee83c1fe7cec092b5ddb08aac138484139adea6e9f339f014ff82a98a3c4",
        "evaluate/predictions.csv":
            "84a4af1b0e7d2964263c1dc06b77c5c002a9985896d2d6b6bbbad25d45f2439a",
        "evaluate/report.csv":
            "81b248044fc70c347457aaee3db86d85eabb7620337ffb2a3142d90c4d6fe84c",
        "evaluate/report.json":
            "59d0a869b085091955dd5dd460f038c813f681114732ccd8e4e1bca9f304bcba",
        "export-json/tree.json":
            "5a1dee83c1fe7cec092b5ddb08aac138484139adea6e9f339f014ff82a98a3c4",
        "export-dot/tree.dot":
            "f228de42caa150371ce2551bed42f5ac884cd98bf50ccc56e2b4301d35131808",
    },
    "discrete-uniform": {
        "symbolize/partitions.json":
            "6fbfacc75d90841947e8d9b2d4b4fc6af59102f297b1b84a5ace9fc04f783074",
        "symbolize/symbols.csv":
            "cbfd7a7b59aac5913abbada1153aa86274afa370dfa58296cf5d218e2fe55617",
        "cluster/dataset.f64":
            "86b7e97e99ced4a3889a0f7e949c1b84cd1389789ae7e27fade76b86acadc841",
        "cluster/tree.dot":
            "7e499c53cc2bfab0375e74ac0c6cf8b13c664ee549f2ce2bc698b0b84c84594e",
        "cluster/tree.json":
            "7f518fd3984f8499cbeb5a66e26d4e2b5081c4d5b232e835a0eda74c8e83d31b",
        "evaluate/predictions.csv":
            "45270461a9013c47d82033a2e085106fd25219463e43f182b97fc07994d0d335",
        "evaluate/report.csv":
            "4a28f57bb36df55d89fb8a989c03a5bcac3d11df07df569c120a6a46475d10c8",
        "evaluate/report.json":
            "7106b72314e8d9b716b8af87a759e2579e4c2df84e02f25dda3fbff0920d8a55",
        "export-json/tree.json":
            "7f518fd3984f8499cbeb5a66e26d4e2b5081c4d5b232e835a0eda74c8e83d31b",
        "export-dot/tree.dot":
            "7e499c53cc2bfab0375e74ac0c6cf8b13c664ee549f2ce2bc698b0b84c84594e",
    },
}


def output_digests(case: str, tmp_path) -> dict[str, str]:
    """Run every command on ``case``; the SHA-256 of each non-manifest output."""
    make, flags, (command, *extra) = CASES[case]
    csv = tmp_path / "data.csv"
    write_dataset_csv(make(), csv)
    runs = {
        "symbolize": ["symbolize", "--input", str(csv), *flags],
        command: [command, "--input", str(csv), *flags, *extra],
        "evaluate": ["evaluate", "--input", str(csv), "--tree", str(tmp_path / command)],
        "export-json": ["export-tree", "--tree", str(tmp_path / command / "tree.json"),
                        "--format", "json"],
        "export-dot": ["export-tree", "--tree", str(tmp_path / command / "tree.json"),
                       "--format", "dot"],
    }
    digests = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0, name
        for path in sorted(out.iterdir()):
            if not path.name.endswith("manifest.json"):
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_output_matches_its_pin(case, tmp_path):
    assert output_digests(case, tmp_path) == PINS[case]
