"""Byte-identity gate: every CLI output on committed inputs keeps its digest.

``tests/data/golden`` was written once by
``ethokit simulate --seed 7 --config tests/data/golden_sim.json``. Each
command below runs on it, except ``regress``, which fits the committed
table ``tests/data/golden_regress.csv`` (habitat by herd size, with their
interaction). The sha256 of every file a command writes (and of its
standard output, with the output directory masked) must equal the
recorded digest. A change meant to keep outputs byte-identical passes
unchanged; one that alters an output byte fails here and must record the
new digests on purpose. ``regress`` fits in plain Python floats, so its
digests do not hang on a BLAS or LAPACK build.
``validate-faulty`` runs on a copy of the session with
one unknown code in ``labels.csv``, one in ``observations.csv`` and a
label row for an unknown track, so its report pins the text of each
issue location.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from ethokit.cli import main

DATA = Path(__file__).parent / "data"
SESSION = DATA / "golden"
SIM_CONFIG = DATA / "golden_sim.json"
REGRESS_TABLE = DATA / "golden_regress.csv"
REGRESS_CONFIG = DATA / "golden_regress.json"
# Maps TR onto W, so runs merge under map_labels, and samples every 2 s
# so the 40-s session yields transitions in `report`.
RUN_CONFIG = {"label_map": {"TR": "W"}, "params": {"downsample_interval_s": 2.0}}

COMMANDS = {
    "validate": ["validate", "{session}"],
    "validate-faulty": ["validate", "{faulty}"],
    "timebudget-csv": ["timebudget", "{session}", "--out", "{out}"],
    "timebudget-json": ["timebudget", "{session}", "--format", "json", "--out", "{out}"],
    "transitions-csv": ["transitions", "{session}", "--interval", "1", "--out", "{out}"],
    "transitions-json": [
        "transitions", "{session}", "--interval", "1", "--format", "json", "--out", "{out}",
    ],
    "report": ["report", "{session}", "--config", "{config}", "--out", "{out}"],
    "compare-focal": [
        "compare", "{session}", "--subject", "ind000", "--method-a", "ground_focal",
        "--method-b", "drone_focal", "--interval", "2", "--out", "{out}",
    ],
    "compare-scan": [
        "compare", "{session}", "--subject", "ind002", "--method-a", "ground_scan",
        "--method-b", "ml_auto", "--interval", "2", "--config", "{config}", "--out", "{out}",
    ],
    "interactions": ["interactions", "{session}", "--out", "{out}"],
    "miniscenes": ["miniscenes", "{session}", "--out", "{out}"],
    "regress": [
        "regress", "{table}", "--response", "vigilance", "--config", "{table_config}",
        "--out", "{out}",
    ],
}

DIGESTS = {
    "compare-focal/agreement.json": "8a8dad21fef530757b5f403259af99fd84b3ca2a978a5f20b06a0df20dd9d7a9",
    "compare-focal/class_metrics.csv": "632febf810332d6c49a0767ecfa87f40e62a5d366daab79381b0e1141c33fec9",
    "compare-focal/confusion.csv": "387c72d66d4c3328a93fcaa3120c2fabb679d66e9cebd588a4d9e86be5f2abc8",
    "compare-focal/paired.csv": "19bceebc7bb1c87c74639c6a929c5e80a7a3ef4291ca9cc279840b7bf5afed2c",
    "compare-focal/stdout": "9ae20cbd24ff914d73b69c174c8acd8a4b3e5fe61c48d0478d37a8feb148af2d",
    "compare-scan/agreement.json": "03d32e8769bb8b05ef582546c7b3780b7c9f7848f904aa4ef7c3b7ac125ebc49",
    "compare-scan/class_metrics.csv": "1f9023fa722d24966470ae0b97a84c4591eb85c0f9472547a4525814ef5c6d61",
    "compare-scan/confusion.csv": "6a96eb2d954149f76bca4fd93b4dae63e40d36b3f9afe411f3358d0ae5d498b8",
    "compare-scan/paired.csv": "86c3dbfc0bb7c72d8a9f83d233e934fb751fe56b8904f03a00eba9db4bd09e66",
    "compare-scan/stdout": "6105f9a2355214d3da03a67e4721cdce1c2449bef56898046821b9eb29dad119",
    "interactions/interactions.csv": "79f1085e592898d42d209e2161652ed469a238afe02222dfcd4a251689e66d42",
    "interactions/stdout": "4bac8a4ef8a46337767b36184ee19f37e52c430f17a27cba500d984839aaf816",
    "miniscenes/miniscenes.csv": "5e4ece12c40773adc8158ad03d542688ef82c2738997f5eb63a42f7ee7ecebb3",
    "miniscenes/stdout": "7ea2f718a9177cbb587576607920a2e0f5ebf24a73704694e974cc2472efef30",
    "report/gantt.svg": "d1139b71f70e38232100c22b5694dc9c673d6334cabb47b6426d5909ad3cf30f",
    "report/stdout": "e35e800ecca0619f7fa8f39d8dc3f1703fd7d643e62f11f62cd6251d4fd5fb83",
    "report/timebudget.csv": "8571ea3a43bd4caeda69db8a7102855e9d0739be8ab837680a24094fdb613687",
    "report/transitions.csv": "1832c07f21f3ff5d16ee6d0332de18be96ed1c1b39ebdb0129bb9568a21ec09d",
    "report/transitions.svg": "5809697f64b978857237f7d2cd8c41cccef12674efa1bcad7c40016ece22eefe",
    "regress/model.json": "e76f37dc3e0e91d054ccb22d030d81291234ab6e4273ed58df0ffd6c489cc0dc",
    "regress/regression.csv": "adce2a51dc40c81ab2888d8f2b759422d448e6fec059951d2ac4a25064cea8e9",
    "regress/stdout": "a80a8763bd5c15e9c0039f62f49ce0c0b81604e8a51f7c2956f3bed33e96ecb6",
    "timebudget-csv/stdout": "c737ab4ab6b21acf5f872c600b1799a41c5c3673b3f42990cb573e0967ec08a2",
    "timebudget-csv/timebudget.csv": "8571ea3a43bd4caeda69db8a7102855e9d0739be8ab837680a24094fdb613687",
    "timebudget-json/stdout": "4a1be2f655efb422eb5b72ad7f97137e9c2260895c7294480792c62d3740c8cd",
    "timebudget-json/timebudget.json": "42954488ee67b4261e03c6649e40d2b7fc7718574d78d1b4f95200096f80486b",
    "transitions-csv/stdout": "35413466e56928f1e18248ca84c53dc045023a81b48e6704e68b0ff58945fddf",
    "transitions-csv/transition_counts.csv": "49e7815b9f38dd2cc252de53b96fcaae40f15bb93712b68e74ce1ca7f763791d",
    "transitions-csv/transitions.csv": "1b6ae0ec545288b3e870e9e07e87f5eabbcdc0a14847c7c50c734d97b321db33",
    "transitions-json/stdout": "ea22ecfb983fe27f2d6711b452cbbbed5806164298d09ab48734ada3d131f0b5",
    "transitions-json/transitions.json": "a7c9cc09cd866ffa5aab76def5faa566c7f511f43d780be99797ffd0d5ff1fe3",
    "validate/stdout": "dc51b8c96c2d745df3bd5590d990230a482fd247123599548e0632fdbf97fc22",
    "validate-faulty/stdout": "aed9c0320aa663236dc51f996b2d3a03225259cb6cbc70669ed4ce88a3d08e91",
}
# exit status of each command that is expected to fail
EXIT_STATUS = {"validate-faulty": 1}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_faulty_session(root: Path) -> Path:
    """A copy of the golden session with two unknown codes and an unknown track."""
    root.mkdir()
    for path in SESSION.iterdir():
        shutil.copy(path, root / path.name)
    labels = (root / "labels.csv").read_text(encoding="utf-8").splitlines()
    assert labels[2] == "sim-7,ind000,5,9,R"
    labels[2] = "sim-7,ind000,5,9,XX"
    labels.insert(1, "sim-7,ghost,0,4,G")  # sorts before ind000
    (root / "labels.csv").write_text("\n".join(labels) + "\n", encoding="utf-8")
    rows = (root / "observations.csv").read_text(encoding="utf-8").splitlines()
    assert rows[2] == "sim,ind000,drone_focal,2023-01-01T06:00:01+00:00,R"
    rows[2] = "sim,ind000,drone_focal,2023-01-01T06:00:01+00:00,YY"
    (root / "observations.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return root


def run_digests(name: str, tmp_path: Path, capsys) -> dict[str, str]:
    """Run one command on the golden session; digest of stdout and each file written."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUN_CONFIG), encoding="utf-8")
    out = tmp_path / "out"
    faulty = tmp_path / "faulty"
    if "{faulty}" in COMMANDS[name]:
        write_faulty_session(faulty)
    argv = [
        a.format(session=SESSION, faulty=faulty, out=out, config=config,
                 table=REGRESS_TABLE, table_config=REGRESS_CONFIG)
        for a in COMMANDS[name]
    ]
    capsys.readouterr()
    assert main(argv) == EXIT_STATUS.get(name, 0)
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    digests = {f"{name}/stdout": _sha(stdout.encode())}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = _sha(path.read_bytes())
    return digests


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_match_digests(name, tmp_path, capsys):
    expected = {k: v for k, v in DIGESTS.items() if k.split("/")[0] == name}
    assert run_digests(name, tmp_path, capsys) == expected


def test_simulate_rewrites_the_committed_session(tmp_path, capsys):
    out = tmp_path / "session"
    assert main(["simulate", "--seed", "7", "--config", str(SIM_CONFIG), "--out", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in SESSION.iterdir())
    for name in written:
        assert (out / name).read_bytes() == (SESSION / name).read_bytes(), name
