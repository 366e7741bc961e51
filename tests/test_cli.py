"""Command-line surface: exit codes, outputs, determinism."""

from __future__ import annotations

import csv
import filecmp
import json
import shutil
from pathlib import Path

import pytest

from ethokit import dump_labels, dump_tracks, dump_video_meta
from ethokit.cli import main
from conftest import make_labels, make_track


@pytest.fixture(scope="module")
def sim_session(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("sim") / "session"
    rc = main(["simulate", "--seed", "11", "--out", str(root)])
    assert rc == 0
    return root


def tiny_session(path: Path, label_code: str = "G") -> Path:
    path.mkdir(parents=True, exist_ok=True)
    from ethokit import VideoMeta
    from conftest import T0

    meta = VideoMeta("tiny", 1920, 1080, T0, fps=30.0)
    (path / "meta.json").write_text(dump_video_meta(meta))
    (path / "tracks.csv").write_text(dump_tracks([make_track(frames=range(0, 120))], "tiny"))
    (path / "labels.csv").write_text(
        dump_labels([make_labels(0, 119, label_code)], "tiny")
    )
    return path


class TestExitCodes:
    def test_validate_clean_session(self, sim_session, capsys):
        assert main(["validate", str(sim_session)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_corrupt_csv_is_a_parse_error(self, sim_session, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "meta.json").write_text((sim_session / "meta.json").read_text())
        (broken / "tracks.csv").write_text("this,is,not,the,header\n1,2,3,4,5\n")
        assert main(["validate", str(broken)]) == 2
        assert "tracks.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "broken_file,argv,status",
        [
            ("tracks.csv", ["compare", "--subject", "ind000", "--method-a", "ground_focal",
                            "--method-b", "drone_focal"], 0),
            ("tracks.csv", ["report"], 0),
            ("tracks.csv", ["timebudget"], 0),
            ("tracks.csv", ["transitions"], 0),
            ("tracks.csv", ["validate"], 2),
            ("tracks.csv", ["interactions"], 2),
            ("observations.csv", ["interactions"], 0),
            ("observations.csv", ["miniscenes"], 0),
            ("labels.csv", ["compare", "--subject", "ind000", "--method-a", "ground_focal",
                            "--method-b", "drone_focal"], 0),
            ("labels.csv", ["compare", "--subject", "ind000", "--method-a", "ground_scan",
                            "--method-b", "ml_auto"], 2),
        ],
    )
    def test_only_files_a_command_reads_can_fail_it(
        self, sim_session, tmp_path, broken_file, argv, status
    ):
        broken = tmp_path / "broken"
        shutil.copytree(sim_session, broken)
        (broken / broken_file).write_text("this,is,not,the,header\n1,2,3,4,5\n")
        command, *options = argv
        if command != "validate":
            options += ["--out", str(tmp_path / "o")]
        assert main([command, str(broken), *options]) == status

    @pytest.mark.parametrize("fps", ['"nan"', '"inf"', "NaN"])
    def test_non_finite_fps_is_a_parse_error(self, tmp_path, capsys, fps):
        session = tiny_session(tmp_path / "s")
        meta = (session / "meta.json").read_text()
        (session / "meta.json").write_text(meta.replace('"fps": 30.0', f'"fps": {fps}'))
        assert main(["validate", str(session)]) == 2
        assert "fps" in capsys.readouterr().err

    def test_invariant_violation_reports_and_fails(self, tmp_path, capsys):
        session = tiny_session(tmp_path / "weird", label_code="ZZ")
        assert main(["validate", str(session)]) == 1
        assert "ZZ" in capsys.readouterr().out

    def test_unknown_config_key(self, sim_session, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        rc = main(["timebudget", str(sim_session), "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_session_dir(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope")]) == 2

    def test_analysis_error_exit_one(self, sim_session, tmp_path, capsys):
        rc = main(["transitions", str(sim_session), "--interval", "-5",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "interval" in capsys.readouterr().err


class TestSimulate:
    def test_seeded_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--seed", "7", "--out", str(a)]) == 0
        assert main(["simulate", "--seed", "7", "--out", str(b)]) == 0
        names = ["meta.json", "tracks.csv", "labels.csv", "observations.csv"]
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert match == names and not mismatch and not errors

    def test_config_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"simulation": {"n_individuals": 2, "duration_s": 60}}')
        out = tmp_path / "o"
        assert main(["simulate", "--seed", "3", "--config", str(cfg), "--out", str(out)]) == 0
        tracks = (out / "tracks.csv").read_text()
        assert "ind001" in tracks and "ind002" not in tracks


class TestTimebudget:
    def test_csv_output(self, sim_session, tmp_path):
        out = tmp_path / "o"
        assert main(["timebudget", str(sim_session), "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "timebudget.csv").open()))
        assert rows
        assert set(rows[0]) == {"source", "subject", "code", "seconds", "proportion"}
        by_subject: dict[tuple[str, str], float] = {}
        for row in rows:
            key = (row["source"], row["subject"])
            by_subject[key] = by_subject.get(key, 0.0) + float(row["proportion"])
        for total in by_subject.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_json_output(self, sim_session, tmp_path):
        out = tmp_path / "o"
        assert main(["timebudget", str(sim_session), "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "timebudget.json").read_text())
        assert isinstance(doc, list) and doc
        assert {"source", "subject", "code", "seconds", "proportion"} <= set(doc[0])
        assert isinstance(doc[0]["proportion"], float)


class TestTransitions:
    def test_rows_sum_to_one(self, sim_session, tmp_path):
        out = tmp_path / "o"
        assert main(["transitions", str(sim_session), "--interval", "10",
                     "--out", str(out)]) == 0
        with (out / "transitions.csv").open() as fh:
            rows = list(csv.reader(fh))
        codes = rows[0][1:]
        assert codes
        for row in rows[1:]:
            total = sum(float(v) for v in row[1:])
            assert total == pytest.approx(1.0, abs=1e-9) or total == 0.0

    def test_counts_matrix_is_integral(self, sim_session, tmp_path):
        out = tmp_path / "o"
        main(["transitions", str(sim_session), "--out", str(out)])
        with (out / "transition_counts.csv").open() as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            for v in row[1:]:
                assert float(v) == int(float(v))


class TestInteractions:
    def test_published_counts_mode(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "composition": {"grevys_zebra": 11, "plains_zebra": 2, "giraffe": 3},
            "overlap_counts": {
                "grevys_zebra|grevys_zebra": 4836,
                "plains_zebra|plains_zebra": 93,
                "giraffe|giraffe": 78,
                "grevys_zebra|plains_zebra": 28,
            },
        }))
        out = tmp_path / "o"
        assert main(["interactions", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "overlap_summary.csv").read_text()
        for value in ("87.93", "93.00", "26.00", "1.27", "0.00"):
            assert value in text

    def test_session_mode_emits_events(self, tmp_path):
        session = tmp_path / "s"
        session.mkdir()
        from ethokit import VideoMeta
        from conftest import T0

        meta = VideoMeta("pair", 1920, 1080, T0, fps=30.0)
        (session / "meta.json").write_text(dump_video_meta(meta))
        a = make_track("a", frames=range(0, 50), x=100.0)
        b = make_track("b", frames=range(0, 50), x=102.0)
        (session / "tracks.csv").write_text(dump_tracks([a, b], "pair"))
        out = tmp_path / "o"
        assert main(["interactions", str(session), "--out", str(out)]) == 0
        rows = (out / "interactions.csv").read_text().strip().split("\n")
        assert rows[0] == "a,b,start_frame,end_frame,frames,mean_ratio,tag"
        assert rows[1].startswith("a,b,0,49,50,")


class TestCompare:
    def test_focal_agreement_outputs(self, sim_session, tmp_path):
        out = tmp_path / "o"
        rc = main(["compare", str(sim_session), "--subject", "ind000",
                   "--method-a", "ground_focal", "--method-b", "drone_focal",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "agreement.json").read_text())
        assert doc["subject"] == "ind000"
        assert -1.0 <= doc["kappa"] <= 1.0
        assert doc["samples"] > 0
        assert (out / "paired.csv").exists()
        assert (out / "confusion.csv").exists()
        assert (out / "class_metrics.csv").exists()

    def test_byte_identical_reruns(self, sim_session, tmp_path):
        argv = ["compare", str(sim_session), "--subject", "ind001",
                "--method-a", "ground_scan", "--method-b", "drone_focal"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        names = ["paired.csv", "confusion.csv", "agreement.json", "class_metrics.csv"]
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert match == names and not mismatch and not errors

    def test_unknown_method_exit_one(self, sim_session, tmp_path):
        rc = main(["compare", str(sim_session), "--subject", "ind000",
                   "--method-a", "telepathy", "--method-b", "drone_focal",
                   "--out", str(tmp_path / "o")])
        assert rc == 1


class TestRegress:
    def test_fits_dummy_coded_table(self, tmp_path):
        data = tmp_path / "data.csv"
        lines = ["habitat,herd,prop"]
        vals = {("closed", "large"): 0.5, ("closed", "small"): 0.4,
                ("open", "large"): 0.3, ("open", "small"): 0.1}
        for i in range(40):
            habitat = "open" if i % 2 else "closed"
            herd = "small" if (i // 2) % 2 else "large"
            noise = 0.01 * ((i * 7) % 5 - 2)
            lines.append(f"{habitat},{herd},{vals[(habitat, herd)] + noise}")
        data.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"references": {"habitat": "closed", "herd": "large"}}')
        out = tmp_path / "o"
        rc = main(["regress", str(data), "--response", "prop",
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        table = (out / "regression.csv").read_text().strip().split("\n")
        assert table[0] == "term,beta,se,t,p,ci_low,ci_high,stars"
        terms = [row.split(",")[0] for row in table[1:]]
        assert terms == ["intercept", "habitat[open]", "herd[small]"]
        model = json.loads((out / "model.json").read_text())
        assert 0.0 <= model["r_squared"] <= 1.0
        assert set(model["block_f_squared"]) == {"habitat", "herd"}

    def test_missing_response_column(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("a,b\n1,2\n")
        rc = main(["regress", str(data), "--response", "nope",
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestReport:
    def test_emits_tables_and_figures(self, sim_session, tmp_path):
        out = tmp_path / "o"
        assert main(["report", str(sim_session), "--out", str(out)]) == 0
        for name in ("timebudget.csv", "transitions.csv", "transitions.svg", "gantt.svg"):
            assert (out / name).exists(), name
        assert (out / "transitions.svg").read_text().startswith("<?xml")


class TestMiniscenes:
    def test_manifest_from_session(self, tmp_path):
        session = tiny_session(tmp_path / "s")
        out = tmp_path / "o"
        assert main(["miniscenes", str(session), "--out", str(out)]) == 0
        lines = (out / "miniscenes.csv").read_text().strip().split("\n")
        assert lines[0] == "track_id,start_frame,end_frame,cx,cy,out_w,out_h"
        assert len(lines) == 2

    def test_min_frames_flag(self, tmp_path):
        session = tiny_session(tmp_path / "s")
        out = tmp_path / "o"
        assert main(["miniscenes", str(session), "--min-frames", "500",
                     "--out", str(out)]) == 0
        lines = (out / "miniscenes.csv").read_text().strip().split("\n")
        assert len(lines) == 1  # header only


class TestEthogramEnv:
    def test_env_var_overrides_default(self, tmp_path, monkeypatch, capsys):
        custom = tmp_path / "tiny_ethogram.csv"
        custom.write_text(
            "code,name,species,technical\n"
            "W,Walk,both,0\n"
            "OOS,Out of Sight,both,1\n"
        )
        monkeypatch.setenv("ETHOKIT_ETHOGRAM", str(custom))
        session = tiny_session(tmp_path / "s", label_code="G")
        assert main(["validate", str(session)]) == 1
        assert "G" in capsys.readouterr().out
