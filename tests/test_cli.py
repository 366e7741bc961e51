"""Command-line surface: exit codes, outputs, determinism."""

from __future__ import annotations

import ast
import csv
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
import scipy.stats

import ethokit
from ethokit import (
    ParseError,
    VideoMeta,
    dump_ground_observations,
    dump_labels,
    dump_tracks,
    dump_video_meta,
)
from ethokit.cli import load_config, main
from conftest import T0, make_labels, make_track, obs


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

    def test_oversized_csv_field_is_a_parse_error(self, tmp_path, capsys):
        session = tiny_session(tmp_path / "s")
        labels = session / "labels.csv"
        huge = "x" * 200_000  # over the csv module's 131 072-character field limit
        labels.write_text(labels.read_text() + f"tiny,{huge},120,130,G\n")
        assert main(["timebudget", str(session), "--out", str(tmp_path / "o")]) == 2
        assert "labels.csv row 3: field larger than field limit" in capsys.readouterr().err

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

    def test_non_numeric_fps_is_a_parse_error(self, tmp_path, capsys):
        session = tiny_session(tmp_path / "s")
        meta = (session / "meta.json").read_text()
        (session / "meta.json").write_text(meta.replace('"fps": 30.0', '"fps": "abc"'))
        assert main(["validate", str(session)]) == 2
        assert "fps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "timebudget", "transitions"])
    def test_negative_label_frame_is_a_parse_error(self, tmp_path, capsys, command):
        session = tiny_session(tmp_path / "s")
        (session / "labels.csv").write_text(
            "session_id,track_id,start_frame,end_frame,code\ntiny,t1,-3,-1,G\ntiny,t1,0,119,G\n"
        )
        options = [] if command == "validate" else ["--out", str(tmp_path / "o")]
        assert main([command, str(session), *options]) == 2
        err = capsys.readouterr().err
        assert "labels.csv row 2 column 'start_frame': negative frame -3" in err

    @pytest.mark.parametrize("command", ["validate", "timebudget"])
    def test_label_frame_past_float_range_is_a_parse_error(self, tmp_path, capsys, command):
        session = tiny_session(tmp_path / "s")
        (session / "labels.csv").write_text(
            f"session_id,track_id,start_frame,end_frame,code\ntiny,t1,0,{'9' * 400},G\n"
        )
        options = [] if command == "validate" else ["--out", str(tmp_path / "o")]
        assert main([command, str(session), *options]) == 2
        err = capsys.readouterr().err
        assert "labels.csv row 2 column 'end_frame': frame past the float range" in err

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

    @pytest.mark.parametrize("interval", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv, without",
        [
            (["transitions"], "labels.csv"),  # samples the focal observation streams
            (["transitions"], None),
            (["compare", "--subject", "ind000", "--method-a", "ground_focal",
              "--method-b", "drone_focal"], None),
        ],
    )
    def test_non_finite_interval_exit_one(self, sim_session, tmp_path, argv, without, interval):
        session = tmp_path / "s"
        shutil.copytree(sim_session, session)
        if without:
            (session / without).unlink()
        argv = [argv[0], str(session), *argv[1:], "--interval", interval,
                "--out", str(tmp_path / "o")]
        # in a subprocess, so that a sampling loop that never ends fails the test
        proc = run_python(
            f"import sys\nfrom ethokit.cli import main\nsys.exit(main({argv!r}))", timeout=60
        )
        assert proc.returncode == 1
        assert f"sampling interval must be positive and finite, got {interval}" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["transitions"],
            ["compare", "--subject", "ind000", "--method-a", "ground_focal",
             "--method-b", "drone_focal"],
        ],
        ids=["transitions", "compare"],
    )
    def test_tiny_interval_exit_one(self, tmp_path, capsys, argv):
        argv = [argv[0], str(GOLDEN), *argv[1:], "--interval", "1e-6", "--out", str(tmp_path / "o")]
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert "samples, more than the 10000000 allowed" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "data" / "golden"


def _fault_ind001(text: str, fault: str) -> str:
    """observations.csv text with one fault in a stream of subject ind001."""
    lines = text.splitlines(keepends=True)
    focal = [i for i, line in enumerate(lines) if line.startswith("sim,ind001,ground_focal,")]
    first = lines[focal[0]].split(",")
    if fault == "timestamp":
        lines[focal[0]] = ",".join(first[:3] + ["not-a-time", first[4]])
    elif fault == "method":
        lines = [line.replace("sim,ind001,ground_scan,", "sim,ind001,telepathy,") for line in lines]
    elif fault == "code":
        lines[focal[0]] = ",".join(first[:4]) + ",\n"
    elif fault == "end":
        assert lines[focal[-1]].rstrip().endswith(",END")
        del lines[focal[-1]]
    elif fault == "fields":
        lines[focal[0]] = lines[focal[0]].rstrip("\n") + ",extra\n"
    elif fault == "header":
        lines[0] = "observer,subject,method,time,code\n"
    return "".join(lines)


class TestObservationFaults:
    """A fault inside one observation stream fails only the commands that build it."""

    COMPARE = ["--method-a", "ground_focal", "--method-b", "drone_focal", "--interval", "2"]

    def _session(self, tmp_path, fault: str) -> Path:
        session = tmp_path / "session"
        shutil.copytree(GOLDEN, session)
        obs = session / "observations.csv"
        obs.write_text(_fault_ind001(obs.read_text(), fault))
        return session

    @pytest.mark.parametrize("fault", ["timestamp", "method", "code", "end"])
    def test_compare_of_another_subject_still_runs(self, tmp_path, capsys, fault):
        from scalar_ingest import parse_ground_observations as oracle_parse

        session = self._session(tmp_path, fault)
        clean, out = tmp_path / "clean", tmp_path / "out"
        for src, dest in ((GOLDEN, clean), (session, out)):
            argv = ["compare", str(src), "--subject", "ind000", *self.COMPARE, "--out", str(dest)]
            assert main(argv) == 0
        for name in ("paired.csv", "agreement.json", "confusion.csv", "class_metrics.csv"):
            assert (out / name).read_bytes() == (clean / name).read_bytes()
        # the commands that read every stream fail with the single-pass parser's message
        with pytest.raises(ParseError) as expected:
            oracle_parse((session / "observations.csv").read_text(), name="observations.csv")
        capsys.readouterr()
        for argv in (["validate", str(session)],
                     ["report", str(session), "--out", str(tmp_path / "r")],
                     ["timebudget", str(session), "--out", str(tmp_path / "b")]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {expected.value}\n"
        if fault != "method":  # a stream of an unknown method cannot be asked for
            argv = ["compare", str(session), "--subject", "ind001", *self.COMPARE,
                    "--out", str(tmp_path / "c")]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {expected.value}\n"

    @pytest.mark.parametrize("fault", ["fields", "header"])
    def test_structure_fault_fails_compare(self, tmp_path, capsys, fault):
        session = self._session(tmp_path, fault)
        argv = ["compare", str(session), "--subject", "ind000", *self.COMPARE,
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "observations.csv" in err
        assert ("expected 5 fields" if fault == "fields" else "unexpected header") in err


class TestGappedLabels:
    """A gap in a track's labels.csv rows is unlabeled time inside its one stream."""

    @pytest.fixture
    def gapped(self, tmp_path) -> Path:
        # frame 50 of ind002 loses its label
        session = tmp_path / "gapped"
        shutil.copytree(GOLDEN, session)
        labels = session / "labels.csv"
        text = labels.read_text()
        assert "sim-7,ind002,50,54,W\n" in text
        labels.write_text(text.replace("sim-7,ind002,50,54,W\n", "sim-7,ind002,51,54,W\n"))
        return session

    def test_compare_reads_the_whole_track(self, gapped, tmp_path):
        out = tmp_path / "o"
        argv = ["compare", str(gapped), "--subject", "ind002", "--method-a", "ground_scan",
                "--method-b", "ml_auto", "--interval", "2", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "agreement.json").read_text())["samples"] == 17

    def test_timebudget_one_row_per_code(self, gapped, tmp_path):
        out = tmp_path / "o"
        assert main(["timebudget", str(gapped), "--out", str(out)]) == 0
        rows = csv.DictReader((out / "timebudget.csv").read_text().splitlines())
        ind002 = [r for r in rows if (r["source"], r["subject"]) == ("labels", "ind002")]
        # 199 labeled frames at 5 fps, the unlabeled frame in no denominator
        assert {r["code"]: float(r["seconds"]) for r in ind002} == {
            "G": 30.0, "R": 3.0, "TR": 2.0, "W": 4.8
        }
        assert len(ind002) == 4

    def test_report_draws_one_lane_per_track(self, gapped, tmp_path):
        out = tmp_path / "o"
        assert main(["report", str(gapped), "--out", str(out)]) == 0
        assert (out / "gantt.svg").read_text().count(">ind002<") == 1


@pytest.mark.parametrize("command", ["timebudget", "report"])
def test_track_without_visible_time_is_left_out(tmp_path, command):
    session = tiny_session(tmp_path / "s")
    # 30 s of t1 for report's transitions; t2 is out of sight throughout
    labels = [make_labels(0, 899, "G"), make_labels(0, 119, "OOS", track_id="t2")]
    (session / "labels.csv").write_text(dump_labels(labels, "tiny"))
    out = tmp_path / "o"
    assert main([command, str(session), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "timebudget.csv").read_text().splitlines()))
    assert [(r["subject"], r["code"]) for r in rows] == [("t1", "G")]


COMPARE_FOCAL = ["compare", "{session}", "--subject", "ind000", "--method-a", "ground_focal",
                 "--method-b", "drone_focal"]
COUNTS = {"giraffe|giraffe": 4, "giraffe|grevys_zebra": 2}


class TestConfigNumbers:
    """A wrongly typed or non-finite config number is a parse error naming its key."""

    @pytest.mark.parametrize(
        "doc,argv,key",
        [
            ({"params": {"min_overlap_frames": "4"}}, COMPARE_FOCAL, "params.min_overlap_frames"),
            ({"params": {"min_overlap_frames": "4"}}, ["report", "{session}"],
             "params.min_overlap_frames"),
            ({"params": {"min_overlap_frames": "4"}}, ["interactions", "{session}"],
             "params.min_overlap_frames"),
            ({"params": {"min_overlap_frames": 4.5}}, ["interactions", "{session}"],
             "params.min_overlap_frames"),
            ({"params": {"downsample_interval_s": math.nan}}, ["report", "{session}"],
             "params.downsample_interval_s"),
            ({"params": {"overlap_ratio_threshold": True}}, ["interactions", "{session}"],
             "params.overlap_ratio_threshold"),
            ({"composition": {"giraffe": 1.7, "grevys_zebra": 3}, "overlap_counts": COUNTS},
             ["interactions"], "composition['giraffe']"),
            ({"composition": {"giraffe": 2, "grevys_zebra": 3},
              "overlap_counts": {"giraffe|giraffe": "4"}},
             ["interactions"], "overlap_counts['giraffe|giraffe']"),
            ({"clock_offset_s": math.nan}, COMPARE_FOCAL, "clock_offset_s"),
            ({"clock_offset_s": "1.5"}, COMPARE_FOCAL, "clock_offset_s"),
            ({"crop": {"out_w": 400.5}}, ["miniscenes", "{session}"], "crop.out_w"),
            ({"crop": {"out_h": math.inf}}, ["miniscenes", "{session}"], "crop.out_h"),
        ],
    )
    def test_bad_number_is_a_parse_error(self, sim_session, tmp_path, capsys, doc, argv, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))  # json writes NaN and Infinity, and reads them back
        argv = [a.format(session=sim_session) for a in argv]
        rc = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_whole_float_counts_are_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "composition": {"giraffe": 2.0, "grevys_zebra": 3},
            "overlap_counts": COUNTS,
            "params": {"min_overlap_frames": 4.0},
            "crop": {"out_w": 400.0},
        }))
        out = tmp_path / "o"
        assert main(["interactions", "--config", str(cfg), "--out", str(out)]) == 0
        # two giraffes make one possible pair
        assert "giraffe,giraffe,4,1,4.00" in (out / "overlap_summary.csv").read_text()


class TestConfigValues:
    """A config value the run cannot use is a parse error naming its key (exit 2)."""

    @pytest.mark.parametrize(
        "doc,argv,key",
        [
            ({"params": {"overlap_metric": 5}}, ["interactions", "{session}"],
             "params.overlap_metric"),
            ({"params": {"downsample_interval_s": -1}}, ["report", "{session}"],
             "params.downsample_interval_s"),
            ({"composition": {"grevys_zebra": -3}}, ["interactions", "{session}"],
             "composition['grevys_zebra'] must not be negative"),
            ({"composition": {"giraffe": 2}, "overlap_counts": {"giraffe|giraffe": -4}},
             ["interactions"], "overlap_counts['giraffe|giraffe'] must not be negative"),
            ({"simulation": {"fps": "x"}}, ["simulate", "--seed", "1"], "simulation.fps"),
            ({"simulation": {"n_individuals": 1.5}}, ["simulate", "--seed", "1"],
             "simulation.n_individuals"),
            ({"simulation": {"duration_s": -60}}, ["simulate", "--seed", "1"],
             "simulation: duration, step and fps must be positive"),
            ({"simulation": {"codes": 5}}, ["simulate", "--seed", "1"], "simulation:"),
            ({"simulation": {"zones": [[0, 0, 10]]}}, ["simulate", "--seed", "1"], "simulation:"),
        ],
    )
    def test_unusable_value_is_a_parse_error(self, sim_session, tmp_path, capsys, doc, argv, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = [a.format(session=sim_session) for a in argv]
        rc = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,count",
        [
            ("scan_period_s", 1e-300, "scan instants (duration_s / scan_period_s)"),
            ("fps", 1e300, "frames (duration_s * fps)"),
            ("duration_s", 1e308, "steps (duration_s / step_s)"),
            ("step_s", 1e-300, "steps (duration_s / step_s)"),
        ],
    )
    def test_oversized_simulation_is_a_parse_error(self, tmp_path, key, value, count):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulation": {key: value}}))
        argv = ["simulate", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path / "o")]
        # in a subprocess, so that a loop over steps, frames or instants
        # that never ends fails the test
        proc = run_python(
            f"import sys\nfrom ethokit.cli import main\nsys.exit(main({argv!r}))", timeout=60
        )
        assert proc.returncode == 2
        assert f"cfg.json: simulation: {count}: interval" in proc.stderr
        assert "samples, more than the 10000000 allowed" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"params": ' * 5_000, "1" * 5_000])
    def test_unreadable_json_is_a_parse_error(self, tmp_path, capsys, text):
        # nesting past the recursion limit, and an integer past int()'s digit limit
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        with pytest.raises(ParseError, match="cfg.json: invalid JSON"):
            load_config(cfg)
        assert main(["regress", "data.csv", "--response", "y", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2


class TestConfigSections:
    """A config section of the wrong JSON type is a parse error naming its key."""

    @pytest.mark.parametrize(
        "doc,key",
        [
            ({"ethogram": 5}, "ethogram must be a string"),
            ({"params": []}, "params must be an object"),
            ({"label_map": [1]}, "label_map must be an object"),
            ({"label_map": {"TR": 1}}, "label_map['TR'] must be a string"),
            ({"crop": [400, 300]}, "crop must be an object"),
            ({"clock_offset_s": [1]}, "clock_offset_s must be a finite number"),
            ({"composition": [1]}, "composition must be an object"),
            ({"overlap_counts": [["giraffe", "giraffe", 4]]}, "overlap_counts must be an object"),
            ({"simulation": []}, "simulation must be an object"),
            ({"references": []}, "references must be an object"),
            ({"factors": "habitat"}, "factors must be a list"),
            ({"factors": ["habitat", 1]}, "factors must hold strings"),
            ({"interactions": "habitat|herd"}, "interactions must be a list"),
            ({"interactions": [["habitat"]]}, "interactions must hold [factor, factor] pairs"),
            ({"interactions": [["habitat", 2]]}, "interactions must hold [factor, factor] pairs"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "regress"])
    def test_wrong_type_is_a_parse_error(self, tmp_path, capsys, doc, key, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        if command == "validate":
            argv = ["validate", str(tiny_session(tmp_path / "s"))]
        else:
            data = small_regress_table(tmp_path / "data.csv")
            argv = ["regress", str(data), "--response", "prop", "--out", str(tmp_path / "o")]
        assert main([*argv, "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    def test_every_section_at_its_default(self, tmp_path):
        from ethokit.cli import _default_config, load_config

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "ethogram": None, "params": {}, "label_map": {}, "crop": {}, "clock_offset_s": 0.0,
            "composition": {}, "overlap_counts": {}, "simulation": {}, "references": {},
            "factors": [], "interactions": [],
        }))
        assert load_config(cfg) == _default_config()

    def test_valid_sections_are_read(self, tmp_path):
        from ethokit.cli import load_config

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "ethogram": "custom.csv", "label_map": {"TR": "W"},
            "references": {"habitat": "open", "herd": 3}, "factors": ["habitat", "herd"],
            "interactions": [["habitat", "herd"]],
        }))
        config = load_config(cfg)
        assert config.ethogram_path == "custom.csv"
        assert config.label_map == {"TR": "W"}
        assert config.references == {"habitat": "open", "herd": "3"}
        assert config.factors == ["habitat", "herd"]
        assert config.interactions == [("habitat", "herd")]


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

    def test_each_file_is_written_whole_into_a_new_directory(self, tmp_path, monkeypatch):
        renamed = []
        replace = os.replace

        def record(src, dst):
            renamed.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        out = tmp_path / "new" / "session"
        assert main(["simulate", "--seed", "1", "--out", str(out)]) == 0
        names = ["labels.csv", "meta.json", "observations.csv", "tracks.csv"]
        assert sorted(renamed) == names
        assert sorted(path.name for path in out.iterdir()) == names  # no .tmp file left


class TestTimebudget:
    def test_csv_output(self, sim_session, tmp_path):
        out = tmp_path / "o"
        assert main(["timebudget", str(sim_session), "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "timebudget.csv").read_text().splitlines()))
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


class TestLabelFaults:
    """compare reads only its subject's frames from labels.csv, but the whole
    file's structure."""

    COMPARE = ["--method-a", "ground_scan", "--method-b", "ml_auto", "--interval", "2"]

    def _session(self, tmp_path, edit) -> Path:
        session = tmp_path / "session"
        shutil.copytree(GOLDEN, session)
        labels = session / "labels.csv"
        lines = labels.read_text().splitlines()
        edit(lines)
        labels.write_text("\n".join(lines) + "\n")
        return session

    @pytest.mark.parametrize("fault", ["not-a-number", "negative", "overlap", "backwards"])
    def test_fault_in_another_track_does_not_fail_compare(self, tmp_path, capsys, fault):
        from scalar_ingest import parse_labels as oracle_parse_labels

        def edit(lines):
            i = next(i for i, line in enumerate(lines) if ",ind002," in line)
            sid, track, start, end, code = lines[i].split(",")
            start, end = {"not-a-number": ("x", end), "negative": ("-1", end),
                          "overlap": (start, str(int(lines[i + 1].split(",")[2]))),
                          "backwards": (end, str(int(start) - 1))}[fault]
            lines[i] = ",".join([sid, track, start, end, code])

        session = self._session(tmp_path, edit)
        clean, out = tmp_path / "clean", tmp_path / "out"
        for src, dest in ((GOLDEN, clean), (session, out)):
            argv = ["compare", str(src), "--subject", "ind000", *self.COMPARE, "--out", str(dest)]
            assert main(argv) == 0
        for name in ("paired.csv", "agreement.json", "confusion.csv", "class_metrics.csv"):
            assert (out / name).read_bytes() == (clean / name).read_bytes()
        with pytest.raises(ParseError) as expected:
            oracle_parse_labels((session / "labels.csv").read_text(), 30.0, "labels.csv")
        capsys.readouterr()
        for argv in (["compare", str(session), "--subject", "ind002", *self.COMPARE,
                      "--out", str(tmp_path / "c")],
                     ["validate", str(session)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {expected.value}\n"

    @pytest.mark.parametrize(
        "fault,message",
        [("header", "labels.csv: unexpected header"),
         ("fields", "labels.csv row 3: expected 5 fields, got 6"),
         # ind003's rows come first, their frames reversed: only the order is read
         ("order", "labels.csv row 8 column 'track_id': rows not sorted by track_id")],
    )
    def test_structure_fault_fails_compare(self, tmp_path, capsys, fault, message):
        def edit(lines):
            if fault == "header":
                lines[0] = lines[0].replace("start_frame", "start")
            elif fault == "fields":
                lines[2] += ",extra"
            else:
                lines[1:] = lines[:0:-1]

        session = self._session(tmp_path, edit)
        argv = ["compare", str(session), "--subject", "ind000", *self.COMPARE,
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


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


def small_regress_table(path: Path) -> Path:
    """Twelve rows of a two-factor table with response column prop."""
    lines = ["habitat,herd,prop"]
    for i in range(12):
        habitat = "open" if i % 2 else "closed"
        herd = "small" if (i // 2) % 2 else "large"
        lines.append(f"{habitat},{herd},{0.1 * (i % 5) + (0.3 if habitat == 'open' else 0.0)}")
    path.write_text("\n".join(lines) + "\n")
    return path


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

    def test_p_values_match_scipy_survival_functions(self, tmp_path):
        data = tmp_path / "data.csv"
        lines = ["habitat,herd,prop"]
        effects = {("bush", "large"): 0.0, ("bush", "small"): 0.3,
                   ("open", "large"): 0.1, ("open", "small"): 1.5}
        for i in range(48):
            habitat = "open" if i % 2 else "bush"
            herd = "small" if (i // 2) % 2 else "large"
            lines.append(f"{habitat},{herd},{effects[(habitat, herd)] + 0.05 * ((i * 7) % 5 - 2)}")
        data.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"interactions": [["habitat", "herd"]]}')
        out = tmp_path / "o"
        rc = main(["regress", str(data), "--response", "prop",
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        model = json.loads((out / "model.json").read_text())
        test = model["interaction_test"]
        assert test["p"] < 1e-16
        assert test["p"] == pytest.approx(
            scipy.stats.f.sf(test["f"], test["df1"], test["df2"]), rel=1e-12, abs=0.0
        )
        with open(out / "regression.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        df = model["n_obs"] - len(rows)
        for row in rows:
            expected = 2.0 * scipy.stats.t.sf(abs(float(row["t"])), df)
            assert float(row["p"]) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_missing_response_column(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("a,b\n1,2\n")
        rc = main(["regress", str(data), "--response", "nope",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_header_only_table_is_a_parse_error(self, tmp_path, capsys):
        data = tmp_path / "t.csv"
        data.write_text("habitat,y\n")
        rc = main(["regress", str(data), "--response", "y", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "t.csv: no data rows" in capsys.readouterr().err

    def test_oversized_field_is_a_parse_error(self, tmp_path, capsys):
        data = small_regress_table(tmp_path / "data.csv")
        lines = data.read_text().splitlines()
        lines[3] = "x" * 200_000 + lines[3][lines[3].index(","):]
        data.write_text("\n".join(lines) + "\n")
        rc = main(["regress", str(data), "--response", "prop", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "data.csv row 4: field larger than field limit" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, tmp_path):
        plain = small_regress_table(tmp_path / "plain.csv")
        lines = plain.read_text().splitlines()
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join([*lines[:4], "", *lines[4:], ""]) + "\n")
        for table in (plain, blank):
            argv = ["regress", str(table), "--response", "prop", "--out", str(tmp_path / table.stem)]
            assert main(argv) == 0
        for name in ("regression.csv", "model.json"):
            assert (tmp_path / "blank" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_bad_response_after_a_blank_line_names_its_own_row(self, tmp_path, capsys):
        data = small_regress_table(tmp_path / "data.csv")
        lines = data.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",x"
        data.write_text("\n".join([*lines[:2], "", *lines[2:]]) + "\n")
        rc = main(["regress", str(data), "--response", "prop", "--out", str(tmp_path / "o")])
        assert rc == 2
        # the blank line is row 3 of the file, so the bad value is in row 5
        assert "data.csv row 5 column 'prop': not a number: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "0.5 "])
    def test_loose_response_is_a_parse_error(self, tmp_path, capsys, value):
        data = small_regress_table(tmp_path / "data.csv")
        lines = data.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + value
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["regress", str(data), "--response", "prop", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"data.csv row 4 column 'prop': not a number: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_response_is_a_parse_error(self, tmp_path, capsys, value):
        data = small_regress_table(tmp_path / "data.csv")
        lines = data.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + f",{value}"
        data.write_text("\n".join(lines) + "\n")
        rc = main(["regress", str(data), "--response", "prop", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "row 4 column 'prop'" in err
        assert "not a finite number" in err


# an id and a code holding the CSV delimiter and quote
SUBJECT, CODE = 'ind,"0"', 'G,"x"'


@pytest.fixture
def quoted_session(tmp_path) -> Path:
    """Ground and drone focal records of SUBJECT, coded CODE and W."""
    session = tmp_path / "quoted"
    session.mkdir()
    (session / "meta.json").write_text(dump_video_meta(VideoMeta("q", 1920, 1080, T0, fps=30.0)))
    ground = obs(SUBJECT, "ground_focal", (0, 30, CODE), (30, 60, "W"), (60, 100, CODE))
    drone = obs(SUBJECT, "drone_focal", (0, 35, CODE), (35, 60, "W"), (60, 100, CODE))
    (session / "observations.csv").write_text(dump_ground_observations([ground, drone]))
    return session


def csv_rows(path: Path) -> list[list[str]]:
    """The rows of a CSV output, each as wide as its header."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {len(rows[0])}
    return rows


class TestCsvQuoting:
    """Every CSV output quotes a field holding a comma or a quote, and parses back."""

    def test_timebudget(self, quoted_session, tmp_path):
        out = tmp_path / "o"
        assert main(["timebudget", str(quoted_session), "--out", str(out)]) == 0
        rows = csv_rows(out / "timebudget.csv")
        assert {(row[1], row[2]) for row in rows[1:]} == {(SUBJECT, CODE), (SUBJECT, "W")}

    def test_transitions(self, quoted_session, tmp_path):
        out = tmp_path / "o"
        assert main(["transitions", str(quoted_session), "--interval", "10",
                     "--out", str(out)]) == 0
        for name in ("transitions.csv", "transition_counts.csv"):
            rows = csv_rows(out / name)
            assert rows[0] == ["code", CODE, "W"]
            assert [row[0] for row in rows[1:]] == [CODE, "W"]

    def test_compare(self, quoted_session, tmp_path):
        out = tmp_path / "o"
        assert main(["compare", str(quoted_session), "--subject", SUBJECT,
                     "--method-a", "ground_focal", "--method-b", "drone_focal",
                     "--interval", "5", "--out", str(out)]) == 0
        rows = csv_rows(out / "confusion.csv")
        assert rows[0] == ["code", CODE, "W"]
        assert [row[0] for row in rows[1:]] == [CODE, "W"]
        rows = csv_rows(out / "class_metrics.csv")
        assert [row[0] for row in rows[1:]] == [CODE, "W", "macro"]

    def test_regression(self, tmp_path):
        data = small_regress_table(tmp_path / "data.csv")
        data.write_text(data.read_text().replace("open", '"open,wet"'))
        out = tmp_path / "o"
        assert main(["regress", str(data), "--response", "prop", "--out", str(out)]) == 0
        rows = csv_rows(out / "regression.csv")
        assert [row[0] for row in rows[1:]] == ["intercept", "habitat[open,wet]", "herd[small]"]


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("bogus\nW,Walk,both,0\n", "ethogram.csv: unexpected header ['bogus']"),
        ("code,name,species,technical\nW,Walk,both\n", "ethogram.csv row 2: expected 4 fields, got 3"),
        ("code,name,species,technical\nW,Walk,both,0\nW,Wade,both,0\n",
         "duplicate ethogram code 'W'"),
        ("code,name,species,technical\nW,Walk,fish,0\n", "species must be one of"),
        ("code,name,species,technical\nW,Walk,both,yes\n",
         "ethogram.csv row 2 column 'technical': not a boolean (0/1): 'yes'"),
    ],
    ids=["header", "fields", "duplicate", "species", "boolean"],
)
def test_malformed_ethogram_is_a_parse_error(tmp_path, capsys, text, message):
    ethogram = tmp_path / "ethogram.csv"
    ethogram.write_text(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ethogram": str(ethogram)}))
    session = tiny_session(tmp_path / "s")
    assert main(["validate", str(session), "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def _with_bad_byte(path: Path) -> int:
    """Put byte 0xfb, which no UTF-8 text holds, in the middle of an ASCII file."""
    data = path.read_bytes()
    at = len(data) // 2
    path.write_bytes(data[:at] + b"\xfb" + data[at:])
    return at


@pytest.mark.parametrize(
    "name",
    ["meta.json", "tracks.csv", "labels.csv", "observations.csv", "cfg.json", "ethogram.csv",
     "table.csv"],
)
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, name):
    session = tmp_path / "session"
    shutil.copytree(GOLDEN, session)
    ethogram = tmp_path / "ethogram.csv"
    ethogram.write_bytes((Path(ethokit.__file__).parent / "data" / "ethogram_v1.csv").read_bytes())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ethogram": str(ethogram)}))
    table = small_regress_table(tmp_path / "table.csv")
    at = _with_bad_byte(session / name if (session / name).exists() else tmp_path / name)
    if name == "table.csv":
        argv = ["regress", str(table), "--response", "prop", "--out", str(tmp_path / "o")]
    else:
        argv = ["validate", str(session), "--config", str(cfg)]
    assert main(argv) == 2
    assert f"{name}: not UTF-8 at byte {at}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "missing",
    ["meta.json", "tracks.csv", "observations.csv", "table", "config", "config-ethogram",
     "env-ethogram"],
)
def test_missing_input_is_a_parse_error(tmp_path, monkeypatch, capsys, missing):
    session = tmp_path / "session"
    shutil.copytree(GOLDEN, session)
    absent = tmp_path / "absent"
    out = ["--out", str(tmp_path / "o")]
    if missing in ("meta.json", "tracks.csv", "observations.csv"):
        absent = session / missing
        absent.unlink()
    argv = {
        "tracks.csv": ["interactions", str(session), *out],
        "observations.csv": ["compare", str(session), "--subject", "ind000", "--method-a",
                             "ground_focal", "--method-b", "drone_focal", *out],
        "table": ["regress", str(absent), "--response", "prop", *out],
        "config": ["validate", str(session), "--config", str(absent)],
    }.get(missing, ["validate", str(session)])
    if missing == "config-ethogram":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ethogram": str(absent)}))
        argv += ["--config", str(cfg)]
    if missing == "env-ethogram":
        monkeypatch.setenv("ETHOKIT_ETHOGRAM", str(absent))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: missing file: {absent}\n"


# the commands that read behavior codes but check none of them against an ethogram
ANALYSES = {
    "timebudget": ["timebudget", "{session}", "--out", "{out}"],
    "transitions": ["transitions", "{session}", "--interval", "1", "--out", "{out}"],
    "compare": ["compare", "{session}", "--subject", "ind000", "--method-a", "ground_focal",
                "--method-b", "drone_focal", "--interval", "2", "--out", "{out}"],
    "report": ["report", "{session}", "--out", "{out}"],
}


class TestEthogramEnv:
    @pytest.fixture
    def session(self, tmp_path) -> Path:
        """The golden session without labels.csv: every analysis reads
        observations.csv, whose streams carry out-of-sight time."""
        session = tmp_path / "session"
        shutil.copytree(GOLDEN, session)
        (session / "labels.csv").unlink()
        return session

    @staticmethod
    def _run(command: str, session: Path, out: Path) -> dict[str, bytes]:
        argv = [a.format(session=session, out=out) for a in ANALYSES[command]]
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("command", ANALYSES)
    def test_technical_time_does_not_follow_the_ethogram(
        self, session, tmp_path, monkeypatch, command
    ):
        shipped = Path(ethokit.__file__).parent / "data" / "ethogram_v1.csv"
        custom = tmp_path / "no_oos.csv"
        lines = shipped.read_text().splitlines(keepends=True)
        custom.write_text("".join(line for line in lines if not line.startswith("OOS,")))
        default = self._run(command, session, tmp_path / "default")
        monkeypatch.setenv("ETHOKIT_ETHOGRAM", str(custom))
        assert self._run(command, session, tmp_path / "custom") == default

    # validate exits 2 on it: see test_missing_input_is_a_parse_error[env-ethogram]
    @pytest.mark.parametrize("command", ANALYSES)
    def test_a_missing_ethogram_fails_no_analysis(self, session, tmp_path, monkeypatch, command):
        monkeypatch.setenv("ETHOKIT_ETHOGRAM", str(tmp_path / "absent.csv"))
        self._run(command, session, tmp_path / "o")

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


def run_python(code: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports ethokit from this tree."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )


def _main_then_modules(argv: list[str], package: str) -> str:
    """Code that runs one command, then prints the loaded modules of package."""
    return (
        "import sys\n"
        "from ethokit.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )


# the ethokit modules `from ethokit.cli import main` loads before any command runs
CLI_MODULES = ("cli", "core")
# each command, and the further ethokit modules it loads
COMMAND_RUNS = {
    "validate": (["validate", "{session}"], ("ethogram", "ingest")),
    "compare-focal": (
        ["compare", "{session}", "--subject", "ind000", "--method-a", "ground_focal",
         "--method-b", "drone_focal", "--interval", "2", "--out", "{out}"],
        ("ingest", "metrics", "timeline"),
    ),
    "compare-scan": (
        ["compare", "{session}", "--subject", "ind002", "--method-a", "ground_scan",
         "--method-b", "ml_auto", "--interval", "2", "--out", "{out}"],
        ("ingest", "metrics", "timeline"),
    ),
    "report": (["report", "{session}", "--out", "{out}"], ("ingest", "metrics", "svgplot")),
    "timebudget": (["timebudget", "{session}", "--out", "{out}"], ("ingest", "metrics")),
    "transitions": (
        ["transitions", "{session}", "--interval", "1", "--out", "{out}"], ("ingest", "metrics")
    ),
    "miniscenes": (["miniscenes", "{session}", "--out", "{out}"], ("ingest", "miniscene")),
    "regress": (["regress", "{table}", "--response", "prop", "--out", "{out}"], ("stats",)),
    "interactions": (["interactions", "{session}", "--out", "{out}"], ("ingest", "social")),
    # published counts from --config: no session file is read
    "interactions-counts": (
        ["interactions", "--config", "{counts}", "--out", "{out}"], ("social",)
    ),
    # the simulator writes its session through ingest
    "simulate": (["simulate", "--seed", "3", "--out", "{out}"], ("ingest", "simulator")),
}


def _command_argv(command: str, tmp_path: Path) -> list[str]:
    table = small_regress_table(tmp_path / "data.csv")
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({
        "composition": {"grevys_zebra": 3, "giraffe": 2},
        "overlap_counts": {"grevys_zebra|giraffe": 4},
    }))
    return [
        a.format(session=GOLDEN, out=tmp_path / "o", table=table, counts=counts)
        for a in COMMAND_RUNS[command][0]
    ]


class TestImports:
    def test_cli_import_does_not_load_scipy(self):
        code = (
            "import sys, ethokit.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_import_does_not_load_numpy_or_urllib_request(self):
        code = (
            "import sys, ethokit.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'numpy' or m.startswith('urllib.request')))"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", [c for c in COMMAND_RUNS if c != "simulate"])
    def test_commands_without_array_math_do_not_load_numpy(self, tmp_path, command):
        done = run_python(_main_then_modules(_command_argv(command, tmp_path), "numpy"))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("command", COMMAND_RUNS)
    def test_command_loads_only_its_modules(self, tmp_path, command):
        done = run_python(_main_then_modules(_command_argv(command, tmp_path), "ethokit"))
        assert done.returncode == 0, done.stderr
        # ethokit.data holds the default ethogram's CSV, not code
        loaded = set(ast.literal_eval(done.stdout.splitlines()[-1])) - {"ethokit.data"}
        modules = (*CLI_MODULES, *COMMAND_RUNS[command][1])
        assert loaded == {"ethokit", *(f"ethokit.{m}" for m in modules)}

    def test_config_loads_simulator_only_for_a_simulation_section(self, tmp_path):
        plain, sim = tmp_path / "plain.json", tmp_path / "sim.json"
        plain.write_text('{"params": {"min_overlap_frames": 3}}')
        sim.write_text('{"simulation": {"n_individuals": 3}}')
        code = (
            "import sys\n"
            "from ethokit.cli import load_config\n"
            f"load_config({str(plain)!r})\n"
            "print('ethokit.simulator' in sys.modules)\n"
            f"load_config({str(sim)!r})\n"
            "print('ethokit.simulator' in sys.modules)"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True"]

    @staticmethod
    def _regress_argv(tmp_path: Path, out: str) -> list[str]:
        data = small_regress_table(tmp_path / "data.csv")
        (tmp_path / "cfg.json").write_text('{"interactions": [["habitat", "herd"]]}')
        return ["regress", str(data), "--response", "prop",
                "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / out)]

    def test_regress_does_not_load_scipy(self, tmp_path):
        done = run_python(_main_then_modules(self._regress_argv(tmp_path, "o"), "scipy"))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        model = json.loads((tmp_path / "o" / "model.json").read_text())
        assert "interaction_test" in model

    def test_regress_runs_with_scipy_blocked(self, tmp_path):
        # a None entry in sys.modules makes every import of scipy (or numpy) fail
        runs = (
            ("free", ""),
            ("blocked", "import sys\nsys.modules['scipy'] = None\n"),
            ("numpy-blocked", "import sys\nsys.modules['numpy'] = None\n"),
        )
        for out, prelude in runs:
            argv = self._regress_argv(tmp_path, out)
            done = run_python(prelude + f"from ethokit.cli import main\nassert main({argv!r}) == 0\n")
            assert done.returncode == 0, done.stderr
        for name in ("regression.csv", "model.json"):
            assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "free" / name).read_bytes()
            assert (
                (tmp_path / "numpy-blocked" / name).read_bytes()
                == (tmp_path / "free" / name).read_bytes()
            )
        assert "interaction_test" in json.loads((tmp_path / "blocked" / "model.json").read_text())


TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _wrapped_names() -> list[str]:
    """The keys of benchmarks/tracing.py's WRAPPED: the ethokit.cli names it wraps."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["WRAPPED"]
    )
    return [ast.literal_eval(key) for key in table.keys]


class TestTracingContract:
    """The traced benchmark pass reads each WRAPPED name from ethokit.cli with
    getattr and puts a wrapper there with setattr; the commands must then call
    the wrapper, or that layer's spans and counts read 0 without any error."""

    def test_every_wrapped_name_is_a_cli_function(self):
        names = _wrapped_names()
        assert len(names) > 20
        code = (
            "import ethokit.cli as cli\n"
            f"print([n for n in {names!r} if not callable(getattr(cli, n, None))])"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "name, command, calls",
        [("ols_fit", "regress", 2), ("read_labels", "report", 1)],
    )
    def test_wrapper_set_before_main_is_called(self, tmp_path, name, command, calls):
        if command == "regress":
            argv = TestImports._regress_argv(tmp_path, "o")  # fits twice for its F test
        else:
            argv = [command, str(GOLDEN), "--out", str(tmp_path / "o")]
        code = (
            "import ethokit.cli as cli\n"
            f"original = getattr(cli, {name!r})\n"
            "calls = []\n"
            "def counted(*args, **kwargs):\n"
            "    calls.append(1)\n"
            "    return original(*args, **kwargs)\n"
            f"setattr(cli, {name!r}, counted)\n"
            f"assert cli.main({argv!r}) == 0\n"
            f"assert getattr(cli, {name!r}) is counted\n"
            "print(len(calls))"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == str(calls)
