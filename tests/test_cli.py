"""Command-line surface: exit codes, outputs, determinism."""

from __future__ import annotations

import csv
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.stats

from ethokit import ParseError, dump_labels, dump_tracks, dump_video_meta
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

    def test_non_numeric_fps_is_a_parse_error(self, tmp_path, capsys):
        session = tiny_session(tmp_path / "s")
        meta = (session / "meta.json").read_text()
        (session / "meta.json").write_text(meta.replace('"fps": 30.0', '"fps": "abc"'))
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


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports ethokit from this tree."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def _main_then_modules(argv: list[str], package: str) -> str:
    """Code that runs one command, then prints the loaded modules of package."""
    return (
        "import sys\n"
        "from ethokit.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "{session}"],
            ["compare", "{session}", "--subject", "ind000", "--method-a", "ground_focal",
             "--method-b", "drone_focal", "--interval", "2", "--out", "{out}"],
            ["compare", "{session}", "--subject", "ind002", "--method-a", "ground_scan",
             "--method-b", "ml_auto", "--interval", "2", "--out", "{out}"],
            ["report", "{session}", "--out", "{out}"],
            ["timebudget", "{session}", "--out", "{out}"],
            ["transitions", "{session}", "--interval", "1", "--out", "{out}"],
            ["miniscenes", "{session}", "--out", "{out}"],
        ],
        ids=["validate", "compare-focal", "compare-scan", "report", "timebudget", "transitions",
             "miniscenes"],
    )
    def test_commands_without_array_math_do_not_load_numpy(self, tmp_path, argv):
        argv = [a.format(session=GOLDEN, out=tmp_path / "o") for a in argv]
        done = run_python(_main_then_modules(argv, "numpy"))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_interactions_loads_numpy(self, tmp_path):
        argv = ["interactions", str(GOLDEN), "--out", str(tmp_path / "o")]
        done = run_python(_main_then_modules(argv, "numpy"))
        assert done.returncode == 0, done.stderr
        assert "numpy" in done.stdout.splitlines()[-1]

    def test_regress_does_not_load_scipy_stats(self, tmp_path):
        data = small_regress_table(tmp_path / "data.csv")
        (tmp_path / "cfg.json").write_text('{"interactions": [["habitat", "herd"]]}')
        argv = ["regress", str(data), "--response", "prop",
                "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]
        code = (
            "import sys\n"
            "from ethokit.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy.stats' or m.startswith('scipy.stats.')))"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        model = json.loads((tmp_path / "o" / "model.json").read_text())
        assert "interaction_test" in model
