"""CLI exit codes, report files, schema validation, snapshot and resume."""

import json
from importlib import resources

import jsonschema
import pytest

from hiershare.cli import main
from hiershare.config import load_bundled_scenario, serialize_scenario
from hiershare.simnet import World
from hiershare.snapshot import (
    CorruptSnapshot,
    ResumeRefused,
    VersionMismatch,
    load_world,
    save_world,
    world_to_dict,
)


@pytest.fixture
def demo_file(tmp_path):
    config = load_bundled_scenario("demo-7user")
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(serialize_scenario(config)))
    return path


def load_schema():
    text = (
        resources.files("hiershare")
        .joinpath("data/report-schema-v1.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


class TestRunCommand:
    def test_demo_exits_zero_and_writes_reports(self, tmp_path, demo_file):
        out = tmp_path / "out"
        assert main(["run", str(demo_file), "--out", str(out)]) == 0
        report = json.loads((out / "demo-7user.report").read_text())
        assert report["final"]["reconstruction_correct"] is True
        assert len(report["rows"]) == 6  # deal + 5 epochs
        table = (out / "demo-7user.txt").read_text()
        assert "secret-intact" in table
        assert "reconstruction-correct=true" in table

    def test_report_matches_schema(self, tmp_path, demo_file):
        out = tmp_path / "out"
        main(["run", str(demo_file), "--out", str(out)])
        report = json.loads((out / "demo-7user.report").read_text())
        jsonschema.validate(report, load_schema())

    def test_bundled_name_accepted(self, tmp_path):
        assert main(["run", "figure2-leave", "--out", str(tmp_path)]) == 0

    def test_identical_runs_byte_identical_reports(self, tmp_path, demo_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(demo_file), "--out", str(out1)])
        main(["run", str(demo_file), "--out", str(out2)])
        assert (out1 / "demo-7user.report").read_bytes() == (
            out2 / "demo-7user.report"
        ).read_bytes()

    def test_seed_override_changes_report(self, tmp_path, demo_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(demo_file), "--out", str(out1)])
        main(["run", str(demo_file), "--seed", "99", "--out", str(out2)])
        assert (out1 / "demo-7user.report").read_bytes() != (
            out2 / "demo-7user.report"
        ).read_bytes()

    def test_malformed_tf_exits_one(self, tmp_path, capsys):
        config = serialize_scenario(load_bundled_scenario("figure2-leave"))
        config["tf"] = {"num": 0, "den": 1}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert main(["run", str(bad), "--out", str(tmp_path)]) == 1
        assert "TF must be in (0,1]" in capsys.readouterr().err

    def test_missing_scenario_exits_one(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1

    def test_out_dir_from_environment(self, tmp_path, demo_file, monkeypatch):
        monkeypatch.setenv("HIERSHARE_OUT", str(tmp_path / "envout"))
        assert main(["run", str(demo_file)]) == 0
        assert (tmp_path / "envout" / "demo-7user.report").exists()

    def test_epochs_override(self, tmp_path, demo_file):
        out = tmp_path / "out"
        main(["run", str(demo_file), "--epochs", "2", "--out", str(out)])
        report = json.loads((out / "demo-7user.report").read_text())
        assert report["final"]["epochs_run"] == 2
        assert len(report["rows"]) == 3

    def test_starved_reconstruction_exits_two(self, tmp_path, capsys):
        scenario = {
            "schema_version": 1,
            "name": "starved",
            "field_mode": "no-curve",
            "field_prime": "1009",
            "tf": {"num": 1, "den": 1},
            "tree": {"children": [{"children": []}, {"children": []}]},
            "secret": "4",
            "epochs": 2,
            "seed": "1",
            "events": [{"epoch": 1, "kind": "leave", "user": 1}],
        }
        path = tmp_path / "starved.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "reconstruction-correct" in capsys.readouterr().err

    def test_rejoin_under_departed_parent_exits_two(self, tmp_path, capsys):
        scenario = {
            "schema_version": 1,
            "name": "orphan-rejoin",
            "field_mode": "no-curve",
            "field_prime": "1009",
            "tf": {"num": 2, "den": 3},
            # 1 -> {3 -> {5}, 4}, 2
            "tree": {"children": [
                {"children": [{"children": [{}]}, {}]}, {},
            ]},
            "secret": "4",
            "epochs": 3,
            "seed": "1",
            "events": [
                {"epoch": 1, "kind": "leave", "user": 3},
                {"epoch": 2, "kind": "leave", "user": 1},
                {"epoch": 3, "kind": "rejoin", "user": 3},
                {"epoch": 3, "kind": "redeal"},
            ],
        }
        path = tmp_path / "orphan.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: parent 1 is inactive" in err
        assert "Traceback" not in err

    def test_scripted_corruptor_exits_zero_with_verdicts(self, tmp_path):
        scenario = {
            "schema_version": 1,
            "name": "corruptor",
            "field_mode": "curve-order",
            "curve": "toy",
            "tf": {"num": 2, "den": 3},
            "tree": {"children": [{"children": [
                {"children": []}, {"children": []}, {"children": []},
            ]}]},
            "secret": "3",
            "eval_mode": "round-key",
            "epochs": 2,
            "seed": "7",
            "adversary": {
                "strategy": "scripted",
                "script": [{
                    "epoch": 1,
                    "compromise": [1],
                    "tamper": [{"parent": 1, "children": [2, 3, 4]}],
                }],
            },
        }
        path = tmp_path / "corruptor.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "corruptor.report").read_text())
        verdicts = report["rows"][1]["verdicts"]
        assert verdicts and verdicts[0]["outcome"] == "accused-compromised"


class TestVerifyCurveCommand:
    def test_toy_profile_valid(self, capsys):
        assert main(["verify-curve", "toy"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_inline_composite_order_invalid(self, tmp_path, capsys):
        bad = tmp_path / "curve.json"
        bad.write_text(json.dumps(
            {"p": "17", "a": "2", "b": "2", "gx": "5", "gy": "1", "order": "18"}
        ))
        assert main(["verify-curve", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_missing_base_point_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "curve.json"
        bad.write_text(json.dumps({"p": "17", "a": "2", "b": "2", "order": "19"}))
        assert main(["verify-curve", str(bad)]) == 1
        assert "gx" in capsys.readouterr().err

    def test_unknown_profile(self, tmp_path):
        assert main(["verify-curve", "unobtainium"]) == 1


class TestSnapshots:
    def test_save_load_round_trip(self, tmp_path):
        world = World(load_bundled_scenario("figure2-leave"))
        world.initial_deal()
        world.step_epoch()
        path = tmp_path / "w.snapshot"
        save_world(world, path)
        restored = load_world(path)
        assert world_to_dict(restored) == world_to_dict(world)

    def test_resume_matches_straight_run(self, tmp_path, demo_file):
        straight = tmp_path / "straight"
        main(["run", str(demo_file), "--out", str(straight)])

        halted = tmp_path / "halted"
        main(["run", str(demo_file), "--out", str(halted), "--save-at", "3"])
        snapshot = halted / "demo-7user.epoch3.snapshot"
        assert snapshot.exists()

        resumed = tmp_path / "resumed"
        assert main(["run", "--resume", str(snapshot), "--out", str(resumed)]) == 0
        assert (straight / "demo-7user.report").read_bytes() == (
            resumed / "demo-7user.report"
        ).read_bytes()

    def test_truncated_snapshot_rejected(self, tmp_path):
        world = World(load_bundled_scenario("figure2-leave"))
        world.initial_deal()
        path = tmp_path / "w.snapshot"
        save_world(world, path)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(CorruptSnapshot):
            load_world(path)

    def test_bitflip_fails_checksum(self, tmp_path):
        world = World(load_bundled_scenario("figure2-leave"))
        world.initial_deal()
        path = tmp_path / "w.snapshot"
        save_world(world, path)
        data = json.loads(path.read_text())
        data["body"]["epoch"] = 7
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptSnapshot):
            load_world(path)

    def test_version_mismatch(self, tmp_path):
        import hashlib

        world = World(load_bundled_scenario("figure2-leave"))
        world.initial_deal()
        path = tmp_path / "w.snapshot"
        save_world(world, path)
        data = json.loads(path.read_text())
        data["body"]["snapshot_version"] = 99
        canonical = json.dumps(data["body"], sort_keys=True, separators=(",", ":"))
        data["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
        path.write_text(json.dumps(data))
        with pytest.raises(VersionMismatch):
            load_world(path)

    def test_format_1_snapshot_refused(self, tmp_path):
        """Formats 1, 2 and 3 are all refused."""
        import hashlib

        world = World(load_bundled_scenario("figure2-leave"))
        world.initial_deal()
        path = tmp_path / "w.snapshot"
        save_world(world, path)
        current = json.loads(path.read_text())["body"]
        # Format 1 also stored a tick clock and a redaction flag; format 2
        # stored copies (child lists, server group keys, retained parts);
        # format 3 stored a count of observed commitments.
        old_fields = {
            1: {"redacted": False},
            2: {"tree": dict(current["tree"], server_group_keys={})},
            3: {"adversary": dict(current["adversary"], observed_commitments=0)},
        }
        for version, extra in old_fields.items():
            body = dict(current, snapshot_version=version, **extra)
            canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
            checksum = hashlib.sha256(canonical.encode()).hexdigest()
            path.write_text(json.dumps({"checksum": checksum, "body": body}))
            with pytest.raises(VersionMismatch):
                load_world(path)

    def test_mid_epoch_snapshot_refused(self, tmp_path):
        import hashlib

        world = World(load_bundled_scenario("figure2-leave"))
        world.initial_deal()
        path = tmp_path / "w.snapshot"
        save_world(world, path)
        data = json.loads(path.read_text())
        data["body"]["phase"] = "mid-epoch"
        canonical = json.dumps(data["body"], sort_keys=True, separators=(",", ":"))
        data["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
        path.write_text(json.dumps(data))
        with pytest.raises(ResumeRefused):
            load_world(path)
