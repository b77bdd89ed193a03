"""CLI exit codes, report files, schema validation, snapshot and resume."""

import json
from importlib import resources

import jsonschema
import pytest

from hiershare.cli import main
from hiershare.config import ConfigError, load_bundled_scenario, serialize_scenario
from hiershare.simnet import World
from hiershare.snapshot import (
    CorruptSnapshot,
    VersionMismatch,
    _checksum,
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

    def test_directory_does_not_hide_a_bundled_name(self, tmp_path, monkeypatch, capsys):
        """An earlier ``--out demo-7user`` leaves a folder of that name; a
        run of the bundled scenario from the same directory still finds it."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "demo-7user").mkdir()
        assert main(["run", "demo-7user", "--out", "out"]) == 0, capsys.readouterr().err
        assert (tmp_path / "out" / "demo-7user.report").exists()

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

    def test_epochs_override_is_validated_before_the_run(self, tmp_path, capsys):
        # figure2-leave's leave is at epoch 2, beyond a one-epoch run.
        argv = ["run", "figure2-leave", "--epochs", "1", "--save-at", "0", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert "events[0].epoch: beyond scenario epochs (1)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_epochs_override_exits_one(self, tmp_path, capsys):
        assert main(["run", "figure2-leave", "--epochs", "-1", "--out", str(tmp_path)]) == 1
        assert "epochs: must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_scenario_name_with_a_slash_exits_one(self, tmp_path, capsys):
        config = serialize_scenario(load_bundled_scenario("figure2-leave"))
        config["name"] = "sub/x"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "bad.json.name: must be a plain file name" in capsys.readouterr().err
        assert not out.exists()

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

    def test_inline_psi_12_modulus_invalid(self, tmp_path, capsys):
        # 399165290221 * 798330580441 passes Miller-Rabin to the first 12
        # prime bases.
        psi_12 = "318665857834031151167461"
        bad = tmp_path / "curve.json"
        bad.write_text(json.dumps(
            {"p": psi_12, "a": "2", "b": "2", "gx": "5", "gy": "1", "order": "19"}
        ))
        assert main(["verify-curve", str(bad)]) == 1
        assert f"invalid: field modulus {psi_12} is not prime\n" in capsys.readouterr().out

    def test_inline_zero_modulus_invalid(self, tmp_path, capsys):
        bad = tmp_path / "curve.json"
        bad.write_text(json.dumps(
            {"p": "0", "a": "2", "b": "2", "gx": "5", "gy": "1", "order": "19"}
        ))
        assert main(["verify-curve", str(bad)]) == 1
        assert "invalid: field modulus 0 is not prime\n" in capsys.readouterr().out

    def test_missing_base_point_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "curve.json"
        bad.write_text(json.dumps({"p": "17", "a": "2", "b": "2", "order": "19"}))
        assert main(["verify-curve", str(bad)]) == 1
        assert "gx" in capsys.readouterr().err

    def test_deeply_nested_file_exits_one(self, tmp_path, capsys):
        deep = tmp_path / "curve.json"
        deep.write_text("[" * 1000 + "]" * 1000)
        assert main(["verify-curve", str(deep)]) == 1
        assert "nested too deeply" in capsys.readouterr().err

    def test_unknown_profile(self, tmp_path):
        assert main(["verify-curve", "unobtainium"]) == 1


@pytest.mark.parametrize(
    "command, content, code",
    [
        (["verify-curve"], None, 1),
        (["verify-curve"], b"\xff\xfe{\x00}\x00", 1),
        (["run"], b"\xff\xfe{\x00}\x00", 1),
        (["run", "--resume"], b"\xff\xfe{\x00}\x00", 2),
    ],
    ids=["verify-curve-directory", "verify-curve-utf16", "run-utf16", "resume-utf16"],
)
def test_unreadable_file_is_an_error_naming_it(tmp_path, capsys, command, content, code):
    """A directory (content None) or a file that is not UTF-8 gives the
    command's exit code and a message naming the path, not a traceback."""
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main([*command, str(path)]) == code
    assert f"{path}: " in capsys.readouterr().err


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

    def test_resume_reports_only_the_snapshot_it_wrote(self, tmp_path, demo_file, capsys):
        halted = tmp_path / "halted"
        main(["run", str(demo_file), "--out", str(halted), "--save-at", "3"])
        snapshot = halted / "demo-7user.epoch3.snapshot"
        for save_at, written in (("0", False), ("1", False), ("4", True)):
            out = tmp_path / f"resumed-{save_at}"
            capsys.readouterr()
            assert main(["run", "--resume", str(snapshot), "--out", str(out),
                         "--save-at", save_at]) == 0
            expected = out / f"demo-7user.epoch{save_at}.snapshot"
            printed = f"snapshot: {expected}" in capsys.readouterr().out
            assert (printed, expected.exists()) == (written, written)

    @pytest.mark.parametrize("save_at", ["99", "-1", "6"])
    def test_save_at_outside_the_runs_boundaries_exits_one(
        self, tmp_path, demo_file, capsys, save_at
    ):
        # demo-7user has 5 epochs, so its boundaries are 0..5.
        out = tmp_path / "out"
        assert main(["run", str(demo_file), "--out", str(out), "--save-at", save_at]) == 1
        message = f"config error: --save-at {save_at}: the run's epoch boundaries are 0..5"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_save_at_is_checked_after_the_epochs_override(self, tmp_path, demo_file, capsys):
        out = tmp_path / "out"
        argv = ["run", str(demo_file), "--out", str(out), "--save-at", "3"]
        assert main(argv + ["--epochs", "2"]) == 1
        assert "the run's epoch boundaries are 0..2" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--epochs", "3"]) == 0
        assert (out / "demo-7user.epoch3.snapshot").exists()

    def test_resume_save_at_outside_the_runs_boundaries_exits_one(
        self, tmp_path, demo_file, capsys
    ):
        halted = tmp_path / "halted"
        main(["run", str(demo_file), "--out", str(halted), "--save-at", "3"])
        out = tmp_path / "resumed"
        capsys.readouterr()
        assert main(["run", "--resume", str(halted / "demo-7user.epoch3.snapshot"),
                     "--out", str(out), "--save-at", "6"]) == 1
        assert "--save-at 6: the run's epoch boundaries are 0..5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("epochs", ["1", "-1"])
    def test_resume_epochs_override_is_validated(self, tmp_path, capsys, epochs):
        # The snapshot is at epoch 0; figure2-leave's leave is at epoch 2.
        assert main(["run", "figure2-leave", "--save-at", "0", "--out", str(tmp_path)]) == 0
        snapshot = tmp_path / "figure2-leave.epoch0.snapshot"
        out = tmp_path / "resumed"
        capsys.readouterr()
        assert main(["run", "--resume", str(snapshot), "--epochs", epochs, "--out", str(out)]) == 1
        assert "with overrides." in capsys.readouterr().err
        assert not out.exists()

    def test_resume_epochs_before_the_snapshot_exits_one(self, tmp_path, capsys):
        assert main(["run", "figure2-leave", "--save-at", "4", "--out", str(tmp_path)]) == 0
        snapshot = tmp_path / "figure2-leave.epoch4.snapshot"
        out = tmp_path / "resumed"
        capsys.readouterr()
        assert main(["run", "--resume", str(snapshot), "--epochs", "3", "--out", str(out)]) == 1
        assert "--epochs 3 ends before the snapshot's epoch 4" in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_snapshot_is_corrupt(self, tmp_path):
        path = tmp_path / "w.snapshot"
        path.write_text('{"checksum": "0", "body": ' + "[" * 1000 + "]" * 1000 + "}")
        with pytest.raises(CorruptSnapshot, match="recursion depth"):
            load_world(path)

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
        """Formats 1 to 10 are all refused."""
        import hashlib

        world = World(load_bundled_scenario("figure2-leave"))
        world.initial_deal()
        path = tmp_path / "w.snapshot"
        save_world(world, path)
        current = json.loads(path.read_text())["body"]
        # Format 1 also stored a tick clock and a redaction flag; format 2
        # stored copies (child lists, server group keys, retained parts);
        # format 3 stored a count of observed commitments; format 4 stored
        # the next user id, the dealer secret, a rotation cursor and each
        # node's first compromise epoch; format 5 stored one record per
        # share holder, each with its group's threshold, round and epoch;
        # format 6 stored the live round beside the tree's round count;
        # format 7 stored each node's round key; format 8 stored the tree
        # a second time, as the embedded scenario's nested spec; format 9
        # stored each node's group key, every dealing polynomial and the
        # adversary's occupied and ever-compromised sets; format 10 stored
        # a constant phase.
        old_fields = {
            1: {"redacted": False},
            2: {"tree": dict(current["tree"], server_group_keys={})},
            3: {"adversary": dict(current["adversary"], observed_commitments=0)},
            4: {
                "tree": dict(current["tree"], next_id=len(current["tree"]["nodes"]) + 1),
                "dealer": dict(current["dealer"], secret="5"),
                "adversary": dict(current["adversary"], cursor=0, compromise_epochs={}),
            },
            5: {
                "shares": {
                    str(uid): {
                        "owner": uid,
                        "eval_point": str(group.members[uid][0]),
                        "value": str(group.members[uid][1]),
                        "threshold": group.threshold,
                        "round_id": world.round_id,
                        "epoch": group.epoch,
                        "split": uid in world.dealer.split,
                    }
                    for uid, group in sorted(world.shares.items())
                },
            },
            6: {"round_id": world.round_id},
            7: {
                "tree": dict(
                    current["tree"],
                    nodes=[dict(node, round_key=None) for node in current["tree"]["nodes"]],
                ),
            },
            8: {
                "scenario": dict(
                    current["scenario"], tree=serialize_scenario(world.config)["tree"]
                ),
            },
            9: {
                "tree": dict(
                    current["tree"],
                    nodes=[dict(node, group_key=None) for node in current["tree"]["nodes"]],
                ),
                "dealer": {"polynomials": {}},
                "adversary": dict(current["adversary"], occupied=[], ever_compromised=[]),
            },
            10: {"phase": "epoch-boundary"},
        }
        for version, extra in old_fields.items():
            body = dict(current, snapshot_version=version, **extra)
            canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
            checksum = hashlib.sha256(canonical.encode()).hexdigest()
            path.write_text(json.dumps({"checksum": checksum, "body": body}))
            with pytest.raises(VersionMismatch):
                load_world(path)

    @pytest.mark.parametrize("edit", ["gap", "not-breadth-first"])
    def test_node_list_that_is_no_scenario_tree_refused(self, tmp_path, edit):
        """The scenario's tree is rebuilt from the node list, which must
        number the users 1..n breadth-first."""
        import hashlib

        world = World(load_bundled_scenario("figure2-leave"))
        world.initial_deal()
        path = tmp_path / "w.snapshot"
        save_world(world, path)
        data = json.loads(path.read_text())
        nodes = data["body"]["tree"]["nodes"]
        if edit == "gap":
            nodes[-1]["id"] += 1
        else:
            nodes[0]["parent"] = 2
        canonical = json.dumps(data["body"], sort_keys=True, separators=(",", ":"))
        data["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
        path.write_text(json.dumps(data))
        with pytest.raises(CorruptSnapshot, match="tree"):
            load_world(path)

    @pytest.mark.parametrize(
        "edit, error",
        [
            ("no-rng-state", CorruptSnapshot),
            ("node-without-parent", CorruptSnapshot),
            ("group-without-members", CorruptSnapshot),
            ("scenario-negative-epochs", ConfigError),
        ],
    )
    def test_malformed_checksummed_body_refused(self, tmp_path, edit, error):
        """A body whose checksum holds but whose fields do not is refused
        as corrupt; a bad embedded scenario stays a scenario error."""
        world = World(load_bundled_scenario("figure2-leave"))
        world.initial_deal()
        world.step_epoch()
        world.step_epoch()
        path = tmp_path / "w.snapshot"
        save_world(world, path)
        body = json.loads(path.read_text())["body"]
        if edit == "no-rng-state":
            del body["rng_state"]
        elif edit == "node-without-parent":
            del body["tree"]["nodes"][2]["parent"]
        elif edit == "group-without-members":
            del body["shares"][0]["members"]
        else:
            body["scenario"]["epochs"] = -1
        path.write_text(json.dumps({"body": body, "checksum": _checksum(body)}))
        with pytest.raises(error):
            load_world(path)
