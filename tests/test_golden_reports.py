"""Behaviour oracle: the bundled scenarios' reports, byte for byte.

``hiershare run <name>`` at the scenario's default seed must write a
``.report`` whose sha256 equals the digest recorded when the report format
was fixed. A change meant to preserve behaviour keeps these digests;
``perfbench/oracle.py`` checks the same digests. A run split by a snapshot
at any epoch boundary and resumed must write the same bytes, and the
restore must rebuild the state a snapshot does not store as the straight
run holds it.

The state digests see what a report does not: every share value, stolen
copy, token and generator state. ``GOLDEN_STATE_SHA256`` holds, per
scenario, the sha256 of the canonical ``snapshot.world_to_dict`` (sorted
keys, no spaces) at each epoch boundary, 0 to the last. A change that
moves a draw or a dealt or renewed value fails one of them even when
every report stays the same.
"""

import hashlib
import json

import pytest

from hiershare.cli import main, report_json
from hiershare.config import load_bundled_scenario, parse_scenario
from hiershare.simnet import World
from hiershare.snapshot import load_world, save_world, world_to_dict

GOLDEN_REPORT_SHA256 = {
    "bench-63": "19954d80ba4b3b9cbc48a5715f03745d4fdcc25bae42d285be42be61077c0211",
    "demo-7user": "b8bc54d96e3d688a0b652855d962aa5206b536d39c12e5f53fadaae908a88293",
    "figure2-leave": "9cd01956c543ad9e70889b99512b8ccd7381d01c4c91c4671b996c488851457d",
}



def spec(nested):
    return {"children": [spec(child) for child in nested]}


# No curve, so a tampered delta is applied unchecked. 1 -> {4, 5},
# 2 -> {6, 7, 8}, 3 -> {9}: a plain leave of 2 takes its subtree out, its
# rejoin brings 6, 7 and 8 back with their shares and 2 with none, and a
# 'finish' mid-round leave of 7 follows the redeal, which meets the host 6
# the adversary occupied the epoch before. Then 2 tampers with its delta
# to 6 and 4 falsely accuses 1.
VIEW_PATHS = {
    "schema_version": 1,
    "name": "view-paths",
    "field_mode": "no-curve",
    "field_prime": "1009",
    "tf": {"num": 2, "den": 3},
    "tree": spec([[[], []], [[], [], []], [[]]]),
    "secret": "5",
    "eval_mode": "user-id",
    "epochs": 5,
    "seed": "7",
    "leave_policy": "finish",
    "events": [
        {"epoch": 1, "kind": "leave", "user": 2},
        {"epoch": 2, "kind": "rejoin", "user": 2},
        {"epoch": 3, "kind": "leave", "user": 7, "mid_round": True},
    ],
    "adversary": {"strategy": "scripted", "budget": 1, "script": [
        {"epoch": 2, "compromise": [6]},
        {"epoch": 4, "compromise": [2], "tamper": [{"parent": 2, "children": [6]}]},
        {"epoch": 5, "compromise": [4], "false_claims": [{"accused": 1, "claimers": [4]}]},
    ]},
}

# No curve, no renewal, unanimity. 0 -> {1, 2, 3}, 1 -> {4, 5}. 3's plain
# leave leaves its host holding its round-1 share, which the budget-2
# thief takes at epoch 1; round 1's copies of 2, 3 and 4 never reach the
# root. The epoch-2 redeal's mail meets 2, the epoch-2 hop takes 1 and 5,
# and 4's copy at epoch 3 grows round 2's slice to the secret.
THIEF_WINS = {
    "schema_version": 1,
    "name": "thief-wins",
    "field_mode": "no-curve",
    "field_prime": "1009",
    "tf": {"num": 1, "den": 1},
    "tree": spec([[[], []], [], []]),
    "secret": "5",
    "eval_mode": "user-id",
    "epochs": 4,
    "renewal_enabled": False,
    "seed": "3",
    "events": [
        {"epoch": 1, "kind": "leave", "user": 3},
        {"epoch": 2, "kind": "redeal"},
    ],
    "adversary": {"strategy": "scripted", "budget": 2, "script": [
        {"epoch": 0, "compromise": [4]},
        {"epoch": 1, "compromise": [3, 2]},
        {"epoch": 2, "compromise": [1, 5]},
        {"epoch": 3, "compromise": [4]},
    ]},
}

INLINE_SCENARIOS = {"thief-wins": THIEF_WINS, "view-paths": VIEW_PATHS}

GOLDEN_STATE_SHA256 = {
    "bench-63": [
        "0a2f63f9740e808bfbed8f465a2c9178aa36da96c02cae4d008d785d2a6cb3d1",
        "b7490e6ff6b430ca0976077fdd8c813f79f73bd04c185a23e7a189419f1f620f",
        "0d1779fe8e6129fefb6c2197ea35379ad5bac9f59ed1076d8be48e3d54219330",
    ],
    "demo-7user": [
        "57393b2ab1a86d4bfa2bf25adf8f99ec0157df3fbcac81b28e72624c582825a9",
        "0c29a8e49e1d77f5ca367608a4623471427c28bf025562f234fee1900ca75655",
        "c924e243cde0ea83e51672defbb30aee1eecf80c7ed696ee21df373fd7ab1707",
        "78321d6a63617d9039665ac01cef2abbb433ca55e3306b49b6499bad5eb58e80",
        "3b85a59e89f946d1ad072d11f07b979441f7a2bb29e963b905d725dd93ec5fbb",
        "0d5e193e8fbbaa845547cc0ed32bffe87598140a62a9a1be101dfdfedd63133c",
    ],
    "figure2-leave": [
        "961fee98f38feb87b87528b6a3f262ccbf375b86122d7304afc80eebb2c2e3f8",
        "c10fbdcad5fa19248991d97d495920db026bfc3b6cfe7c78caeff7dbae6e71eb",
        "e507d5a069219ca7e4ded1402b8101dce5592b39c6e201e1a5b04258a3ac707e",
        "d7c103fa60a94c437a819ab627a3000c9205d1db197ee523151d1b3ae55d351f",
        "f44b972e0a266ef3559590e90f58a8e8e40ac691992c66695bb0494904079bf9",
        "d7c74466d6fe8dd4408bd95995b45be8c43e753bfa91811a62ec0694f6ea36b6",
    ],
    "thief-wins": [
        "b2ac88ab4a95eb6738d71184e72da2b7dbddc0816c7b52ad43d51eae64c2fa01",
        "f13f8f6acb38abf6743f10dfa5079b7b5dc14fc749ea56f45fe950e2acd26a8d",
        "5359d444755c7bf972e00306efbd59f041e6c0fdcb71c778528f3634b0f23db4",
        "bf0dc42c0fd79870cdb89af86b77ac1e92fa3b10f58dfd6c37e8cafcf0c77d74",
        "36f1dd5b4fcc5c0cb70409b8fbc95ac9da8c0117091ebb8f664e412f5d4a777d",
    ],
    "view-paths": [
        "f097d53e094cd5229844ab7ab74745e56a8992550c23ab7849b549f4422cb483",
        "fcb41365625fdc9e091fe8a9cde0d5a9451b2911b16776ed1638026d4fd41d0d",
        "ca2cbd64e1c975f9559643c75d2cce658944add6a317ec2b8422652eedd458e3",
        "8e37cf32e1b3b5b19e39b93accd1a5f418cdd1e433801c24fcfc233175b74815",
        "5fa69d8a403bbc07b79678927b5a6d09d1447891fda1478463b211363d0b2f3c",
        "140f8b6550729165f74468131c63ecbd5c2572d5ac62c4104af8649f0663310d",
    ],
}

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def state_digests(config):
    """sha256 of the canonical ``world_to_dict`` at each epoch boundary of
    a full run of ``config``."""
    digests = []
    World(config).run(lambda world: digests.append(
        hashlib.sha256(_CANONICAL(world_to_dict(world)).encode()).hexdigest()
    ))
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN_STATE_SHA256))
def test_state_digest_at_every_boundary(name):
    if name in INLINE_SCENARIOS:
        config = parse_scenario(INLINE_SCENARIOS[name])
    else:
        config = load_bundled_scenario(name)
    assert state_digests(config) == GOLDEN_STATE_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_SHA256))
def test_bundled_report_digest(tmp_path, name):
    assert main(["run", name, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{name}.report").read_bytes()).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256[name]


def derived_state(world):
    """What a restore derives instead of reading: the adversary's occupied
    and ever-compromised sets, the dealer's split set and every group key."""
    return (
        set(world.adversary.occupied),
        set(world.adversary.ever_compromised),
        world.dealer.split,
        {uid: node.group_key for uid, node in world.tree.nodes.items()},
    )


# bench-63 runs on secp256k1, demo-7user has the rotating passive thief,
# figure2-leave a leave.
@pytest.mark.parametrize("name", ["bench-63", "demo-7user", "figure2-leave"])
def test_resume_at_every_boundary_writes_the_golden_report(tmp_path, name):
    world = World(load_bundled_scenario(name))
    world.initial_deal()
    snapshots = []
    while True:
        path = tmp_path / f"epoch{world.epoch}.snapshot"
        save_world(world, path)
        snapshots.append((path, derived_state(world)))
        if world.epoch == world.config.epochs:
            break
        world.step_epoch()
    for path, derived in snapshots:
        resumed = load_world(path)
        assert (path.name, derived_state(resumed)) == (path.name, derived)
        while resumed.epoch < resumed.config.epochs:
            resumed.step_epoch()
        resumed.finalize()
        digest = hashlib.sha256(report_json(resumed.report).encode()).hexdigest()
        assert (path.name, digest) == (path.name, GOLDEN_REPORT_SHA256[name])


def test_winning_thief_resumed_at_every_boundary_writes_the_straight_report(tmp_path):
    saved = []

    def save(world):
        saved.append((tmp_path / f"epoch{world.epoch}.snapshot", derived_state(world)))
        save_world(world, saved[-1][0])

    straight = report_json(World(parse_scenario(THIEF_WINS)).run(save))
    verdicts = [row["adversary_can_reconstruct"] for row in json.loads(straight)["rows"]]
    assert verdicts == [False, False, False, True, True]
    for path, derived in saved:
        resumed = load_world(path)
        assert (path.name, derived_state(resumed)) == (path.name, derived)
        assert (path.name, report_json(resumed.run())) == (path.name, straight)
