"""Behaviour oracle: the bundled scenarios' reports, byte for byte.

``hiershare run <name>`` at the scenario's default seed must write a
``.report`` whose sha256 equals the digest recorded when the report format
was fixed. A change meant to preserve behaviour keeps these digests;
``perfbench/oracle.py`` checks the same digests. A run split by a snapshot
at any epoch boundary and resumed must write the same bytes, and the
restore must rebuild the state a snapshot does not store as the straight
run holds it.
"""

import hashlib

import pytest

from hiershare.cli import main, report_json
from hiershare.config import load_bundled_scenario
from hiershare.simnet import World
from hiershare.snapshot import load_world, save_world

GOLDEN_REPORT_SHA256 = {
    "bench-63": "19954d80ba4b3b9cbc48a5715f03745d4fdcc25bae42d285be42be61077c0211",
    "demo-7user": "b8bc54d96e3d688a0b652855d962aa5206b536d39c12e5f53fadaae908a88293",
    "figure2-leave": "9cd01956c543ad9e70889b99512b8ccd7381d01c4c91c4671b996c488851457d",
}


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
