"""World snapshots: versioned, checksummed, resumable at epoch boundaries.

A snapshot embeds the scenario, the RNG state, and every piece of world
state a continuation needs, so a resumed run produces a report identical
to an uninterrupted one. Snapshots are only taken (and only accepted)
at epoch boundaries, where the per-epoch message counts are empty, so
no message count is stored.

Format 8 stores each fact once and nothing derivable. A restore builds
the blank ``World(config)`` of the embedded scenario, which supplies the
dealer secret and the adversary's settings, and sets the stored facts on
it. Child lists come from the parent links, the live round from the
tree's round count, a node's activity from its ``deactivated_by``, the
next user id from the node count, the retained parts are the dealing
polynomials' free coefficients, and the adversary's rotation is a
function of the epoch. Shares are stored once per sibling-group record
that some host holds: its epoch, its threshold, each member's (owner,
evaluation point, value) and the hosts that hold it; its parent is its
holders' parent. Group keys are stored, as the server's
record (recomputing costs a scalar multiplication per node). Round keys
are not: they live only while a deal attempt computes evaluation points.
Formats 1-7 are refused.

A snapshot holds every secret in the clear: the dealer secret, the
dealing polynomials (and with them the retained parts), every share and
every registration token. Protect the file like the secret itself. Only
a round's server scalar is never persisted, since it dies when its round
completes.
"""

from __future__ import annotations

import hashlib
import json

from .config import parse_scenario, serialize_scenario
from .curve import CurvePoint
from .errors import HierShareError
from .hierarchy import HierarchyNode
from .sharing import GroupShares, HeldShare, Polynomial
from .simnet import World

SNAPSHOT_VERSION = 8


class VersionMismatch(HierShareError):
    """Snapshot written by an incompatible format version."""


class CorruptSnapshot(HierShareError):
    """Snapshot failed its checksum or cannot be decoded."""


class ResumeRefused(HierShareError):
    """Snapshot is not at an epoch boundary."""


def _point_out(point: CurvePoint | None) -> list[str] | None:
    if point is None:
        return None
    if point.is_identity:
        return []
    return [str(point.x), str(point.y)]


def _point_in(data, world: World) -> CurvePoint | None:
    if data is None:
        return None
    if data == []:
        return world.config.curve.identity()
    return CurvePoint(world.config.curve, int(data[0]), int(data[1]))


def _field_in(text: str, world: World) -> int:
    return int(text) % world.config.field.modulus


def _groups_out(shares: dict[int, GroupShares]) -> list[dict]:
    """Each group record someone holds, once, with the hosts that hold it;
    a record keeps the members that have since moved on to a newer one."""
    holders: dict[int, tuple[GroupShares, list[int]]] = {}
    for uid in sorted(shares):
        holders.setdefault(id(shares[uid]), (shares[uid], []))[1].append(uid)
    return [
        {
            "epoch": group.epoch,
            "threshold": group.threshold,
            "members": [[uid, str(x), str(value)] for uid, (x, value) in group.members.items()],
            "holders": uids,
        }
        for group, uids in holders.values()
    ]


def _groups_in(data: list[dict], world: World) -> dict[int, GroupShares]:
    shares: dict[int, GroupShares] = {}
    for item in data:
        members = {
            uid: (_field_in(x, world), _field_in(value, world))
            for uid, x, value in item["members"]
        }
        group = GroupShares(item["epoch"], item["threshold"], members)
        shares.update(dict.fromkeys(item["holders"], group))
    return shares


def world_to_dict(world: World) -> dict:
    """Serializable epoch-boundary state; the per-epoch message counts
    are empty there and are not stored."""
    nodes = []
    for uid in sorted(world.tree.nodes):
        node = world.tree.nodes[uid]
        nodes.append(
            {
                "id": node.id,
                "parent": node.parent,
                "reg_token": None if node.reg_token is None else str(node.reg_token),
                "group_key": _point_out(node.group_key),
                "deactivated_by": node.deactivated_by,
            }
        )
    adv = world.adversary
    rng_version, rng_internal, rng_gauss = world.rng.getstate()
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "phase": "epoch-boundary",
        "epoch": world.epoch,
        "scenario": serialize_scenario(world.config),
        "rng_state": [rng_version, list(rng_internal), rng_gauss],
        "tree": {"nodes": nodes, "round_count": world.tree.round_count},
        "dealer": {
            "polynomials": {
                str(gid): [str(c) for c in poly.coefficients]
                for gid, poly in sorted(world.dealer.polynomials.items())
            },
        },
        "shares": _groups_out(world.shares),
        "adversary": {
            "occupied": sorted(adv.occupied),
            "ever_compromised": sorted(adv.ever_compromised),
            "stolen_shares": [
                [round_id, epoch, owner, str(copy.eval_point), str(copy.value),
                 copy.threshold, copy.split]
                for (round_id, epoch, owner), copy in sorted(adv.stolen_shares.items())
            ],
            "stolen_tokens": {
                str(uid): str(tok) for uid, tok in sorted(adv.stolen_tokens.items())
            },
        },
        "report_rows": world.report.rows,
    }


def world_from_dict(data: dict) -> World:
    """The blank ``World`` of the embedded scenario, with every stored
    fact set on it."""
    world = World(parse_scenario(data["scenario"], source="<snapshot scenario>"))
    world.epoch = data["epoch"]
    rng_version, rng_internal, rng_gauss = data["rng_state"]
    world.rng.setstate((rng_version, tuple(rng_internal), rng_gauss))

    for node_data in sorted(data["tree"]["nodes"], key=lambda n: n["id"]):
        world.tree.insert(
            HierarchyNode(
                id=node_data["id"],
                parent=node_data["parent"],
                reg_token=None if node_data["reg_token"] is None else int(node_data["reg_token"]),
                group_key=_point_in(node_data["group_key"], world),
                deactivated_by=node_data["deactivated_by"],
            )
        )
    world.tree.round_count = data["tree"]["round_count"]

    world.dealer.polynomials = {
        int(gid): Polynomial(tuple(_field_in(c, world) for c in coeffs))
        for gid, coeffs in data["dealer"]["polynomials"].items()
    }
    world.shares = _groups_in(data["shares"], world)

    adv_data = data["adversary"]
    adversary = world.adversary
    adversary.occupied = set(adv_data["occupied"])
    adversary.ever_compromised = set(adv_data["ever_compromised"])
    for round_id, epoch, owner, x, value, threshold, split in adv_data["stolen_shares"]:
        adversary.stolen_shares[(round_id, epoch, owner)] = HeldShare(
            _field_in(x, world), _field_in(value, world), threshold, split
        )
    adversary.stolen_tokens = {
        int(uid): int(tok) for uid, tok in adv_data["stolen_tokens"].items()
    }

    world.report.rows = list(data["report_rows"])
    return world


def _canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def save_world(world: World, path: str) -> None:
    body = world_to_dict(world)
    checksum = hashlib.sha256(_canonical(body).encode()).hexdigest()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"checksum": checksum, "body": body}, handle, indent=1)
        handle.write("\n")


def load_world(path: str) -> World:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            wrapper = json.load(handle)
        body = wrapper["body"]
        stored = wrapper["checksum"]
    except (OSError, json.JSONDecodeError, RecursionError, KeyError, TypeError) as exc:
        raise CorruptSnapshot(f"{path}: {exc}") from None
    actual = hashlib.sha256(_canonical(body).encode()).hexdigest()
    if actual != stored:
        raise CorruptSnapshot(f"{path}: checksum mismatch")
    if body.get("snapshot_version") != SNAPSHOT_VERSION:
        raise VersionMismatch(
            f"{path}: snapshot version {body.get('snapshot_version')}, "
            f"supported {SNAPSHOT_VERSION}"
        )
    if body.get("phase") != "epoch-boundary":
        raise ResumeRefused(f"{path}: snapshot phase {body.get('phase')!r}")
    return world_from_dict(body)
