"""World snapshots: versioned, checksummed, resumable at epoch boundaries.

A snapshot embeds the scenario, the RNG state, and every piece of world
state a continuation needs, so a resumed run produces a report identical
to an uninterrupted one. Snapshots are only taken (and only accepted)
at epoch boundaries, where the per-epoch envelope scratch log is empty,
so no envelope is stored.

Format 4 stores each fact once. Child lists are rebuilt from the parent
links on load, a node's activity from its ``deactivated_by``, the
server's retained parts are the free coefficients of the dealing
polynomials, and the adversary's configuration comes from the embedded
scenario. Formats 1-3 are refused.

A snapshot holds every secret in the clear: the dealer secret, the
dealing polynomials (and with them the retained parts), every share and
every registration token. Protect the file like the secret itself. Only
a round's server scalar is never persisted, since it dies when its round
completes.
"""

from __future__ import annotations

import hashlib
import json
import random

from .config import parse_scenario, serialize_scenario
from .curve import CurvePoint
from .errors import HierShareError
from .hierarchy import HierarchyNode, HierarchyTree
from .sharing import DealerState, Polynomial, ShareRecord
from .simnet import AdversaryState, SimReport, World, steal_share

SNAPSHOT_VERSION = 4


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


def _record_out(rec: ShareRecord) -> dict:
    return {
        "owner": rec.owner,
        "eval_point": str(rec.eval_point),
        "value": str(rec.value),
        "threshold": rec.threshold,
        "round_id": rec.round_id,
        "epoch": rec.epoch,
        "split": rec.split,
    }


def _field_in(text: str, world: World) -> int:
    return int(text) % world.config.field.modulus


def _record_in(data: dict, world: World) -> ShareRecord:
    return ShareRecord(
        owner=data["owner"],
        eval_point=_field_in(data["eval_point"], world),
        value=_field_in(data["value"], world),
        threshold=data["threshold"],
        round_id=data["round_id"],
        epoch=data["epoch"],
        split=data["split"],
    )


def world_to_dict(world: World) -> dict:
    """Serializable epoch-boundary state; the per-epoch envelope scratch
    log is empty there and is not stored."""
    nodes = []
    for uid in sorted(world.tree.nodes):
        node = world.tree.nodes[uid]
        nodes.append(
            {
                "id": node.id,
                "parent": node.parent,
                "reg_token": None if node.reg_token is None else str(node.reg_token),
                "group_key": _point_out(node.group_key),
                "round_key": _point_out(node.round_key),
                "deactivated_by": node.deactivated_by,
            }
        )
    adv = world.adversary
    rng_version, rng_internal, rng_gauss = world.rng.getstate()
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "phase": "epoch-boundary",
        "epoch": world.epoch,
        "round_id": world.round_id,
        "scenario": serialize_scenario(world.config),
        "rng_state": [rng_version, list(rng_internal), rng_gauss],
        "tree": {
            "nodes": nodes,
            "next_id": world.tree._next_id,
            "round_count": world.tree._round_count,
        },
        "dealer": {
            "secret": str(world.dealer.secret),
            "polynomials": {
                str(gid): [str(c) for c in poly.coefficients]
                for gid, poly in sorted(world.dealer.polynomials.items())
            },
        },
        "shares": {str(uid): _record_out(rec) for uid, rec in sorted(world.shares.items())},
        "adversary": {
            "occupied": sorted(adv.occupied),
            "compromise_epochs": {str(k): v for k, v in sorted(adv.compromise_epochs.items())},
            "stolen_shares": [
                _record_out(rec) for _key, rec in sorted(adv.stolen_shares.items())
            ],
            "stolen_tokens": {
                str(uid): str(tok) for uid, tok in sorted(adv.stolen_tokens.items())
            },
            "cursor": adv.cursor,
        },
        "report_rows": world.report.rows,
    }


def world_from_dict(data: dict) -> World:
    config = parse_scenario(data["scenario"], source="<snapshot scenario>")
    world = World.__new__(World)
    world.config = config
    world.epoch = data["epoch"]
    world.round_id = data["round_id"]
    world.envelopes = []

    rng_version, rng_internal, rng_gauss = data["rng_state"]
    world.rng = random.Random()
    world.rng.setstate((rng_version, tuple(rng_internal), rng_gauss))

    tree = HierarchyTree(config.curve, config.field)
    for node_data in sorted(data["tree"]["nodes"], key=lambda n: n["id"]):
        tree.insert(
            HierarchyNode(
                id=node_data["id"],
                parent=node_data["parent"],
                reg_token=None if node_data["reg_token"] is None else int(node_data["reg_token"]),
                group_key=_point_in(node_data["group_key"], world),
                round_key=_point_in(node_data["round_key"], world),
                deactivated_by=node_data["deactivated_by"],
            )
        )
    tree._next_id = data["tree"]["next_id"]
    tree._round_count = data["tree"]["round_count"]
    world.tree = tree

    dealer_data = data["dealer"]
    dealer = DealerState(secret=_field_in(dealer_data["secret"], world))
    dealer.polynomials = {
        int(gid): Polynomial(tuple(_field_in(c, world) for c in coeffs))
        for gid, coeffs in dealer_data["polynomials"].items()
    }
    world.dealer = dealer

    world.shares = {
        int(uid): _record_in(rec, world) for uid, rec in data["shares"].items()
    }

    adv_data = data["adversary"]
    adversary = AdversaryState(config.adversary)
    adversary.occupied = set(adv_data["occupied"])
    adversary.compromise_epochs = {
        int(k): v for k, v in adv_data["compromise_epochs"].items()
    }
    for item in adv_data["stolen_shares"]:
        steal_share(adversary, _record_in(item, world))
    adversary.stolen_tokens = {
        int(uid): int(tok) for uid, tok in adv_data["stolen_tokens"].items()
    }
    adversary.cursor = adv_data["cursor"]
    world.adversary = adversary

    world.report = SimReport(scenario=config.name, seed=config.seed)
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
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
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
