"""World snapshots: versioned, checksummed, resumable at epoch boundaries.

A snapshot embeds the scenario, the RNG state, and every piece of world
state a continuation needs, so a resumed run produces a report identical
to an uninterrupted one. Every ``World`` call returns at an epoch
boundary, so a snapshot is always taken at one and stores no phase; the
per-epoch message counts are empty there, so none is stored either.

Format 11 stores each fact once and nothing derivable. The tree is kept
in the node list alone: the embedded scenario leaves its ``tree`` out, and
a restore rebuilds it from the nodes' parent links. A restore builds
the blank ``World(config)`` of the embedded scenario, which supplies the
dealer secret and the adversary's settings, and sets the stored facts on
it. Child lists come from the parent links, the live round from the
tree's round count, a node's activity from its ``deactivated_by``, the
next user id from the node count, and each group key from its token
(token * G, one batch of base-point multiplications for the whole tree),
the holders' view from the shares, and the intact check's reconstruction
form from that view, as the last row built them.
The dealer keeps only its split set. The adversary's plan is a function
of the scenario and the epoch, so the nodes it ever compromised are the
union of its plans so far, and the hosts it occupies are the last report
row's ``compromised``. Shares are stored once per sibling-group record
that some host holds: its epoch, its threshold, each member's (owner,
evaluation point, value) and the hosts that hold it; its parent is its
holders' parent. Round keys are not stored: they live only while a deal
attempt computes evaluation points. Formats 1-10 are refused.

The file is compact JSON, ``{"body": ..., "checksum": ...}``: the sha256
of the body's canonical form (sorted keys, no spaces). The body is
written, and its checksum computed, one top-level key at a time, so the
encoder never holds the whole body's text at once; nothing in it is
nested deeper than a fixed few levels, so any tree depth saves and loads.

A snapshot holds every secret in the clear: the dealer secret, every
share and every registration token. Protect the file like the secret
itself. Neither the dealing polynomials nor a round's server scalar is
persisted: the polynomials die when the deal returns, the scalar when its
round completes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterator

from .config import (
    ConfigError, _decimal, _flag, _int, adversary_plan, parse_scenario, read_json,
    serialize_settings, tree_spec,
)
from .curve import base_muls
from .errors import HierShareError
from .hierarchy import HierarchyNode, HierarchyTree
from .sharing import GroupShares, HeldShare
from .simnet import World

SNAPSHOT_VERSION = 11


class VersionMismatch(HierShareError):
    """Snapshot written by an incompatible format version."""


class CorruptSnapshot(HierShareError):
    """Snapshot failed its checksum or cannot be decoded."""


def _field_in(text: str, world: World) -> int:
    return int(text) % world.config.field.modulus


def _typed(read, value, where: str, *args):
    """``read(value, where, *args)``, one of ``config``'s typed readers,
    with its ``ConfigError`` raised as ``CorruptSnapshot``."""
    try:
        return read(value, where, *args)
    except ConfigError as exc:
        raise CorruptSnapshot(str(exc)) from None


def _bounded(value, where: str, low: int, high: int | None = None) -> int:
    """A stored integer in [low, high] (or >= low); else ``CorruptSnapshot``."""
    value = _typed(_int, value, where, low)
    if high is not None and value > high:
        raise CorruptSnapshot(f"{where}: must be <= {high}")
    return value


def _stolen_from(read, value, where: str, ever: set[int]) -> int:
    """A stolen token's or share's owner, typed by ``read``: a node that some
    plan up to the snapshot's epoch compromised, the only nodes anything is
    stolen from."""
    owner = _typed(read, value, where)
    if owner not in ever:
        raise CorruptSnapshot(f"{where}: node {owner} was never compromised")
    return owner


def _blocker_in(node: dict, tree: HierarchyTree) -> int | None:
    """A stored ``deactivated_by``, as ``leave`` and ``rejoin`` keep it: the
    node's own id, or its parent's value (None below an active parent)."""
    uid, blocker, parent = node["id"], node["deactivated_by"], node["parent"]
    where = f"tree.nodes[{uid - 1}].deactivated_by"
    inherited = tree.nodes[parent].deactivated_by if parent else None
    if blocker is not None:
        _bounded(blocker, where, 1, uid)
    if blocker not in (uid, inherited):
        raise CorruptSnapshot(f"{where}: neither {uid} nor its parent's {inherited}")
    return blocker


def _nodes_in(nodes: list[dict], world: World) -> None:
    """Insert the stored nodes into the world's tree. A registration token
    is null exactly on a vacant slot (one its own leave blocks), otherwise
    in 1..order-1 on a curve and 1..p-1 without one. On a curve each
    token's group key, token * G, is computed in one ``base_muls`` batch."""
    curve = world.config.curve
    high = (world.config.field.modulus if curve is None else curve.order) - 1
    for node_data in nodes:
        uid, token = node_data["id"], node_data["reg_token"]
        where = f"tree.nodes[{uid - 1}]"
        blocker = _blocker_in(node_data, world.tree)
        if (token is None) != (blocker == uid):
            raise CorruptSnapshot(f"{where}.reg_token: must be null exactly on a vacant slot")
        if token is not None:
            at = f"{where}.reg_token"
            token = _bounded(_typed(_decimal, token, at), at, 1, high)
        world.tree.insert(HierarchyNode(uid, node_data["parent"], token, None, blocker))
    if curve is not None:
        keyed = [node for node in world.tree.nodes.values() if node.reg_token is not None]
        for node, key in zip(keyed, base_muls([node.reg_token for node in keyed], curve)):
            node.group_key = key


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
    """Each stored group record on its holders. Every member and holder must
    be a node, the epoch at most the world's and the threshold at most the
    size of the members' sibling group."""
    shares: dict[int, GroupShares] = {}
    tree = world.tree
    for i, item in enumerate(data):
        where = f"shares[{i}]"
        members = {
            uid: (_field_in(x, world), _field_in(value, world))
            for uid, x, value in item["members"]
        }
        for field, uids in (("members", members), ("holders", item["holders"])):
            for uid in uids:
                _bounded(uid, f"{where}.{field}", 1, len(tree.nodes))
        siblings = tree.children[tree.nodes[next(iter(members))].parent] if members else ()
        group = GroupShares(
            _bounded(item["epoch"], f"{where}.epoch", 0, world.epoch),
            _bounded(item["threshold"], f"{where}.threshold", 1, len(siblings)),
            members,
        )
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
                "deactivated_by": node.deactivated_by,
            }
        )
    adv = world.adversary
    rng_version, rng_internal, rng_gauss = world.rng.getstate()
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "epoch": world.epoch,
        "scenario": serialize_settings(world.config),
        "rng_state": [rng_version, list(rng_internal), rng_gauss],
        "tree": {"nodes": nodes, "round_count": world.tree.round_count},
        "dealer": {"split": sorted(world.dealer.split)},
        "shares": _groups_out(world.shares),
        "adversary": {
            "stolen_shares": [
                [round_id, epoch, owner, str(copy.eval_point), str(copy.value),
                 copy.threshold, copy.split]
                for (round_id, epoch), copies in sorted(adv.stolen_shares.items())
                for owner, copy in sorted(copies.items())
            ],
            "stolen_tokens": {
                str(uid): str(tok) for uid, tok in sorted(adv.stolen_tokens.items())
            },
        },
        "report_rows": world.report.rows,
    }


def world_from_dict(data: dict) -> World:
    """The blank ``World`` of the embedded scenario, its tree rebuilt from
    the node list, with every stored fact set on it."""
    nodes = sorted(data["tree"]["nodes"], key=lambda n: n["id"])
    if [node["id"] for node in nodes] != list(range(1, len(nodes) + 1)):
        raise CorruptSnapshot("tree: node ids are not 1..n")
    try:
        tree = tree_spec(tuple(node["parent"] for node in nodes))
    except ValueError as exc:
        raise CorruptSnapshot(f"tree: {exc}") from None
    world = World(parse_scenario({**data["scenario"], "tree": tree}, source="<snapshot scenario>"))
    world.epoch = _bounded(data["epoch"], "epoch", 0, world.config.epochs)
    rng_version, rng_internal, rng_gauss = data["rng_state"]
    world.rng.setstate((rng_version, tuple(rng_internal), rng_gauss))

    _nodes_in(nodes, world)
    world.tree.round_count = _bounded(data["tree"]["round_count"], "tree.round_count", 0)

    world.dealer.split = frozenset(
        _bounded(uid, "dealer.split", 1, len(nodes)) for uid in data["dealer"]["split"]
    )
    world.shares = _groups_in(data["shares"], world)

    rows = data["report_rows"]
    if len(rows) != world.epoch + 1:
        raise CorruptSnapshot(f"report_rows: {len(rows)} rows at epoch {world.epoch}")
    for i, row in enumerate(rows):
        _bounded(row["epoch"], f"report_rows[{i}].epoch", i, i)
    world.report.rows = list(rows)

    adversary = world.adversary
    adversary.occupied = {
        _bounded(uid, "report_rows[-1].compromised", 1, len(nodes))
        for uid in rows[-1]["compromised"]
    }
    ever = adversary.ever_compromised = set().union(
        *(adversary_plan(world.config, epoch)["compromise"] for epoch in range(world.epoch + 1))
    )
    adv_data = data["adversary"]
    for i, (round_id, epoch, owner, x, value, threshold, split) in enumerate(adv_data["stolen_shares"]):
        where = f"adversary.stolen_shares[{i}]"
        key = (
            _bounded(round_id, f"{where}.round", 1, world.tree.round_count),
            _bounded(epoch, f"{where}.epoch", 0, world.epoch),
        )
        owner = _stolen_from(_int, owner, f"{where}.owner", ever)
        adversary.stolen_shares.setdefault(key, {})[owner] = HeldShare(
            _field_in(x, world), _field_in(value, world),
            _bounded(threshold, f"{where}.threshold", 1), _typed(_flag, split, f"{where}.split"),
        )
    for uid, tok in adv_data["stolen_tokens"].items():
        where = f"adversary.stolen_tokens[{uid!r}]"
        owner = _stolen_from(_decimal, uid, where, ever)
        adversary.stolen_tokens[owner] = _typed(_decimal, tok, where)
    world.view = world.tree.groups(world.shares)
    world._reconstruct_all()
    return world


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _pieces(body: dict) -> Iterator[str]:
    """The canonical JSON of ``body`` (sorted keys, no spaces) in pieces,
    one top-level key each, so only one piece's tokens are held at once."""
    yield "{"
    for i, key in enumerate(sorted(body)):
        yield ("," if i else "") + _ENCODE(key) + ":" + _ENCODE(body[key])
    yield "}"


def _checksum(body: dict) -> str:
    """sha256 of ``json.dumps(body, sort_keys=True, separators=(",", ":"))``."""
    digest = hashlib.sha256()
    for piece in _pieces(body):
        digest.update(piece.encode())
    return digest.hexdigest()


def save_world(world: World, path: str) -> None:
    """Write the snapshot, hashing each canonical piece as it is written."""
    digest = hashlib.sha256()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"body":')
        for piece in _pieces(world_to_dict(world)):
            digest.update(piece.encode())
            handle.write(piece)
        handle.write(f',"checksum":"{digest.hexdigest()}"}}\n')


def load_world(path: str) -> World:
    """The world a snapshot file holds. A file that cannot be read, fails
    its checksum, or whose body lacks a field or holds one that cannot be
    decoded, a mistyped or out-of-range integer, id, flag or token, a
    registration token that does not fit its slot, a stolen token or share
    of a node no plan compromised, or a report row too many or too few
    (each field checked is named) is refused as ``CorruptSnapshot``; errors
    in the embedded scenario stay ``ConfigError``."""
    wrapper = read_json(path, CorruptSnapshot)
    try:
        body = wrapper["body"]
        stored = wrapper["checksum"]
    except (KeyError, TypeError) as exc:
        raise CorruptSnapshot(f"{path}: {exc}") from None
    if not isinstance(body, dict) or _checksum(body) != stored:
        raise CorruptSnapshot(f"{path}: checksum mismatch")
    if body.get("snapshot_version") != SNAPSHOT_VERSION:
        raise VersionMismatch(
            f"{path}: snapshot version {body.get('snapshot_version')}, "
            f"supported {SNAPSHOT_VERSION}"
        )
    try:
        return world_from_dict(body)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise CorruptSnapshot(f"{path}: malformed body: {exc!r}") from None
