"""Seeded scenario generators for the benchmark workloads.

Each generator turns a workload seed into a plain scenario dict, the only
input the simulator receives. The tree shapes are fixed per workload; the
seed picks the world seed, the secret, the adversary's targets and (for
``churn-redeal``) the order in which subtrees leave.
"""

from __future__ import annotations

import random

# secp256k1 group order: no-curve workloads share the field size of curve
# mode, so field arithmetic costs what it does there.
SECP256K1_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141

DEFAULT_SEED = 1


def _complete(fanout: int, depth: int) -> list[dict]:
    if depth == 0:
        return []
    return [{"children": _complete(fanout, depth - 1)} for _ in range(fanout)]


def _expand(children: list[dict]) -> list[tuple[int, int]]:
    """(user id, parent id) pairs under the breadth-first numbering from 1
    that scenario files use; parent 0 is the root server."""
    pairs: list[tuple[int, int]] = []
    frontier = [(child, 0) for child in children]
    while frontier:
        node, parent = frontier.pop(0)
        uid = len(pairs) + 1
        pairs.append((uid, parent))
        frontier.extend((child, uid) for child in node["children"])
    return pairs


def _levels(children: list[dict]) -> dict[int, list[int]]:
    level = {0: 0}
    out: dict[int, list[int]] = {}
    for uid, parent in _expand(children):
        level[uid] = level[parent] + 1
        out.setdefault(level[uid], []).append(uid)
    return out


def _base(name: str, rng: random.Random, children: list[dict], modulus: int) -> dict:
    return {
        "schema_version": 1,
        "name": name,
        "tf": {"num": 2, "den": 3},
        "tree": {"children": children},
        "secret": str(rng.randrange(1, modulus)),
        "seed": str(rng.getrandbits(63)),
    }


def renew_secp(seed: int) -> dict:
    """secp256k1 renewal with one tampered group per epoch: four level-1
    members with 2, 3, 4 and 5 children (18 users), and an
    ``active-corruptor`` of budget 1 rotating over the level-1 members."""
    rng = random.Random(f"renew-secp:{seed}")
    children = [{"children": _complete(k, 1)} for k in (2, 3, 4, 5)]
    level1 = _levels(children)[1]
    rng.shuffle(level1)
    scenario = _base("renew-secp", rng, children, SECP256K1_ORDER)
    scenario.update({
        "field_mode": "curve-order",
        "curve": "standard",
        "eval_mode": "round-key",
        "epochs": 4,
        "adversary": {"strategy": "active-corruptor", "budget": 1, "targets": level1},
    })
    return scenario


def _nocurve_tree(name: str, seed: int) -> tuple[dict, random.Random, dict[int, list[int]]]:
    """Complete 4-ary tree of depth 5 (1364 users) in no-curve mode, with a
    ``passive-stealer`` of budget 8 walking 64 seeded leaves."""
    rng = random.Random(f"{name}:{seed}")
    children = _complete(4, 5)
    levels = _levels(children)
    scenario = _base(name, rng, children, SECP256K1_ORDER)
    scenario.update({
        "field_mode": "no-curve",
        "field_prime": str(SECP256K1_ORDER),
        "eval_mode": "user-id",
        "epochs": 40,
        "adversary": {
            "strategy": "passive-stealer",
            "budget": 8,
            "targets": sorted(rng.sample(levels[5], 64)),
        },
    })
    return scenario, rng, levels


def scale_nocurve(seed: int) -> dict:
    """Long renewal run on the large no-curve tree."""
    return _nocurve_tree("scale-nocurve", seed)[0]


def churn_redeal(seed: int) -> dict:
    """The large no-curve tree without renewal: every epoch one level-2
    member (an 85-user subtree) leaves, the previous leaver's slot rejoins,
    and the server redeals."""
    scenario, rng, levels = _nocurve_tree("churn-redeal", seed)
    epochs = scenario["epochs"]
    leavers: list[int] = []
    while len(leavers) < epochs:
        batch = list(levels[2])
        rng.shuffle(batch)
        if leavers and batch[0] == leavers[-1]:
            batch.append(batch.pop(0))
        leavers.extend(batch)
    events = []
    for epoch in range(1, epochs + 1):
        if epoch > 1:
            events.append({"epoch": epoch, "kind": "rejoin", "user": leavers[epoch - 2]})
        events.append({"epoch": epoch, "kind": "leave", "user": leavers[epoch - 1]})
        events.append({"epoch": epoch, "kind": "redeal"})
    scenario["renewal_enabled"] = False
    scenario["events"] = events
    return scenario


# -- expected rows --------------------------------------------------------
#
# Each check compares one report row with what the scenario implies,
# computed here from the tree shape alone, and returns the mismatches.


def _children(scenario: dict) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for uid, parent in _expand(scenario["tree"]["children"]):
        kids.setdefault(parent, []).append(uid)
    return kids


def _compare(row: dict, expected: dict) -> list[str]:
    problems = [
        f"epoch {row['epoch']}: {key} is {row[key]!r}, expected {value!r}"
        for key, value in expected.items()
        if row[key] != value
    ]
    if row["secret_intact"] is not True:
        problems.append(f"epoch {row['epoch']}: secret_intact is false")
    return problems


def _deal_messages(scenario: dict, users: int) -> dict[str, int]:
    messages = {"reqm": users, "share": users}
    if scenario["field_mode"] == "curve-order":
        messages["round-key"] = 1
    return messages


def check_renew_secp(scenario: dict, row: dict) -> list[str]:
    """Every user renews and every group multicasts (criterion 7's n - 1
    deltas plus one multicast per internal node); the level-1 member the
    adversary sits on tampers with its whole group, whose children all
    refuse and claim, and the (n - k) rule convicts and cleanses it."""
    kids = _children(scenario)
    users = sum(len(v) for v in kids.values())
    if row["epoch"] == 0:
        return _compare(row, {"messages": _deal_messages(scenario, users)})
    targets = scenario["adversary"]["targets"]
    # The adversary also hops once at the epoch-0 deal.
    parent = targets[row["epoch"] % len(targets)]
    claimers = kids[parent]
    return _compare(row, {
        "messages": {"claim": len(claimers), "commitments": len(kids), "renewal-delta": users},
        "compromised": [],
        "claims": len(claimers),
        "verdicts": [{
            "accused": parent,
            "outcome": "accused-compromised",
            "claims": len(claimers),
            "claimers": claimers,
        }],
        "cleansed": [parent],
    })


def check_scale_nocurve(scenario: dict, row: dict) -> list[str]:
    """Every user renews; no curve means no multicast and no claims."""
    users = len(_expand(scenario["tree"]["children"]))
    if row["epoch"] == 0:
        return _compare(row, {"messages": _deal_messages(scenario, users)})
    return _compare(row, {
        "messages": {"renewal-delta": users},
        "claims": 0,
        "verdicts": [],
    })


def check_churn_redeal(scenario: dict, row: dict) -> list[str]:
    """One leave broadcast and a redeal to everyone outside the departed
    85-user subtree (the previous one has rejoined)."""
    users = len(_expand(scenario["tree"]["children"]))
    if row["epoch"] == 0:
        return _compare(row, {"messages": _deal_messages(scenario, users)})
    kids = _children(scenario)
    leaver = next(
        e["user"] for e in scenario["events"]
        if e["epoch"] == row["epoch"] and e["kind"] == "leave"
    )
    subtree, frontier = 0, [leaver]
    while frontier:
        subtree += 1
        frontier.extend(kids.get(frontier.pop(), []))
    remaining = users - subtree
    return _compare(row, {
        "messages": {"leave": 1, "reqm": remaining, "share": remaining},
        "claims": 0,
    })


# name -> (scenario generator, row check, whether the world is saved and
# reloaded once at mid-run)
WORKLOADS = {
    "renew-secp": (renew_secp, check_renew_secp, False),
    "scale-nocurve": (scale_nocurve, check_scale_nocurve, False),
    "churn-redeal": (churn_redeal, check_churn_redeal, True),
}
