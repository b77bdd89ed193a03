"""Hierarchical threshold dealing and bottom-up reconstruction.

The dealer (root server) shares a secret down the tree: each sibling group
gets evaluations of its parent's polynomial, every internal node's
evaluation is split into a part the node keeps and a part the server
retains as the free coefficient of that node's own child polynomial, and
leaves keep their evaluation whole. Reconstruction runs the other way:
each sibling group interpolates the retained part of its parent, the
parent adds its own kept part, and the climb repeats until the root
recovers the secret.

Dealing is deterministic given (tree, seed) and re-entrant across
independent scenario instances; the dealer state belongs to the server
role inside the single-threaded simulation loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping

from .algebra import Polynomial, lagrange_at_zero, poly_eval, sample_polynomial
from .errors import HierShareError
from .hierarchy import ROOT_ID, HierarchyTree, RoundState


class InactiveSubtree(HierShareError):
    """A leave left the tree in a state the round cannot be dealt over."""


class EvalPointCollision(HierShareError):
    """Sibling evaluation points collided or hit zero; resolved upstream by
    re-running the round, surfaced when retries are exhausted."""


class InsufficientShares(HierShareError):
    """A sibling group fell below its threshold during reconstruction."""

    def __init__(self, group_parent: int, have: int, need: int):
        self.group_parent = group_parent
        self.have = have
        self.need = need
        super().__init__(
            f"sibling group under node {group_parent}: "
            f"{have} participating, threshold {need}"
        )


class StaleEpoch(HierShareError):
    """Shares from different epochs were mixed inside one sibling group."""


class MixedEpochs(HierShareError):
    """A coalition analysis was asked to span epochs."""


EVAL_ROUND_KEY = "round-key"
EVAL_USER_ID = "user-id"


@dataclass(frozen=True)
class ThresholdFactor:
    """Exact rational in (0, 1]; the quorum for a group of n is ceil(tf*n)."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator <= 0:
            raise ValueError("TF denominator must be positive")
        if self.numerator <= 0 or self.numerator > self.denominator:
            raise ValueError("TF must be in (0,1]")


def compute_threshold(tf: ThresholdFactor, n: int) -> int:
    """ceil(tf * n) in exact integer arithmetic; always in [1, n]."""
    if n < 1:
        raise ValueError(f"group size must be positive, got {n}")
    return -(-tf.numerator * n // tf.denominator)


def split(value: int, p: int, rng: random.Random) -> tuple[int, int]:
    """Decompose a field value into two nonzero parts that sum back to it
    mod p.

    The first part is uniform over the nonzero elements whose complement is
    also nonzero; resampling always terminates for modulus > 2.
    """
    while True:
        first = rng.randrange(1, p)
        second = (value - first) % p
        if second != 0:
            return first, second


@dataclass(frozen=True)
class ShareRecord:
    """One user's share: the kept part plus the metadata needed to use it.

    ``threshold`` is the quorum size of the sibling group the owner belongs
    to; ``split`` records whether the owner's group evaluation was split
    (true for nodes dealt as internal), which the owner knows from the
    protocol itself.
    """

    owner: int
    eval_point: int
    value: int
    threshold: int
    round_id: int
    epoch: int = 0
    split: bool = False


@dataclass
class DealerState:
    """Server-side dealing state: the secret and one polynomial per group,
    keyed by the group's parent (the root's has the secret as its free
    coefficient).

    The free coefficient of an internal node's polynomial is the part of
    that node's evaluation the server retains; it never leaves the server
    except indirectly, through the shares dealt to the node's children. A
    group's threshold is its polynomial's degree plus one.
    """

    secret: int
    polynomials: dict[int, Polynomial] = field(default_factory=dict)


def assign_eval_points(
    tree: HierarchyTree, groups: Mapping[int, list[int]], mode: str = EVAL_ROUND_KEY
) -> dict[int, int]:
    """Evaluation point per member of ``groups`` (``tree.groups()``).

    Round-key mode uses the x-coordinate of the user's round key reduced
    into the share field (giving round keys their per-round purpose);
    user-id mode uses the raw id. Zero points or collisions among siblings
    raise EvalPointCollision: in round-key mode a fresh round fixes it, in
    user-id mode it is a configuration error.
    """
    points: dict[int, int] = {}
    for group in groups.values():
        seen: dict[int, int] = {}
        for uid in group:
            if mode == EVAL_ROUND_KEY:
                key = tree.nodes[uid].round_key
                if key is None:
                    raise InactiveSubtree(f"user {uid} has no round key")
                x = key.x % tree.field.modulus
            elif mode == EVAL_USER_ID:
                x = uid % tree.field.modulus
            else:
                raise ValueError(f"unknown eval-point mode {mode!r}")
            if x == 0:
                raise EvalPointCollision(f"user {uid} drew evaluation point zero")
            if x in seen:
                raise EvalPointCollision(
                    f"siblings {seen[x]} and {uid} share evaluation point {x}"
                )
            seen[x] = uid
            points[uid] = x
    return points


def distribute(
    tree: HierarchyTree,
    dealer: DealerState,
    round_state: RoundState,
    tf: ThresholdFactor,
    rng: random.Random,
    eval_mode: str = EVAL_ROUND_KEY,
    *,
    levels: dict[int, list[int]],
) -> dict[int, ShareRecord]:
    """Deal the dealer's secret down the tree, level by level.

    ``levels`` is ``tree.levels()`` for the membership being dealt to; the
    caller computes it once per deal. Every active user ends up holding
    exactly one share; the field modulus is the same at every level.
    Raises InactiveSubtree when a leave has blocked the round (no level-1
    users, or an internal node with children but none of them active).
    """
    groups = tree.groups()
    if ROOT_ID not in groups:
        raise InactiveSubtree("no active level-1 users")
    for uid in tree.active_users():
        if tree.children[uid] and uid not in groups:
            raise InactiveSubtree(
                f"internal node {uid} has no active children; a leave blocked the round"
            )

    points = assign_eval_points(tree, groups, eval_mode)
    p = tree.field.modulus

    root_degree = compute_threshold(tf, len(groups[ROOT_ID])) - 1
    dealer.polynomials = {ROOT_ID: sample_polynomial(rng, root_degree, dealer.secret, p)}

    shares: dict[int, ShareRecord] = {}
    for level in sorted(levels):
        for uid in levels[level]:
            node = tree.nodes[uid]
            parent_poly = dealer.polynomials[node.parent]
            evaluation = poly_eval(parent_poly, points[uid], p)
            kids = groups.get(uid)
            if kids:
                kept, retained = split(evaluation, p, rng)
                dealer.polynomials[uid] = sample_polynomial(
                    rng, compute_threshold(tf, len(kids)) - 1, retained, p
                )
            else:
                kept = evaluation
            shares[uid] = ShareRecord(
                owner=uid,
                eval_point=points[uid],
                value=kept,
                threshold=parent_poly.degree + 1,
                round_id=round_state.round_id,
                epoch=0,
                split=bool(kids),
            )
    return shares


def recover_group_secret(
    tree: HierarchyTree,
    shares: Mapping[int, ShareRecord],
    participating: Iterable[int],
    parent_id: int,
) -> int:
    """Recover the value jointly held by ``parent_id``'s children: the
    parent's retained part, or the original secret when parent_id is the
    root.

    Inactive users and users without shares are treated as not
    participating. Raises InsufficientShares naming the first sibling group
    that fell below threshold on the path that was needed, and StaleEpoch
    when a group's participants span epochs.
    """
    active = set(tree.active_users())
    participants = {
        uid for uid in participating if uid in shares and uid in active
    }
    p = tree.field.modulus
    failures: list[InsufficientShares] = []
    values: dict[int, int | None] = {}
    for gid, kids in _groups_children_first(tree, shares, parent_id, participants):
        available: list[tuple[ShareRecord, int]] = []
        for kid in kids:
            rec = shares[kid]
            if not rec.split:
                available.append((rec, rec.value))
            elif values[kid] is not None:
                available.append((rec, (rec.value + values[kid]) % p))
        epochs = {rec.epoch for rec, _ in available}
        if len(epochs) > 1:
            raise StaleEpoch(
                f"sibling group under {gid} mixes epochs {sorted(epochs)}"
            )
        thresholds = {rec.threshold for rec, _ in available}
        if len(thresholds) > 1:
            raise ValueError(f"inconsistent thresholds recorded under {gid}")
        need = thresholds.pop() if thresholds else 1
        if len(available) < need:
            failures.append(InsufficientShares(gid, len(available), need))
            values[gid] = None
            continue
        quorum = sorted(available, key=lambda pair: pair[0].owner)[:need]
        values[gid] = lagrange_at_zero([(rec.eval_point, c) for rec, c in quorum], p)
    secret = values[parent_id]
    if secret is None:
        raise failures[0]
    return secret


def _groups_children_first(
    tree: HierarchyTree,
    shares: Mapping[int, ShareRecord],
    top: int,
    eligible: Collection[int],
) -> list[tuple[int, list[int]]]:
    """(group parent, its children in ``eligible``) for ``top`` and for
    every split member below it, children before parents: the order a
    left-to-right recursive climb finishes groups in. Iterative, so tree
    depth is not bounded by the interpreter's stack."""
    order: list[tuple[int, list[int]]] = []
    pending = [top]
    while pending:
        gid = pending.pop()
        kids = [c for c in tree.children_of(gid) if c in eligible]
        order.append((gid, kids))
        pending.extend(kid for kid in kids if shares[kid].split)
    order.reverse()
    return order


def reconstruct(
    tree: HierarchyTree,
    shares: Mapping[int, ShareRecord],
    participating: Iterable[int],
) -> int:
    """Bottom-up reconstruction of the root secret from the given
    participants' shares."""
    return recover_group_secret(tree, shares, participating, ROOT_ID)


def knowledge_closure(
    tree: HierarchyTree, coalition: Mapping[int, ShareRecord]
) -> bool:
    """Whether a coalition can derive the root secret from its shares alone.

    One children-first pass over the coalition's groups: a group's value
    (its parent's retained part, or the secret at the root) is known once
    threshold-many of its coalition children contribute, where an unsplit
    child contributes its share and a split child contributes once its own
    group is known. Members count even if they have left since their share
    was taken. No server-retained values are assumed.
    """
    if not coalition:
        return False
    epochs = {rec.epoch for rec in coalition.values()}
    if len(epochs) > 1:
        raise MixedEpochs(f"coalition spans epochs {sorted(epochs)}")

    known: set[int] = set()
    for gid, kids in _groups_children_first(tree, coalition, ROOT_ID, coalition):
        contributors = [
            kid for kid in kids if not coalition[kid].split or kid in known
        ]
        if contributors and len(contributors) >= coalition[contributors[0]].threshold:
            known.add(gid)
    return ROOT_ID in known

