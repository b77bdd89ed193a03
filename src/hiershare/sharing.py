"""Hierarchical threshold dealing and bottom-up reconstruction.

The dealer (root server) shares a secret down the tree: each sibling group
gets evaluations of its parent's polynomial, every internal node's
evaluation is split into a part the node keeps and a part the server
retains as the free coefficient of that node's own child polynomial, and
leaves keep their evaluation whole. Reconstruction runs the other way:
each sibling group interpolates the retained part of its parent, the
parent adds its own kept part, and the climb repeats until the root
recovers the secret. One threshold walk decides which groups are
recovered: top down, each needed group takes its first threshold-many
contributors, a split child counting once its own group is taken.
Reconstruction, the shortfall it reports and a coalition's knowledge
closure all read that walk.

Reconstruction is split into a form and a dot product. The form is a
list of owners and one weight per owner: the walk picks the
contributors with no arithmetic, and a second pass multiplies the
Lagrange weights along the path of every picked group. So only the
groups the top needs are read or interpolated. The form depends on the
holders' view, the split set, the groups' thresholds and the picked
owners' evaluation points, never on the kept values; a caller that keeps
it (``simnet``'s intact check, per round and view) reads the values
live.

Shares are stored once per sibling group (``GroupShares``): the group's
epoch and threshold sit on the group record, next to each member's
evaluation point and kept value. The round is the world's, and a member's
value is split exactly when it is in the dealer's split set. A host's
own view of its share (``HeldShare``) copies the two group facts it knows
from the protocol; it is what a sealed share message carries and what an
adversary steals.

Dealing is deterministic given (tree, seed) and re-entrant across
independent scenario instances; the dealer state belongs to the server
role inside the single-threaded simulation loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

from .algebra import lagrange_weights, randbelow, sample_polynomial
from .errors import HierShareError
from .hierarchy import ROOT_ID, HierarchyTree


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
    also nonzero, drawn as ``1 + randbelow(rng, p - 1)``; resampling always
    terminates for modulus > 2.
    """
    while True:
        first = 1 + randbelow(rng, p - 1)
        second = (value - first) % p
        if second != 0:
            return first, second


class HeldShare(NamedTuple):
    """One host's share as the host knows it: its evaluation point and kept
    value, its group's threshold, and whether the value is split (true for
    nodes dealt as internal). Round, epoch and owner are where the copy is
    kept, not in it."""

    eval_point: int
    value: int
    threshold: int
    split: bool


class GroupShares(NamedTuple):
    """One sibling group's shares in one epoch of the live round: the
    group's epoch and threshold, and each member's (evaluation point, kept
    value) in id order. The group's parent is its members' tree parent.
    Renewal commits or discards a whole group, so it builds a new record
    rather than changing this one."""

    epoch: int
    threshold: int
    members: Mapping[int, tuple[int, int]]

    def held_by(self, owner: int, split: bool) -> HeldShare:
        """``owner``'s own copy; ``split`` is read from the dealer."""
        eval_point, value = self.members[owner]
        return HeldShare(eval_point, value, self.threshold, split)


@dataclass
class DealerState:
    """Server-side dealing state: the secret, and the users the live round
    dealt as internal nodes (``split``), whose kept values are only part
    of their evaluations. The dealing polynomials live only while
    ``distribute`` runs; no later step reads the retained parts, since a
    split child's value is recovered from its own group.
    """

    secret: int
    split: frozenset[int] = frozenset()


def assign_eval_points(
    tree: HierarchyTree, groups: Mapping[int, list[int]], round_secret: int | None
) -> dict[int, int]:
    """Evaluation point per member of ``groups`` (``tree.groups()``) in the
    round whose server scalar is ``round_secret``.

    On a curve it is the x-coordinate of the user's round key reduced into
    the share field (giving round keys their per-round purpose); without a
    curve it is the raw id. Zero points or collisions among siblings raise
    EvalPointCollision: on a curve a fresh round fixes it, without one it
    is a configuration error.
    """
    p = tree.p
    keys = tree.assign_round_keys(round_secret)
    points: dict[int, int] = {}
    for group in groups.values():
        seen: dict[int, int] = {}
        for uid in group:
            x = (uid if tree.curve is None else keys[uid].x) % p
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
    groups: Mapping[int, list[int]],
    dealer: DealerState,
    tf: ThresholdFactor,
    rng: random.Random,
    round_secret: int | None,
) -> dict[int, GroupShares]:
    """Deal the dealer's secret down ``groups`` (the tree's ``groups()``),
    one sibling group at a time in parent-id order, and map each active
    user to its group's epoch-0 record. ``round_secret`` is what
    ``begin_round`` returned; it fixes the evaluation points.

    A parent's id is below its children's, so its polynomial is drawn
    (``sample_polynomial``) before its own group is dealt, and is dropped
    once it is. Each member's evaluation is inline Horner. It is reduced
    mod p once when the widest point's bit length times the degree stays
    within p's (no-curve points are small user ids), and at every step
    otherwise (curve points are as wide as p). The field modulus is the
    same at every level; a group's threshold is its polynomial's length.
    Sets ``dealer.split``. Raises InactiveSubtree when
    a leave has blocked the round (no level-1 users, or an internal node
    with children but none active).
    """
    if ROOT_ID not in groups:
        raise InactiveSubtree("no active level-1 users")
    for kids in groups.values():
        for uid in kids:
            if tree.children[uid] and uid not in groups:
                raise InactiveSubtree(
                    f"internal node {uid} has no active children; a leave blocked the round"
                )

    points = assign_eval_points(tree, groups, round_secret)
    p = tree.p

    root_degree = compute_threshold(tf, len(groups[ROOT_ID])) - 1
    polynomials = {ROOT_ID: sample_polynomial(rng, root_degree, dealer.secret, p)}

    # Bits an unreduced Horner value gains per degree, at the widest point.
    width = max(points.values()).bit_length()
    shares: dict[int, GroupShares] = {}
    for parent, kids in groups.items():
        polynomial = polynomials.pop(parent)
        high_first = polynomial[::-1]
        once = (len(polynomial) - 1) * width <= p.bit_length()
        members: dict[int, tuple[int, int]] = {}
        for uid in kids:
            x, evaluation = points[uid], 0
            if once:
                for coeff in high_first:
                    evaluation = evaluation * x + coeff
                evaluation %= p
            else:
                for coeff in high_first:
                    evaluation = (evaluation * x + coeff) % p
            if uid in groups:
                kept, retained = split(evaluation, p, rng)
                polynomials[uid] = sample_polynomial(
                    rng, compute_threshold(tf, len(groups[uid])) - 1, retained, p
                )
            else:
                kept = evaluation
            members[uid] = (x, kept)
        group = GroupShares(0, len(polynomial), members)
        for uid in kids:
            shares[uid] = group
    dealer.split = frozenset(groups.keys() - {ROOT_ID})
    return shares


def _pick(
    records: Mapping[int, GroupShares | HeldShare],
    groups: Mapping[int, Sequence[int]],
    top: int,
    split: Container[int],
) -> tuple[dict[int, list[int]], tuple[int, int, int] | None]:
    """The threshold walk: each group read from ``top`` that reached its
    threshold, mapped to its contributors, and the first group it finished
    short as (group parent, contributors, threshold), or None.

    Top down from ``top`` with an explicit stack and no arithmetic: each
    group takes its children in ``groups`` in order until it has
    threshold-many contributors, where an unsplit child counts at once and
    a split child once its own group, walked when reached, is picked; no
    group past the last needed contributor is read. A group's threshold is
    its first child's record's; a split child with no child in ``groups``
    heads an empty group of threshold 1.
    """

    def frame(gid):
        """(group parent, threshold, children left to read, picks so far)."""
        kids = groups.get(gid, ())
        return gid, records[kids[0]].threshold if kids else 1, iter(kids), []

    picked: dict[int, list[int]] = {}
    short = None
    stack = [frame(top)]
    while stack:
        gid, need, kids, chosen = stack[-1]
        kid = next(kids, None) if len(chosen) < need else None
        if kid in split:
            stack.append(frame(kid))
        elif kid is not None:
            chosen.append(kid)
        else:
            stack.pop()
            if len(chosen) == need:
                picked[gid] = chosen
                if stack:
                    stack[-1][3].append(gid)
            elif short is None:
                short = gid, len(chosen), need
    return picked, short


def reconstruction_form(
    tree: HierarchyTree,
    shares: Mapping[int, GroupShares],
    groups: Mapping[int, Sequence[int]],
    parent_id: int,
    split: Container[int],
) -> tuple[list[int], list[int]]:
    """The owners whose kept values recover ``parent_id``'s group value,
    and one weight per owner, so the value is their dot product mod p.
    Arguments as for ``recover_group_secret``.

    ``_pick`` walks from parent_id; when its group falls short,
    InsufficientShares names the first group the walk finished short.
    Then a top-down pass over the picked groups multiplies the Lagrange
    weights of each group's picked evaluation points (stored reduced mod
    p) along the path into one weight per owner, since a split member's
    contribution is its kept value plus its own group's value.
    """
    picked, short = _pick(shares, groups, parent_id, split)
    if parent_id not in picked:
        raise InsufficientShares(*short)

    p = tree.p
    owners: list[int] = []
    weights: list[int] = []
    pending = [(parent_id, 1)]
    while pending:
        gid, scale = pending.pop()
        kids = picked[gid]
        points = tuple([shares[kid].members[kid][0] for kid in kids])
        for kid, weight in zip(kids, lagrange_weights(points, p)):
            weight = weight * scale % p
            owners.append(kid)
            weights.append(weight)
            if kid in split:
                pending.append((kid, weight))
    return owners, weights


def recover_group_secret(
    tree: HierarchyTree,
    shares: Mapping[int, GroupShares],
    groups: Mapping[int, Sequence[int]],
    parent_id: int,
    split: Container[int],
) -> int:
    """Recover the value jointly held by ``parent_id``'s children: the
    parent's retained part, or the original secret when parent_id is the
    root. ``groups`` is ``tree.groups()`` of the participants that hold
    shares; ``split`` holds the users dealt as internal nodes (the round's
    ``dealer.split``).

    Two passes build the ``reconstruction_form`` (which owners, with which
    weights; it raises InsufficientShares), and the value is the dot
    product of its weights with the owners' kept values.
    """
    owners, weights = reconstruction_form(tree, shares, groups, parent_id, split)
    values = [shares[uid].members[uid][1] for uid in owners]
    return sum(map(mul, weights, values)) % tree.p


def reconstruct(
    tree: HierarchyTree,
    shares: Mapping[int, GroupShares],
    participating: Iterable[int],
    split: Container[int],
) -> int:
    """Bottom-up reconstruction of the root secret from the given
    participants' shares; ``split`` as for ``recover_group_secret``."""
    groups = tree.groups(shares.keys() & participating)
    return recover_group_secret(tree, shares, groups, ROOT_ID, split)


def knowledge_closure(tree: HierarchyTree, coalition: Mapping[int, HeldShare]) -> bool:
    """Whether a coalition can derive the root secret from its copies of
    shares of one round and epoch alone, keyed by owner: whether the
    threshold walk over its members, grouped by parent link in id order,
    picks the root's group. Thresholds and splits are the copies' own,
    those of the round they were dealt in. Members count even if they have
    left since their share was taken. No server-retained values are
    assumed.
    """
    split = {uid for uid, share in coalition.items() if share.split}
    groups: dict[int, list[int]] = {}
    for uid in sorted(coalition):
        groups.setdefault(tree.nodes[uid].parent, []).append(uid)
    return ROOT_ID in _pick(coalition, groups, ROOT_ID, split)[0]
