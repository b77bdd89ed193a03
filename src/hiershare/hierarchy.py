"""The user tree: registration, group keys, round keys, leave and rejoin.

The server sits at the root (level 0) and every user hangs below it; a
child's level is its parent's plus one. Registration-token delivery is out
of band by definition (it never crosses the simulated network), so
``register`` writes a batch of users' tokens straight into their nodes.
Group keys token·G are never computed: their distinct x-coordinates are
read off the tokens. Round keys are computed per deal and never stored.

The tree is a single mutable state owned by the simulation loop; all
mutations happen on one logical thread.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Container, Sequence

from .algebra import randbelow
from .curve import CurveParams, CurvePoint, base_muls, scalar_mul
from .errors import HierShareError

# ``scalar_mul`` is re-exported, uncalled: the benchmark tracer patches it here too.
__all__ = ["ROOT_ID", "HierarchyNode", "HierarchyTree", "ParentInactive", "TreeFull",
           "EmptyHierarchy", "UnknownUser", "AlreadyInactive", "PositionOccupied", "scalar_mul"]

# Parent marker for level-1 users. The server is not a user; ids start at 1.
ROOT_ID = 0


class ParentInactive(HierShareError):
    """Registration or rejoin under a missing or inactive parent."""


class TreeFull(HierShareError):
    """No fresh group-key x-coordinate is available (toy-scale id space)."""


class EmptyHierarchy(HierShareError):
    """A round was started with no active users."""


class UnknownUser(HierShareError):
    pass


class AlreadyInactive(HierShareError):
    pass


class PositionOccupied(HierShareError):
    """Rejoin attempted at a slot that is not vacant."""


@dataclass(slots=True)
class HierarchyNode:
    """One user slot: identity, secret token, and parent link. A slot is
    vacant (its member left) while its token is None."""

    id: int
    parent: int
    reg_token: int | None = None
    deactivated_by: int | None = None

    @property
    def active(self) -> bool:
        """A node is inactive exactly while a leave (its own or an
        ancestor's) blocks it."""
        return self.deactivated_by is None


class HierarchyTree:
    """Server plus user nodes, keyed by id, with level-0 root semantics.
    ``field`` is a curve, whose order is then the share modulus p, or p
    itself. The tree trusts p: ``parse_scenario`` and ``validate_curve``
    prove it where it enters, and a tree built by hand is taken at its word."""

    def __init__(self, field: CurveParams | int):
        self.curve = field if isinstance(field, CurveParams) else None
        self.p: int = field if self.curve is None else self.curve.order
        self.nodes: dict[int, HierarchyNode] = {}
        # Children of every node (the root included), in id order.
        self.children: dict[int, list[int]] = {ROOT_ID: []}
        self.round_count = 0

    # -- queries ---------------------------------------------------------

    def node(self, user_id: int) -> HierarchyNode:
        try:
            return self.nodes[user_id]
        except KeyError:
            raise UnknownUser(f"no user {user_id}") from None

    def is_active(self, user_id: int) -> bool:
        return user_id == ROOT_ID or self.node(user_id).active

    def children_of(self, node_id: int) -> list[int]:
        try:
            return list(self.children[node_id])
        except KeyError:
            raise UnknownUser(f"no user {node_id}") from None

    def active_children(self, node_id: int) -> list[int]:
        return [c for c in self.children_of(node_id) if self.nodes[c].active]

    def subtree(self, user_id: int) -> list[int]:
        """The node and all its descendants, in BFS order."""
        self.node(user_id)
        out = [user_id]
        for current in out:
            out.extend(self.children[current])
        return out

    def levels(self) -> dict[int, list[int]]:
        """Active users grouped by level, each level sorted by id: one
        breadth-first pass that stops at inactive nodes, whose descendants
        are all inactive too."""
        grouped: dict[int, list[int]] = {}
        frontier = [ROOT_ID]
        while True:
            frontier = sorted(
                c for uid in frontier for c in self.children[uid] if self.nodes[c].active
            )
            if not frontier:
                return grouped
            grouped[len(grouped) + 1] = frontier

    def groups(self, holders: Container[int] | None = None) -> dict[int, list[int]]:
        """Each parent (the root included) mapped to its active children, or
        only those in ``holders``, all in id order; parents with no such
        child are left out. One pass over the nodes suffices because an
        active node's parent is always active."""
        grouped: dict[int, list[int]] = {}
        for uid, node in self.nodes.items():
            if node.deactivated_by is None and (holders is None or uid in holders):
                grouped.setdefault(node.parent, []).append(uid)
        return {parent: grouped[parent] for parent in sorted(grouped)}

    # -- token sampling ---------------------------------------------------

    def _sample_tokens(self, count: int, rng: random.Random) -> list[int]:
        """Registration tokens for ``count`` users, drawn in turn. In curve
        mode a draw is kept only if its group key's x-coordinate is unused
        tree-wide, else it is that user's miss. G has prime order n
        (``validate_curve``), so x(t·G) = x(t'·G) iff t' = ±t mod n, and
        the test reads min(t, n - t) off the tokens."""
        p = self.p
        if self.curve is None:
            return [1 + randbelow(rng, p - 1) for _ in range(count)]
        out, misses = [], 0
        used = {min(n.reg_token, p - n.reg_token) for n in self.nodes.values() if n.reg_token}
        while len(out) < count:
            token = 1 + randbelow(rng, p - 1)
            if min(token, p - token) in used:
                # Each x serves at most two points, so 2*order misses in a
                # row mean the space is exhausted at toy scale; draw no more.
                misses += 1
                if misses >= 2 * p:
                    raise TreeFull(f"no unused group-key x-coordinate left on curve {self.curve.name!r}")
                continue
            used.add(min(token, p - token))
            out.append(token)
            misses = 0
        return out

    # -- membership operations --------------------------------------------

    def insert(self, node: HierarchyNode) -> None:
        """Add a node below its (already present) parent; nodes must arrive
        in id order, so every child list stays sorted."""
        self.nodes[node.id] = node
        self.children[node.id] = []
        self.children[node.parent].append(node.id)

    def register(self, parents: Sequence[int], rng: random.Random) -> list[HierarchyNode]:
        """Join one user under each of ``parents`` (each active or an earlier
        user of the batch, checked before any draw), in id order: fresh ids,
        fresh secret tokens, whose group keys the nodes and the server
        both know. All are drawn before any node is added, so a refused
        batch adds nothing. Ids run 1..n and nodes are never removed."""
        first = len(self.nodes) + 1
        for uid, parent in enumerate(parents, start=first):
            if not (first <= parent < uid or parent in self.children and self.is_active(parent)):
                raise ParentInactive(f"parent {parent} is missing or inactive")
        drawn = self._sample_tokens(len(parents), rng)
        for uid, (parent, token) in enumerate(zip(parents, drawn), first):
            self.insert(HierarchyNode(uid, parent, token))
        return [self.nodes[uid] for uid in range(first, len(self.nodes) + 1)]

    def leave(self, user_id: int) -> set[int]:
        """Process a leave broadcast: the leaver and every node in its
        subtree stop participating; the server drops the leaver's key."""
        leaver = self.node(user_id)
        if not leaver.active:
            raise AlreadyInactive(f"user {user_id} is already inactive")
        deactivated: set[int] = set()
        for uid in self.subtree(user_id):
            node = self.nodes[uid]
            if node.active:
                node.deactivated_by = user_id
                deactivated.add(uid)
        leaver.reg_token = None
        return deactivated

    def rejoin(self, position: int, rng: random.Random) -> int:
        """Fill a vacated slot with a fresh member; the subtree that was
        blocked by that leave becomes active again. Like registration, it
        needs an active parent."""
        slot = self.node(position)
        if slot.reg_token is not None:
            raise PositionOccupied(f"slot {position} is not vacant")
        if not self.is_active(slot.parent):
            raise ParentInactive(f"parent {slot.parent} is inactive")
        [slot.reg_token] = self._sample_tokens(1, rng)
        for uid in self.subtree(position):
            node = self.nodes[uid]
            if node.deactivated_by == position:
                node.deactivated_by = None
        return position

    # -- rounds and keys ----------------------------------------------------

    def begin_round(self, rng: random.Random) -> int | None:
        """Start a distribution round (its number is ``round_count``) and
        return the server's round scalar, None in no-curve mode. The scalar
        never leaves the server. Its public round key R = secret·G is what
        the server broadcasts, but nothing reads R: ``assign_round_keys``
        derives each user's token·R from the base-point table."""
        if not any(node.active for node in self.nodes.values()):
            raise EmptyHierarchy("no active users to deal to")
        self.round_count += 1
        return None if self.curve is None else 1 + randbelow(rng, self.p - 1)

    def assign_round_keys(self, secret: int | None) -> dict[int, CurvePoint]:
        """Each active user's round key for the round whose scalar is
        ``secret``, none without a curve: token * serverPublic in the
        protocol, here the same point read from the base-point table as
        (token * secret mod order) * G, all of a deal's keys summed in one
        ``base_muls`` batch's levels. Nothing is stored. This relies on
        ``validate_curve``'s check that the order is prime and that
        order * G is the identity."""
        if self.curve is None:
            return {}
        active = [node for node in self.nodes.values() if node.active]
        scalars = [node.reg_token * secret % self.p for node in active]
        return {node.id: key for node, key in zip(active, base_muls(scalars, self.curve))}
