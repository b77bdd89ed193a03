"""The user tree: registration, group keys, round keys, leave and rejoin.

The server sits at the root (level 0) and every user hangs below it; a
child's level is its parent's plus one. Registration-token delivery is out
of band by definition (it never crosses the simulated network), so
``register`` writes the token straight into the node. The group key is
stored once, on the node; the server reads it there.

The tree is a single mutable state owned by the simulation loop; all
mutations happen on one logical thread.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Container

from .algebra import FieldParams
from .curve import CurveParams, CurvePoint, OffCurve, scalar_mul
from .errors import HierShareError

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


class InactiveUser(HierShareError):
    """An operation that requires an active node hit an inactive one."""


class PositionOccupied(HierShareError):
    """Rejoin attempted at a slot that is not vacant."""


@dataclass
class HierarchyNode:
    """One user slot: identity, secret token, keys, and parent link. A
    slot is vacant (its member left) while its token is None."""

    id: int
    parent: int
    reg_token: int | None = None
    group_key: CurvePoint | None = None
    round_key: CurvePoint | None = None
    deactivated_by: int | None = None

    @property
    def active(self) -> bool:
        """A node is inactive exactly while a leave (its own or an
        ancestor's) blocks it."""
        return self.deactivated_by is None


@dataclass
class RoundState:
    """Server-side state for one distribution round.

    ``secret`` is the server's round scalar; it must never be serialized
    into any message or snapshot visible to non-server parties.
    """

    round_id: int
    secret: int | None
    public_key: CurvePoint | None


class HierarchyTree:
    """Server plus user nodes, keyed by id, with level-0 root semantics."""

    def __init__(self, curve: CurveParams | None, field_params: FieldParams):
        self.curve = curve
        self.field = field_params
        self.nodes: dict[int, HierarchyNode] = {}
        # Children of every node (the root included), in id order.
        self.children: dict[int, list[int]] = {ROOT_ID: []}
        self._next_id = 1
        self._round_count = 0

    @classmethod
    def for_curve(cls, curve: CurveParams) -> "HierarchyTree":
        return cls(curve, FieldParams(curve.order))

    @classmethod
    def without_curve(cls, prime: int) -> "HierarchyTree":
        """No-curve test mode: shares over a standalone prime, no keys,
        detection disabled."""
        return cls(None, FieldParams(prime))

    # -- queries ---------------------------------------------------------

    def node(self, user_id: int) -> HierarchyNode:
        try:
            return self.nodes[user_id]
        except KeyError:
            raise UnknownUser(f"no user {user_id}") from None

    def is_active(self, user_id: int) -> bool:
        return user_id == ROOT_ID or self.node(user_id).active

    def level(self, user_id: int) -> int:
        if user_id == ROOT_ID:
            return 0
        depth = 0
        cursor = user_id
        while cursor != ROOT_ID:
            cursor = self.node(cursor).parent
            depth += 1
        return depth

    def children_of(self, node_id: int) -> list[int]:
        try:
            return list(self.children[node_id])
        except KeyError:
            raise UnknownUser(f"no user {node_id}") from None

    def active_children(self, node_id: int) -> list[int]:
        return [c for c in self.children_of(node_id) if self.nodes[c].active]

    def active_users(self) -> list[int]:
        return sorted(n.id for n in self.nodes.values() if n.active)

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

    def used_x_coordinates(self) -> set[int]:
        return {n.group_key.x for n in self.nodes.values() if n.group_key is not None}

    # -- token sampling ---------------------------------------------------

    def _sample_token(self, rng: random.Random) -> tuple[int, CurvePoint | None]:
        """Draw a registration token; in curve mode, resample until the
        group key's x-coordinate is unused tree-wide."""
        if self.curve is None:
            return rng.randrange(1, self.field.modulus), None
        used = self.used_x_coordinates()
        # Each x serves at most two points, so 2*order draws without a fresh
        # x means the space is effectively exhausted at toy scale.
        for _ in range(2 * self.curve.order):
            token = rng.randrange(1, self.curve.order)
            key = scalar_mul(token, self.curve.base_point)
            if key.x not in used:
                return token, key
        raise TreeFull(
            f"no unused group-key x-coordinate left on curve {self.curve.name!r}"
        )

    # -- membership operations --------------------------------------------

    def insert(self, node: HierarchyNode) -> None:
        """Add a node below its (already present) parent; nodes must arrive
        in id order, so every child list stays sorted."""
        self.nodes[node.id] = node
        self.children[node.id] = []
        self.children[node.parent].append(node.id)

    def register(self, parent: int, rng: random.Random) -> HierarchyNode:
        """Join under ``parent``: fresh id, fresh secret token, and the
        group key the node and the server both know."""
        if not self.is_active(parent):
            raise ParentInactive(f"parent {parent} is inactive")
        token, key = self._sample_token(rng)
        user_id = self._next_id
        self._next_id += 1
        fresh = HierarchyNode(id=user_id, parent=parent, reg_token=token, group_key=key)
        self.insert(fresh)
        return fresh

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
                node.round_key = None
                deactivated.add(uid)
        leaver.reg_token = None
        leaver.group_key = None
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
        slot.reg_token, slot.group_key = self._sample_token(rng)
        for node in self.nodes.values():
            if node.deactivated_by == position:
                node.deactivated_by = None
        return position

    # -- rounds and keys ----------------------------------------------------

    def begin_round(self, rng: random.Random) -> RoundState:
        """Start a distribution round; in curve mode the server samples a
        round scalar and broadcasts its public round key."""
        if not self.active_users():
            raise EmptyHierarchy("no active users to deal to")
        self._round_count += 1
        if self.curve is None:
            return RoundState(self._round_count, None, None)
        secret = rng.randrange(1, self.curve.order)
        public = scalar_mul(secret, self.curve.base_point)
        return RoundState(self._round_count, secret, public)

    def derive_round_key_user(self, user_id: int, public_round_key: CurvePoint) -> CurvePoint:
        """User-side round key: token * serverPublic."""
        node = self.node(user_id)
        if not node.active:
            raise InactiveUser(f"user {user_id} cannot derive a round key")
        if public_round_key.curve != self.curve:
            raise OffCurve("round key broadcast from a different curve")
        return scalar_mul(node.reg_token, public_round_key)

    def assign_round_keys(self, round_state: RoundState) -> None:
        """Store each active user's round key for the round (curve mode)."""
        if self.curve is None:
            return
        for uid in self.active_users():
            node = self.nodes[uid]
            node.round_key = self.derive_round_key_user(uid, round_state.public_key)
