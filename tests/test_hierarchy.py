"""Tree membership, key derivation, leave and rejoin."""

import copy
import random

import pytest
from conftest import active_users, tree_for_curve

from hiershare import hierarchy
from hiershare.algebra import FieldParams
from hiershare.curve import PROFILES, STANDARD_CURVE, scalar_mul
from hiershare.hierarchy import (
    ROOT_ID,
    AlreadyInactive,
    EmptyHierarchy,
    HierarchyTree,
    ParentInactive,
    PositionOccupied,
    TreeFull,
    UnknownUser,
)


def level(tree, user_id):
    """Depth below the server by walking parent links: the brute-force
    reference for ``HierarchyTree.levels``."""
    depth = 0
    while user_id != ROOT_ID:
        user_id = tree.node(user_id).parent
        depth += 1
    return depth


class QueuedRandom(random.Random):
    """Deterministic stand-in that serves preset randrange results."""

    def __new__(cls, values):
        return super().__new__(cls, 0)

    def __init__(self, values):
        super().__init__(0)
        self._queue = list(values)

    def randrange(self, *args, **kwargs):
        return self._queue.pop(0)


def public_round_key(tree, secret):
    """The server's broadcast R = roundSecret * G, which the protocol
    sends and the simulator never computes."""
    return scalar_mul(secret, tree.curve.base_point)


def derive_round_key_user(tree, user_id, public_round_key):
    """User-side round key: token * serverPublic, by the generic
    multiplication."""
    return scalar_mul(tree.node(user_id).reg_token, public_round_key)


def derive_round_key_server(secret, group_key):
    """Server-side round key: roundSecret * groupKey. Agrees with the
    user-side derivation because both equal token*secret*G."""
    return scalar_mul(secret, group_key)


@pytest.fixture
def toy_tree(toy):
    return tree_for_curve(toy)


def build_figure2_tree(tree, rng):
    """Root -> {1, 2, 3}; 2 -> {6, 7}; 6 -> three leaves; 7 -> three leaves;
    1 -> {4, 5}; 3 -> {8}. Ids follow registration order."""
    for _ in range(3):
        tree.register(ROOT_ID, rng)
    tree.register(1, rng)  # 4
    tree.register(1, rng)  # 5
    tree.register(2, rng)  # 6
    tree.register(2, rng)  # 7
    tree.register(3, rng)  # 8
    for parent in (6, 6, 6, 7, 7, 7):
        tree.register(parent, rng)  # 9..14
    return tree


class TestRegister:
    def test_first_user_is_level_one(self, toy_tree, rng):
        node = toy_tree.register(ROOT_ID, rng)
        assert node.id == 1
        assert level(toy_tree, node.id) == 1
        assert node.group_key == scalar_mul(node.reg_token, toy_tree.curve.base_point)

    def test_group_key_x_coordinates_distinct(self, toy_tree, rng):
        a = toy_tree.register(ROOT_ID, rng)
        b = toy_tree.register(ROOT_ID, rng)
        assert a.group_key.x != b.group_key.x

    def test_reproducible_token_sequence(self, toy):
        runs = []
        for _ in range(2):
            tree = tree_for_curve(toy)
            rng = random.Random(42)
            runs.append([tree.register(ROOT_ID, rng).reg_token for _ in range(4)])
        assert runs[0] == runs[1]

    def test_parent_inactive(self, toy_tree, rng):
        node = toy_tree.register(ROOT_ID, rng)
        toy_tree.leave(node.id)
        with pytest.raises(ParentInactive):
            toy_tree.register(node.id, rng)

    def test_tree_full_at_ten_users_on_toy_curve(self, toy_tree, rng):
        # The toy group has exactly 9 distinct x-coordinates.
        for _ in range(9):
            toy_tree.register(ROOT_ID, rng)
        with pytest.raises(TreeFull):
            toy_tree.register(ROOT_ID, rng)

    def test_no_curve_mode_has_no_keys(self, rng):
        tree = HierarchyTree(None, FieldParams(31))
        node = tree.register(ROOT_ID, rng)
        assert node.group_key is None
        assert 1 <= node.reg_token < 31


class TestBeginRound:
    def test_public_key_on_curve(self, toy_tree, rng):
        toy_tree.register(ROOT_ID, rng)
        public = public_round_key(toy_tree, toy_tree.begin_round(rng))
        assert not public.is_identity
        assert toy_tree.curve.contains(public.x, public.y)

    def test_forced_unit_secret_gives_base_point(self, toy_tree, rng):
        toy_tree.register(ROOT_ID, rng)
        secret = toy_tree.begin_round(QueuedRandom([1]))
        assert secret == 1
        assert public_round_key(toy_tree, secret) == toy_tree.curve.base_point

    def test_two_rounds_distinct_secrets(self, toy_tree):
        rng = random.Random(5)
        toy_tree.register(ROOT_ID, rng)
        first = toy_tree.begin_round(rng)
        assert toy_tree.round_count == 1
        second = toy_tree.begin_round(rng)
        assert first != second
        assert toy_tree.round_count == 2

    def test_draws_one_scalar_and_multiplies_nothing(self, toy_tree, rng, monkeypatch):
        toy_tree.register(ROOT_ID, rng)
        calls = []
        monkeypatch.setattr(hierarchy, "scalar_mul", lambda *args: calls.append(args))
        draws = QueuedRandom([5, 6])
        assert toy_tree.begin_round(draws) == 5
        assert draws._queue == [6]
        assert calls == []

    def test_no_curve_round_draws_nothing(self, rng):
        tree = HierarchyTree(None, FieldParams(31))
        tree.register(ROOT_ID, rng)
        before = rng.getstate()
        assert tree.begin_round(rng) is None
        assert rng.getstate() == before
        assert tree.round_count == 1

    def test_empty_hierarchy(self, toy_tree, rng):
        with pytest.raises(EmptyHierarchy):
            toy_tree.begin_round(rng)

    def test_every_registered_user_left(self, toy_tree, rng):
        for _ in range(2):
            toy_tree.register(ROOT_ID, rng)
        toy_tree.leave(1)
        toy_tree.begin_round(rng)
        assert toy_tree.round_count == 1
        toy_tree.leave(2)
        with pytest.raises(EmptyHierarchy):
            toy_tree.begin_round(rng)
        assert toy_tree.round_count == 1


class TestRoundKeys:
    def test_unit_token_returns_public_key(self, toy_tree, rng):
        node = toy_tree.register(ROOT_ID, QueuedRandom([1]))
        assert node.reg_token == 1
        secret = toy_tree.begin_round(rng)
        keys = toy_tree.assign_round_keys(secret)
        assert keys[node.id] == public_round_key(toy_tree, secret)

    def test_token_three_secret_two_gives_sixth_multiple(self, toy_tree):
        node = toy_tree.register(ROOT_ID, QueuedRandom([3]))
        keys = toy_tree.assign_round_keys(toy_tree.begin_round(QueuedRandom([2])))
        assert keys[node.id] == scalar_mul(6, toy_tree.curve.base_point)

    def test_inactive_node_refused(self, toy_tree, rng):
        node = toy_tree.register(ROOT_ID, rng)
        other = toy_tree.register(ROOT_ID, rng)
        assert set(toy_tree.assign_round_keys(toy_tree.begin_round(rng))) == {node.id, other.id}
        toy_tree.leave(node.id)
        assert set(toy_tree.assign_round_keys(toy_tree.begin_round(rng))) == {other.id}

    @pytest.mark.parametrize("curve_name", ["toy", "standard", None])
    def test_writes_nothing_and_keys_exactly_the_active_users(self, curve_name):
        # Without a curve there are no round keys at all.
        if curve_name is None:
            tree = HierarchyTree(None, FieldParams(31))
        else:
            tree = tree_for_curve(PROFILES[curve_name])
        rng = random.Random(31)
        for _ in range(4):
            tree.register(ROOT_ID, rng)
        tree.register(1, rng)
        tree.register(2, rng)
        tree.leave(2)
        before = copy.deepcopy(tree.nodes)
        keys = tree.assign_round_keys(tree.begin_round(rng))
        assert tree.nodes == before
        expected = [] if curve_name is None else active_users(tree)
        assert sorted(keys) == expected

    def test_server_unit_secret_returns_group_key(self, toy_tree, rng):
        node = toy_tree.register(ROOT_ID, rng)
        secret = toy_tree.begin_round(QueuedRandom([1]))
        assert derive_round_key_server(secret, node.group_key) == node.group_key

    def test_identity_group_key_gives_identity(self, toy_tree, rng):
        toy_tree.register(ROOT_ID, rng)
        secret = toy_tree.begin_round(rng)
        assert derive_round_key_server(secret, toy_tree.curve.identity()).is_identity

    def test_user_and_server_derivations_agree(self, toy_tree):
        # Every node, many rounds: token*(secret*G) == secret*(token*G).
        rng = random.Random(13)
        nodes = [toy_tree.register(ROOT_ID, rng) for _ in range(8)]
        for _ in range(10):
            secret = toy_tree.begin_round(rng)
            public = public_round_key(toy_tree, secret)
            for node in nodes:
                user_side = derive_round_key_user(toy_tree, node.id, public)
                server_side = derive_round_key_server(secret, node.group_key)
                assert user_side == server_side

    @pytest.mark.parametrize("curve_name", ["toy", "standard"])
    def test_returned_key_matches_both_derivations(self, curve_name):
        # The returned (token*secret mod n)*G equals token*R and
        # secret*groupKey for every active user.
        tree = tree_for_curve(PROFILES[curve_name])
        rng = random.Random(29)
        for _ in range(6):
            tree.register(ROOT_ID, rng)
        tree.register(2, rng)
        tree.register(3, rng)
        tree.leave(3)
        for _ in range(4):
            secret = tree.begin_round(rng)
            keys = tree.assign_round_keys(secret)
            public = public_round_key(tree, secret)
            for uid, key in keys.items():
                assert key == derive_round_key_user(tree, uid, public)
                assert key == derive_round_key_server(secret, tree.node(uid).group_key)


class TestLeaveAndRejoin:
    def test_leaf_leave_deactivates_only_itself(self, toy_tree, rng):
        a = toy_tree.register(ROOT_ID, rng)
        b = toy_tree.register(ROOT_ID, rng)
        gone = toy_tree.leave(b.id)
        assert gone == {b.id}
        assert toy_tree.nodes[a.id].active

    def test_internal_leave_takes_subtree(self, toy_tree, rng):
        # A leaver with a 3-node subtree below it: 4 deactivations total.
        top = toy_tree.register(ROOT_ID, rng)
        mid = toy_tree.register(top.id, rng)
        kid = toy_tree.register(mid.id, rng)
        grandkids = [toy_tree.register(kid.id, rng) for _ in range(2)]
        gone = toy_tree.leave(mid.id)
        assert gone == {mid.id, kid.id, grandkids[0].id, grandkids[1].id}
        assert len(gone) == 4
        assert toy_tree.nodes[top.id].active

    def test_figure2_shape(self):
        tree = HierarchyTree(None, FieldParams(101))
        build_figure2_tree(tree, random.Random(1))
        gone = tree.leave(2)
        assert gone == {2, 6, 7, 9, 10, 11, 12, 13, 14}
        assert sorted(active_users(tree)) == [1, 3, 4, 5, 8]

    def test_server_drops_group_key(self, toy_tree, rng):
        node = toy_tree.register(ROOT_ID, rng)
        toy_tree.register(ROOT_ID, rng)
        assert node.group_key is not None
        toy_tree.leave(node.id)
        assert node.group_key is None

    def test_unknown_and_double_leave(self, toy_tree, rng):
        with pytest.raises(UnknownUser):
            toy_tree.leave(99)
        node = toy_tree.register(ROOT_ID, rng)
        toy_tree.leave(node.id)
        with pytest.raises(AlreadyInactive):
            toy_tree.leave(node.id)

    def test_rejoin_reactivates_subtree(self, toy_tree, rng):
        top = toy_tree.register(ROOT_ID, rng)
        kid = toy_tree.register(top.id, rng)
        old_token = top.reg_token
        toy_tree.leave(top.id)
        assert not toy_tree.nodes[kid.id].active
        toy_tree.rejoin(top.id, rng)
        assert toy_tree.nodes[top.id].active
        assert toy_tree.nodes[kid.id].active
        assert toy_tree.nodes[top.id].reg_token != old_token

    def test_rejoin_occupied_slot(self, toy_tree, rng):
        node = toy_tree.register(ROOT_ID, rng)
        with pytest.raises(PositionOccupied):
            toy_tree.rejoin(node.id, rng)

    def test_nested_leaves_rejoin_only_own_subtree(self, toy_tree, rng):
        top = toy_tree.register(ROOT_ID, rng)
        mid = toy_tree.register(top.id, rng)
        leaf = toy_tree.register(mid.id, rng)
        toy_tree.leave(mid.id)
        toy_tree.leave(top.id)
        toy_tree.rejoin(top.id, rng)
        assert toy_tree.nodes[top.id].active
        # mid left on its own; top's rejoin must not resurrect it.
        assert not toy_tree.nodes[mid.id].active
        assert not toy_tree.nodes[leaf.id].active
        toy_tree.rejoin(mid.id, rng)
        assert toy_tree.nodes[leaf.id].active

    def test_rejoin_under_inactive_parent_refused(self, rng):
        # 1 -> {3 -> {5}, 4}, 2: 3 leaves, then its parent 1 leaves.
        tree = HierarchyTree(None, FieldParams(1009))
        for parent in (ROOT_ID, ROOT_ID, 1, 1, 3):
            tree.register(parent, rng)
        tree.leave(3)
        tree.leave(1)
        with pytest.raises(ParentInactive):
            tree.rejoin(3, rng)
        assert tree.nodes[3].reg_token is None
        assert not tree.nodes[5].active
        tree.rejoin(1, rng)
        tree.rejoin(3, rng)
        assert active_users(tree) == [1, 2, 3, 4, 5]


def reference_groups(tree, holders=None):
    """The sibling groups rebuilt from per-parent ``active_children``."""
    groups = {}
    for parent in [ROOT_ID] + active_users(tree):
        kids = [c for c in tree.active_children(parent) if holders is None or c in holders]
        if kids:
            groups[parent] = kids
    return groups


def reference_levels(tree):
    """Active users grouped by their ``level`` walk to the root."""
    levels = {}
    for uid in active_users(tree):
        levels.setdefault(level(tree, uid), []).append(uid)
    return levels


class TestGroupView:
    def test_matches_per_parent_reference_under_churn(self):
        for seed in range(20):
            rng = random.Random(seed)
            tree = HierarchyTree(None, FieldParams(1009))
            vacant = []
            for _ in range(60):
                active = active_users(tree)
                op = rng.random()
                if op < 0.6 or not active:
                    tree.register(rng.choice([ROOT_ID] + active), rng)
                elif op < 0.8:
                    uid = rng.choice(active)
                    tree.leave(uid)
                    vacant.append(uid)
                elif vacant:
                    uid = rng.choice(vacant)
                    if tree.is_active(tree.nodes[uid].parent):
                        tree.rejoin(uid, rng)
                        vacant.remove(uid)
                holders = set(rng.sample(sorted(tree.nodes), len(tree.nodes) // 2))
                assert list(tree.groups().items()) == list(reference_groups(tree).items())
                assert list(tree.groups(holders).items()) == list(
                    reference_groups(tree, holders).items()
                )
                assert tree.levels() == reference_levels(tree)

    def test_figure2_leave_drops_blocked_groups(self, rng):
        tree = build_figure2_tree(HierarchyTree(None, FieldParams(1009)), rng)
        tree.leave(2)
        assert tree.groups() == {ROOT_ID: [1, 3], 1: [4, 5], 3: [8]}
        assert tree.groups({1, 5, 8}) == {ROOT_ID: [1], 1: [5], 3: [8]}
        assert tree.levels() == {1: [1, 3], 2: [4, 5, 8]}


class TestInvariants:
    def test_levels_follow_parent_links(self, toy_tree, rng):
        a = toy_tree.register(ROOT_ID, rng)
        b = toy_tree.register(a.id, rng)
        c = toy_tree.register(b.id, rng)
        assert level(toy_tree, a.id) == 1
        assert level(toy_tree, b.id) == 2
        assert level(toy_tree, c.id) == 3

    def test_x_distinctness_under_random_operations(self):
        tree = tree_for_curve(STANDARD_CURVE)
        rng = random.Random(77)
        alive = []
        departed = []
        for _ in range(40):
            op = rng.random()
            if op < 0.6 or not alive:
                parent = rng.choice(alive) if alive and rng.random() < 0.5 else ROOT_ID
                if parent != ROOT_ID and not tree.nodes[parent].active:
                    continue
                node = tree.register(parent, rng)
                alive.append(node.id)
            elif op < 0.8 and alive:
                uid = rng.choice(alive)
                if tree.nodes[uid].active:
                    tree.leave(uid)
                    departed.append(uid)
            elif departed:
                uid = departed.pop(rng.randrange(len(departed)))
                tree.rejoin(uid, rng)
            xs = [n.group_key.x for n in tree.nodes.values() if n.group_key is not None]
            assert len(xs) == len(set(xs))
