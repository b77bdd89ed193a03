"""Tree membership, key derivation, leave and rejoin."""

import copy
import random

import pytest
from conftest import active_users, tree_for_curve

from hiershare import curve as curve_module
from hiershare import hierarchy
from hiershare.curve import PROFILES, STANDARD_CURVE, base_muls, scalar_mul
from hiershare.hierarchy import (
    ROOT_ID,
    AlreadyInactive,
    EmptyHierarchy,
    HierarchyNode,
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
    """Deterministic stand-in whose draws in [1, n) are preset values: the
    package draws one as ``1 + randbelow(rng, n - 1)``, so each
    ``getrandbits`` call serves the next value less one."""

    def __new__(cls, values):
        return super().__new__(cls, 0)

    def __init__(self, values):
        super().__init__(0)
        self._queue = list(values)

    def getrandbits(self, _bits):
        return self._queue.pop(0) - 1


def group_keys(tree):
    """Each held token's group key token·G, by user id, computed here in one
    ``base_muls`` batch: the tree stores only the tokens, and a vacant
    slot (token None) has no key."""
    held = [n for n in tree.nodes.values() if n.reg_token is not None]
    return dict(zip((n.id for n in held), base_muls([n.reg_token for n in held], tree.curve)))


def register_one_at_a_time(tree, parents, rng):
    """The reference for registration: each user in turn redraws its token
    until its group key's x-coordinate, computed as a point, is unused
    tree-wide (2 * order draws at most), and is added before the next one
    draws."""
    for parent in parents:
        if tree.curve is None:
            token = rng.randrange(1, tree.p)
        else:
            used = {key.x for key in group_keys(tree).values()}
            for _ in range(2 * tree.curve.order):
                token = rng.randrange(1, tree.curve.order)
                if scalar_mul(token, tree.curve.base_point).x not in used:
                    break
            else:
                raise TreeFull(f"no unused group-key x-coordinate left on {tree.curve.name!r}")
        tree.insert(HierarchyNode(len(tree.nodes) + 1, parent, reg_token=token))


def registered(tree):
    """(id, parent, token) of every node, in id order."""
    return [(n.id, n.parent, n.reg_token) for n in tree.nodes.values()]


def random_parents(rng, count):
    """Parents for users 1..count, each the root or an earlier user."""
    return [rng.randrange(uid) for uid in range(1, count + 1)]


# The renew-secp tree: level-1 users 1-4 with 2, 3, 4 and 5 children.
RENEW_SECP_PARENTS = [ROOT_ID] * 4 + [1] * 2 + [2] * 3 + [3] * 4 + [4] * 5


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
    tree.register([ROOT_ID] * 3 + [1, 1, 2, 2, 3] + [6] * 3 + [7] * 3, rng)
    return tree


class TestRegister:
    def test_first_user_is_level_one(self, toy_tree, rng):
        [node] = toy_tree.register([ROOT_ID], rng)
        assert node.id == 1
        assert level(toy_tree, node.id) == 1
        assert 1 <= node.reg_token < toy_tree.curve.order

    def test_group_key_x_coordinates_distinct(self, toy_tree, rng):
        [a] = toy_tree.register([ROOT_ID], rng)
        [b] = toy_tree.register([ROOT_ID], rng)
        keys = group_keys(toy_tree)
        assert keys[a.id].x != keys[b.id].x

    def test_reproducible_token_sequence(self, toy):
        runs = []
        for _ in range(2):
            tree = tree_for_curve(toy)
            rng = random.Random(42)
            runs.append([node.reg_token for node in tree.register([ROOT_ID] * 4, rng)])
        assert runs[0] == runs[1]

    def test_parent_inactive(self, toy_tree, rng):
        [node] = toy_tree.register([ROOT_ID], rng)
        toy_tree.leave(node.id)
        with pytest.raises(ParentInactive):
            toy_tree.register([node.id], rng)

    def test_tree_full_at_ten_users_on_toy_curve(self, toy_tree, rng):
        # The toy group has exactly 9 distinct x-coordinates.
        toy_tree.register([ROOT_ID] * 9, rng)
        with pytest.raises(TreeFull):
            toy_tree.register([ROOT_ID], rng)

    def test_group_key_x_is_decided_by_the_token_up_to_sign(self, toy):
        """x(t·G) = x(t'·G) iff t' = ±t mod 19, over every pair of tokens
        on the toy curve, the points computed here: the fact registration
        and the group-key invariant read off the tokens."""
        n = toy.order
        xs = {t: scalar_mul(t, toy.base_point).x for t in range(1, n)}
        for t in range(1, n):
            for u in range(1, n):
                assert (xs[t] == xs[u]) == (u in (t, n - t)), (t, u)

    def test_full_toy_tree_gives_up_at_the_same_draw(self, toy_tree, rng):
        """With all 9 x-coordinates held every token misses, and a tenth
        user gives up after 2 * 19 = 38 draws in a row, the count at which
        registration gave up while it computed the keys."""
        toy_tree.register([ROOT_ID] * 9, rng)
        draws = QueuedRandom([1 + i % 18 for i in range(40)])
        with pytest.raises(TreeFull):
            toy_tree.register([ROOT_ID], draws)
        assert len(draws._queue) == 2

    def test_share_field_is_the_curve_order_or_the_prime(self, toy):
        curved, plain = HierarchyTree(toy), HierarchyTree(13)
        assert (curved.curve, curved.p) == (toy, toy.order)
        assert (plain.curve, plain.p) == (None, 13)

    def test_no_curve_mode_has_no_keys(self, rng):
        tree = HierarchyTree(31)
        [node] = tree.register([ROOT_ID], rng)
        assert 1 <= node.reg_token < 31
        assert tree.assign_round_keys(tree.begin_round(rng)) == {}


class TestBatchedRegistration:
    """``register`` samples a whole batch, deciding each group key's
    x-coordinate from its token, and must give what registering user by
    user, with the keys computed as points, gave."""

    def assert_matches_reference(self, make, seed, parents, split):
        """Register ``parents[:split]`` and then the rest, batched on one
        tree and one at a time on another, from the same generator state."""
        batched, reference = make(), make()
        rng, reference_rng = random.Random(seed), random.Random(seed)
        outcomes = []
        for tree, generator, add in (
            (batched, rng, HierarchyTree.register),
            (reference, reference_rng, register_one_at_a_time),
        ):
            try:
                add(tree, parents[:split], generator)
                add(tree, parents[split:], generator)
                outcomes.append(None)
            except TreeFull:
                outcomes.append(TreeFull)
        assert outcomes[0] is outcomes[1]
        assert rng.getstate() == reference_rng.getstate()
        if outcomes[0] is None:
            assert registered(batched) == registered(reference)
        return outcomes[0]

    def test_matches_one_at_a_time_on_random_toy_shapes(self, toy):
        # Nine x-coordinates for up to twelve users: collisions are frequent
        # and the larger shapes run out.
        shape_rng = random.Random(2024)
        outcomes = []
        for seed in range(300):
            parents = random_parents(shape_rng, shape_rng.randint(1, 12))
            split = shape_rng.randint(0, len(parents))
            outcomes.append(
                self.assert_matches_reference(lambda: tree_for_curve(toy), seed, parents, split)
            )
        assert None in outcomes and TreeFull in outcomes

    def test_matches_one_at_a_time_on_random_secp256k1_shapes(self):
        shape_rng = random.Random(2025)
        for seed in range(20):
            parents = random_parents(shape_rng, shape_rng.randint(1, 12))
            split = shape_rng.randint(0, len(parents))
            outcome = self.assert_matches_reference(
                lambda: tree_for_curve(STANDARD_CURVE), seed, parents, split
            )
            assert outcome is None

    def test_matches_one_at_a_time_without_a_curve(self):
        shape_rng = random.Random(2026)
        for seed in range(20):
            parents = random_parents(shape_rng, shape_rng.randint(1, 40))
            split = shape_rng.randint(0, len(parents))
            outcome = self.assert_matches_reference(
                lambda: HierarchyTree(31), seed, parents, split
            )
            assert outcome is None

    def test_full_toy_tree_refuses_the_tenth_user(self, toy, toy_tree):
        reference = tree_for_curve(toy)
        rng, reference_rng = random.Random(8), random.Random(8)
        with pytest.raises(TreeFull):
            register_one_at_a_time(reference, [ROOT_ID] * 10, reference_rng)
        assert len(reference.nodes) == 9
        with pytest.raises(TreeFull):
            toy_tree.register([ROOT_ID] * 10, rng)
        # A refused batch adds nothing, and draws what the reference drew.
        assert toy_tree.nodes == {} and toy_tree.children == {ROOT_ID: []}
        assert rng.getstate() == reference_rng.getstate()
        rng = random.Random(8)
        toy_tree.register([ROOT_ID] * 9, rng)
        assert registered(toy_tree) == registered(reference)
        with pytest.raises(TreeFull):
            toy_tree.register([ROOT_ID], rng)
        assert rng.getstate() == reference_rng.getstate()

    def count_passes(self, monkeypatch):
        """Scalars per ``base_muls`` call from ``hierarchy`` and points per
        ``_to_affine`` conversion, with the base-point table built first."""
        curve_module._base_table(STANDARD_CURVE)
        batches, conversions = [], []
        batch, convert = hierarchy.base_muls, curve_module._to_affine
        monkeypatch.setattr(
            hierarchy, "base_muls", lambda s, c: batches.append(len(s)) or batch(s, c)
        )
        monkeypatch.setattr(
            curve_module, "_to_affine", lambda P, p: conversions.append(len(P)) or convert(P, p)
        )
        return batches, conversions

    def test_renew_secp_shape_multiplies_nothing(self, monkeypatch):
        """The 18 users of renew-secp make no ``base_muls`` call and no
        conversion: their keys' x-coordinates are decided by the tokens."""
        tree = tree_for_curve(STANDARD_CURVE)
        batches, conversions = self.count_passes(monkeypatch)
        tree.register(RENEW_SECP_PARENTS, random.Random(1))
        assert (batches, conversions) == ([], [])
        assert len(tree.nodes) == 18

    def test_curve_rejoin_multiplies_nothing(self, monkeypatch):
        tree = tree_for_curve(STANDARD_CURVE)
        rng = random.Random(2)
        tree.register(RENEW_SECP_PARENTS, rng)
        tree.leave(3)
        batches, conversions = self.count_passes(monkeypatch)
        tree.rejoin(3, rng)
        assert (batches, conversions) == ([], [])

    @pytest.mark.parametrize(
        "parents",
        [[ROOT_ID, 1], [ROOT_ID, 3, 2], [3], [ROOT_ID, 5, ROOT_ID], [ROOT_ID, 99], [-1]],
        ids=["left", "blocked-by-a-leave", "itself", "later-in-batch", "unknown", "negative"],
    )
    def test_refused_batch_draws_nothing_and_adds_nothing(self, toy_tree, parents):
        """Users 1 and 2 (below 1) exist and 1 has left, so a batch starting
        at id 3 may name only the root or its own earlier users."""
        rng = random.Random(3)
        toy_tree.register([ROOT_ID, 1], rng)
        toy_tree.leave(1)
        before = copy.deepcopy((toy_tree.nodes, toy_tree.children)), rng.getstate()
        with pytest.raises(ParentInactive):
            toy_tree.register(parents, rng)
        assert ((toy_tree.nodes, toy_tree.children), rng.getstate()) == before

    def test_batch_may_hang_users_below_its_earlier_users(self, toy_tree, rng):
        nodes = toy_tree.register([ROOT_ID, 1, 2, 2, 1], rng)
        assert [(n.id, n.parent) for n in nodes] == [(1, 0), (2, 1), (3, 2), (4, 2), (5, 1)]
        assert toy_tree.register([], rng) == []


class TestBeginRound:
    def test_public_key_on_curve(self, toy_tree, rng):
        toy_tree.register([ROOT_ID], rng)
        public = public_round_key(toy_tree, toy_tree.begin_round(rng))
        assert not public.is_identity
        assert toy_tree.curve.contains(public.x, public.y)

    def test_forced_unit_secret_gives_base_point(self, toy_tree, rng):
        toy_tree.register([ROOT_ID], rng)
        secret = toy_tree.begin_round(QueuedRandom([1]))
        assert secret == 1
        assert public_round_key(toy_tree, secret) == toy_tree.curve.base_point

    def test_two_rounds_distinct_secrets(self, toy_tree):
        rng = random.Random(5)
        toy_tree.register([ROOT_ID], rng)
        first = toy_tree.begin_round(rng)
        assert toy_tree.round_count == 1
        second = toy_tree.begin_round(rng)
        assert first != second
        assert toy_tree.round_count == 2

    def test_draws_one_scalar_and_multiplies_nothing(self, toy_tree, rng, monkeypatch):
        toy_tree.register([ROOT_ID], rng)
        calls = []
        monkeypatch.setattr(hierarchy, "base_muls", lambda *args: calls.append(args))
        draws = QueuedRandom([5, 6])
        assert toy_tree.begin_round(draws) == 5
        assert draws._queue == [6]
        assert calls == []

    def test_no_curve_round_draws_nothing(self, rng):
        tree = HierarchyTree(31)
        tree.register([ROOT_ID], rng)
        before = rng.getstate()
        assert tree.begin_round(rng) is None
        assert rng.getstate() == before
        assert tree.round_count == 1

    def test_empty_hierarchy(self, toy_tree, rng):
        with pytest.raises(EmptyHierarchy):
            toy_tree.begin_round(rng)

    def test_every_registered_user_left(self, toy_tree, rng):
        toy_tree.register([ROOT_ID] * 2, rng)
        toy_tree.leave(1)
        toy_tree.begin_round(rng)
        assert toy_tree.round_count == 1
        toy_tree.leave(2)
        with pytest.raises(EmptyHierarchy):
            toy_tree.begin_round(rng)
        assert toy_tree.round_count == 1


class TestRoundKeys:
    def test_unit_token_returns_public_key(self, toy_tree, rng):
        [node] = toy_tree.register([ROOT_ID], QueuedRandom([1]))
        assert node.reg_token == 1
        secret = toy_tree.begin_round(rng)
        keys = toy_tree.assign_round_keys(secret)
        assert keys[node.id] == public_round_key(toy_tree, secret)

    def test_token_three_secret_two_gives_sixth_multiple(self, toy_tree):
        [node] = toy_tree.register([ROOT_ID], QueuedRandom([3]))
        keys = toy_tree.assign_round_keys(toy_tree.begin_round(QueuedRandom([2])))
        assert keys[node.id] == scalar_mul(6, toy_tree.curve.base_point)

    def test_inactive_node_refused(self, toy_tree, rng):
        [node] = toy_tree.register([ROOT_ID], rng)
        [other] = toy_tree.register([ROOT_ID], rng)
        assert set(toy_tree.assign_round_keys(toy_tree.begin_round(rng))) == {node.id, other.id}
        toy_tree.leave(node.id)
        assert set(toy_tree.assign_round_keys(toy_tree.begin_round(rng))) == {other.id}

    @pytest.mark.parametrize("curve_name", ["toy", "standard", None])
    def test_writes_nothing_and_keys_exactly_the_active_users(self, curve_name):
        # Without a curve there are no round keys at all.
        if curve_name is None:
            tree = HierarchyTree(31)
        else:
            tree = tree_for_curve(PROFILES[curve_name])
        rng = random.Random(31)
        tree.register([ROOT_ID] * 4 + [1, 2], rng)
        tree.leave(2)
        before = copy.deepcopy(tree.nodes)
        keys = tree.assign_round_keys(tree.begin_round(rng))
        assert tree.nodes == before
        expected = [] if curve_name is None else active_users(tree)
        assert sorted(keys) == expected

    def test_server_unit_secret_returns_group_key(self, toy_tree, rng):
        [node] = toy_tree.register([ROOT_ID], rng)
        secret = toy_tree.begin_round(QueuedRandom([1]))
        key = group_keys(toy_tree)[node.id]
        assert derive_round_key_server(secret, key) == key

    def test_identity_group_key_gives_identity(self, toy_tree, rng):
        toy_tree.register([ROOT_ID], rng)
        secret = toy_tree.begin_round(rng)
        assert derive_round_key_server(secret, toy_tree.curve.identity()).is_identity

    def test_user_and_server_derivations_agree(self, toy_tree):
        # Every node, many rounds: token*(secret*G) == secret*(token*G).
        rng = random.Random(13)
        nodes = toy_tree.register([ROOT_ID] * 8, rng)
        keys = group_keys(toy_tree)
        for _ in range(10):
            secret = toy_tree.begin_round(rng)
            public = public_round_key(toy_tree, secret)
            for node in nodes:
                user_side = derive_round_key_user(toy_tree, node.id, public)
                server_side = derive_round_key_server(secret, keys[node.id])
                assert user_side == server_side

    @pytest.mark.parametrize("curve_name", ["toy", "standard"])
    def test_returned_key_matches_both_derivations(self, curve_name):
        # The returned (token*secret mod n)*G equals token*R and
        # secret*groupKey for every active user, groupKey = token*G.
        tree = tree_for_curve(PROFILES[curve_name])
        rng = random.Random(29)
        tree.register([ROOT_ID] * 6 + [2, 3], rng)
        tree.leave(3)
        group = group_keys(tree)
        for _ in range(4):
            secret = tree.begin_round(rng)
            keys = tree.assign_round_keys(secret)
            public = public_round_key(tree, secret)
            for uid, key in keys.items():
                assert key == derive_round_key_user(tree, uid, public)
                assert key == derive_round_key_server(secret, group[uid])


class TestLeaveAndRejoin:
    def test_leaf_leave_deactivates_only_itself(self, toy_tree, rng):
        [a] = toy_tree.register([ROOT_ID], rng)
        [b] = toy_tree.register([ROOT_ID], rng)
        gone = toy_tree.leave(b.id)
        assert gone == {b.id}
        assert toy_tree.nodes[a.id].active

    def test_internal_leave_takes_subtree(self, toy_tree, rng):
        # A leaver with a 3-node subtree below it: 4 deactivations total.
        [top] = toy_tree.register([ROOT_ID], rng)
        [mid] = toy_tree.register([top.id], rng)
        [kid] = toy_tree.register([mid.id], rng)
        grandkids = toy_tree.register([kid.id] * 2, rng)
        gone = toy_tree.leave(mid.id)
        assert gone == {mid.id, kid.id, grandkids[0].id, grandkids[1].id}
        assert len(gone) == 4
        assert toy_tree.nodes[top.id].active

    def test_figure2_shape(self):
        tree = HierarchyTree(101)
        build_figure2_tree(tree, random.Random(1))
        gone = tree.leave(2)
        assert gone == {2, 6, 7, 9, 10, 11, 12, 13, 14}
        assert sorted(active_users(tree)) == [1, 3, 4, 5, 8]

    def test_server_drops_group_key(self, toy_tree, rng):
        [node] = toy_tree.register([ROOT_ID], rng)
        toy_tree.register([ROOT_ID], rng)
        assert node.id in group_keys(toy_tree)
        toy_tree.leave(node.id)
        assert node.id not in group_keys(toy_tree)
        assert group_keys(toy_tree).keys() == {2}

    def test_unknown_and_double_leave(self, toy_tree, rng):
        with pytest.raises(UnknownUser):
            toy_tree.leave(99)
        [node] = toy_tree.register([ROOT_ID], rng)
        toy_tree.leave(node.id)
        with pytest.raises(AlreadyInactive):
            toy_tree.leave(node.id)

    def test_rejoin_reactivates_subtree(self, toy_tree, rng):
        [top] = toy_tree.register([ROOT_ID], rng)
        [kid] = toy_tree.register([top.id], rng)
        old_token = top.reg_token
        toy_tree.leave(top.id)
        assert not toy_tree.nodes[kid.id].active
        toy_tree.rejoin(top.id, rng)
        assert toy_tree.nodes[top.id].active
        assert toy_tree.nodes[kid.id].active
        assert toy_tree.nodes[top.id].reg_token != old_token

    def test_rejoin_occupied_slot(self, toy_tree, rng):
        [node] = toy_tree.register([ROOT_ID], rng)
        with pytest.raises(PositionOccupied):
            toy_tree.rejoin(node.id, rng)

    def test_nested_leaves_rejoin_only_own_subtree(self, toy_tree, rng):
        [top] = toy_tree.register([ROOT_ID], rng)
        [mid] = toy_tree.register([top.id], rng)
        [leaf] = toy_tree.register([mid.id], rng)
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
        tree = HierarchyTree(1009)
        tree.register([ROOT_ID, ROOT_ID, 1, 1, 3], rng)
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
            tree = HierarchyTree(1009)
            vacant = []
            for _ in range(60):
                active = active_users(tree)
                op = rng.random()
                if op < 0.6 or not active:
                    tree.register([rng.choice([ROOT_ID] + active)], rng)
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
        tree = build_figure2_tree(HierarchyTree(1009), rng)
        tree.leave(2)
        assert tree.groups() == {ROOT_ID: [1, 3], 1: [4, 5], 3: [8]}
        assert tree.groups({1, 5, 8}) == {ROOT_ID: [1], 1: [5], 3: [8]}
        assert tree.levels() == {1: [1, 3], 2: [4, 5, 8]}


class TestInvariants:
    def test_levels_follow_parent_links(self, toy_tree, rng):
        [a] = toy_tree.register([ROOT_ID], rng)
        [b] = toy_tree.register([a.id], rng)
        [c] = toy_tree.register([b.id], rng)
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
                [node] = tree.register([parent], rng)
                alive.append(node.id)
            elif op < 0.8 and alive:
                uid = rng.choice(alive)
                if tree.nodes[uid].active:
                    tree.leave(uid)
                    departed.append(uid)
            elif departed:
                uid = departed.pop(rng.randrange(len(departed)))
                tree.rejoin(uid, rng)
            xs = [key.x for key in group_keys(tree).values()]
            assert len(xs) == len(set(xs))
