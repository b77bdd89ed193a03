"""Dealing, reconstruction, and coalition-knowledge tests."""

import random
import sys
from collections import Counter
from collections.abc import Mapping
from itertools import combinations

import pytest
from conftest import (
    active_users,
    deal,
    deal_recorded,
    eval_point,
    every_group_recover,
    held_copies,
    kept,
    make_tree,
    minimal_reconstructing_set,
    random_tree_spec,
    tf,
)

from hiershare import sharing
from hiershare.algebra import FieldParams, interpolate, poly_eval
from hiershare.curve import STANDARD_CURVE, TOY_CURVE
from hiershare.hierarchy import ROOT_ID, HierarchyTree, TreeFull
from hiershare.sharing import (
    DealerState,
    EvalPointCollision,
    GroupShares,
    InactiveSubtree,
    InsufficientShares,
    ThresholdFactor,
    assign_eval_points,
    compute_threshold,
    distribute,
    knowledge_closure,
    reconstruct,
    recover_group_secret,
    split,
)


class TestThresholdFactor:
    def test_paper_example(self):
        assert compute_threshold(tf(3, 10), 9) == 3

    def test_unanimity(self):
        for n in range(1, 10):
            assert compute_threshold(tf(1, 1), n) == n

    def test_ceiling(self):
        assert compute_threshold(tf(1, 2), 5) == 3

    def test_seven_user_shape_factor(self):
        assert compute_threshold(tf(3, 7), 7) == 3

    def test_rejects_zero_and_above_one(self):
        with pytest.raises(ValueError, match=r"TF must be in \(0,1\]"):
            ThresholdFactor(0, 1)
        with pytest.raises(ValueError, match=r"TF must be in \(0,1\]"):
            ThresholdFactor(3, 2)

    def test_result_range(self):
        rng = random.Random(1)
        for _ in range(200):
            den = rng.randint(1, 12)
            num = rng.randint(1, den)
            n = rng.randint(1, 40)
            k = compute_threshold(tf(num, den), n)
            assert 1 <= k <= n


class TestSplit:
    def test_parts_sum_and_are_nonzero(self, rng):
        for _ in range(100):
            a, b = split(10, 19, rng)
            assert (a + b) % 19 == 10
            assert 0 < a < 19 and 0 < b < 19

    def test_zero_splits_into_negatives(self, rng):
        a, b = split(0, 19, rng)
        assert (a + b) % 19 == 0
        assert a != 0 and b != 0
        assert b == -a % 19

    def test_deterministic_under_seed(self):
        first = split(7, 19, random.Random(5))
        second = split(7, 19, random.Random(5))
        assert first == second


class TestDistribute:
    def test_single_child_unanimity_share_is_secret(self, toy, rng):
        tree = make_tree([[]], rng, curve=toy)
        secret = 11
        dealer, shares, polynomials = deal_recorded(tree, secret, tf(1, 1), rng)
        assert len(polynomials[ROOT_ID]) == 1
        assert 1 not in dealer.split
        assert kept(shares, 1) == secret
        assert reconstruct(tree, shares, [1], dealer.split) == secret

    def test_three_level_toy_curve_round_trip(self, toy, rng):
        tree = make_tree([[[], []], [[], []]], rng, curve=toy)
        secret = 13
        dealer, shares, polynomials = deal_recorded(tree, secret, tf(1, 2), rng)
        assert reconstruct(tree, shares, list(shares), dealer.split) == secret
        assert len(polynomials[ROOT_ID]) == compute_threshold(tf(1, 2), 2)

    def test_threshold_root_counts_level_one_users(self, rng):
        tree = make_tree([[], [], [], []], rng, prime=1009)
        _dealer, _shares, polynomials = deal_recorded(tree, 5, tf(1, 2), rng)
        assert len(polynomials[ROOT_ID]) == 2

    def test_every_user_holds_exactly_one_share(self, rng):
        tree = make_tree([[[], []], [[]], []], rng, prime=1009)
        _dealer, shares, polynomials = deal_recorded(tree, 3, tf(2, 3), rng)
        assert sorted(shares) == active_users(tree)
        for parent, kids in tree.groups().items():
            group = shares[kids[0]]
            assert all(shares[kid] is group for kid in kids)
            assert group.epoch == 0
            assert list(group.members) == kids
            assert group.threshold == len(polynomials[parent])

    def test_single_field_modulus_everywhere(self, rng):
        tree = make_tree([[[], []], [[]]], rng, prime=1009)
        _dealer, shares, polynomials = deal_recorded(tree, 3, tf(2, 3), rng)
        p = tree.field.modulus
        for uid in shares:
            assert 0 <= kept(shares, uid) < p
            assert 0 < eval_point(shares, uid) < p
        for poly in polynomials.values():
            assert all(0 <= c < p for c in poly)

    def test_split_conservation(self, rng):
        tree = make_tree([[[], [], []], [[], []]], rng, prime=1009)
        dealer, shares, polynomials = deal_recorded(tree, 77, tf(1, 2), rng)
        assert sorted(dealer.split) == [1, 2]
        assert sorted(polynomials) == [ROOT_ID, 1, 2]
        for uid in (1, 2):
            whole = poly_eval(polynomials[ROOT_ID], eval_point(shares, uid), 1009)
            retained = polynomials[uid][0]
            assert (kept(shares, uid) + retained) % 1009 == whole

    def test_no_active_level_one_users(self, rng):
        tree = make_tree([[]], rng, prime=1009)
        dealer = DealerState(secret=1)
        round_secret = tree.begin_round(rng)
        tree.leave(1)  # the round outlives the membership
        with pytest.raises(InactiveSubtree):
            distribute(tree, tree.groups(), dealer, tf(1, 2), rng, round_secret)

    def test_internal_node_without_active_children_blocks(self, rng):
        tree = make_tree([[[]], []], rng, prime=1009)
        tree.leave(3)  # node 1's only child
        dealer = DealerState(secret=1)
        round_secret = tree.begin_round(rng)
        with pytest.raises(InactiveSubtree):
            distribute(tree, tree.groups(), dealer, tf(1, 2), rng, round_secret)

    def test_zero_eval_point_user_id_mode(self, rng):
        tree = make_tree([[] for _ in range(19)], rng, prime=19)
        dealer = DealerState(secret=1)
        round_secret = tree.begin_round(rng)
        with pytest.raises(EvalPointCollision):
            distribute(tree, tree.groups(), dealer, tf(1, 2), rng, round_secret)

    def test_sibling_eval_collision_user_id_mode(self, rng):
        tree = make_tree([[] for _ in range(21)], rng, prime=19)
        tree.leave(19)  # avoid the zero point; 20 = 1 mod 19 still collides
        dealer = DealerState(secret=1)
        round_secret = tree.begin_round(rng)
        with pytest.raises(EvalPointCollision):
            distribute(tree, tree.groups(), dealer, tf(1, 2), rng, round_secret)


def randrange_distribute(tree, groups, dealer, factor, rng, round_secret):
    """Reference deal over a dealable ``groups``: ``distribute`` with every
    draw a ``randrange`` call (each coefficient ``randrange(p)``, a zero
    top one drawn again; ``split``'s first part ``randrange(1, p)``) and
    each member's evaluation a ``poly_eval`` call."""
    points = assign_eval_points(tree, groups, round_secret)
    p = tree.field.modulus

    def polynomial(size, free):
        coeffs = [free] + [rng.randrange(p) for _ in range(size - 1)]
        while size > 1 and coeffs[-1] == 0:
            coeffs[-1] = rng.randrange(p)
        return tuple(coeffs)

    polynomials = {ROOT_ID: polynomial(compute_threshold(factor, len(groups[ROOT_ID])), dealer.secret)}
    shares = {}
    for parent, kids in groups.items():
        dealt = polynomials.pop(parent)
        members = {}
        for uid in kids:
            kept = evaluation = poly_eval(dealt, points[uid], p)
            if uid in groups:
                while True:
                    kept = rng.randrange(1, p)
                    retained = (evaluation - kept) % p
                    if retained:
                        break
                polynomials[uid] = polynomial(compute_threshold(factor, len(groups[uid])), retained)
            members[uid] = (points[uid], kept)
        shares.update(dict.fromkeys(kids, GroupShares(0, len(dealt), members)))
    dealer.split = frozenset(groups.keys() - {ROOT_ID})
    return shares


class TestDistributeAgainstRandrangeReference:
    """``distribute`` deals what the reference deals from the same
    generator, and leaves the generator in the same state."""

    @staticmethod
    def both_deals(tree, secret, factor, rng):
        """(shares or the refusal's type, split, generator state) from each
        deal of one round, each from a copy of ``rng``."""
        round_secret = tree.begin_round(rng)
        outcomes = []
        for deal_fn in (distribute, randrange_distribute):
            draws = random.Random()
            draws.setstate(rng.getstate())
            dealer = DealerState(secret)
            try:
                shares = deal_fn(tree, tree.groups(), dealer, factor, draws, round_secret)
            except EvalPointCollision as exc:
                shares = type(exc)
            outcomes.append((shares, dealer.split, draws.getstate()))
        assert outcomes[0] == outcomes[1]
        return outcomes[0][0]

    # The toy curve has 9 group-key x-coordinates, so its trees are small.
    @pytest.mark.parametrize("curve, prime, fanout", [
        (None, 13, 4), (None, 1009, 4), (None, STANDARD_CURVE.order, 4), (TOY_CURVE, None, 2),
    ], ids=["p13", "p1009", "secp256k1-order", "toy-curve"])
    def test_random_trees(self, curve, prime, fanout):
        rng = random.Random(prime or curve.order)
        outcomes = Counter()
        for _ in range(40):
            try:
                tree = make_tree(random_tree_spec(rng, 3, fanout), rng, curve=curve, prime=prime)
            except TreeFull:
                continue
            secret = rng.randrange(tree.field.modulus)
            factor = tf(rng.randint(1, 4), 4)
            # A curve round that collides is followed by a fresh one; a
            # no-curve collision would only repeat.
            for _ in range(8):
                shares = self.both_deals(tree, secret, factor, rng)
                outcomes[isinstance(shares, dict)] += 1
                if curve is None or shares is not EvalPointCollision:
                    break
        assert outcomes[True] >= 10
        assert outcomes[False] or prime in (1009, STANDARD_CURVE.order)

    def test_one_wide_curve_group(self):
        rng = random.Random(100)
        tree = make_tree([[] for _ in range(100)], rng, curve=STANDARD_CURVE)
        shares = self.both_deals(tree, rng.randrange(STANDARD_CURVE.order), tf(2, 3), rng)
        assert shares[1].threshold == 67


class TestReconstruct:
    def test_round_trip_random_trees(self):
        rng = random.Random(2024)
        factors = [tf(1, 3), tf(1, 2), tf(2, 3), tf(1, 1)]
        for i in range(30):
            spec = random_tree_spec(rng, max_depth=3, max_fanout=4)
            tree = make_tree(spec, rng, prime=1009)
            secret = rng.randrange(1009)
            dealer, _state, shares = deal(tree, secret, factors[i % 4], rng)
            assert reconstruct(tree, shares, list(shares), dealer.split) == secret

    def test_minimal_quorum_recovers(self, rng):
        tree = make_tree([[[], [], []], [[], [], []], []], rng, prime=1009)
        secret = 500
        dealer, _state, shares = deal(tree, secret, tf(2, 3), rng)
        participants = minimal_reconstructing_set(tree, shares)
        assert reconstruct(tree, shares, participants, dealer.split) == secret
        assert len(participants) < len(shares)

    def test_below_threshold_group_fails(self, rng):
        tree = make_tree([[[], []], [[], []]], rng, prime=1009)
        secret = 9
        dealer, _state, shares = deal(tree, secret, tf(1, 1), rng)
        # Unanimity everywhere: dropping one leaf starves its group.
        participants = [uid for uid in shares if uid != 3]
        with pytest.raises(InsufficientShares) as exc:
            reconstruct(tree, shares, participants, dealer.split)
        assert exc.value.group_parent == 1
        assert exc.value.have == 1
        assert exc.value.need == 2

    def test_shortfalls_on_two_branches_name_the_climbs_first(self, rng):
        # 1 -> {3, 4}, 2 -> {5, 6}, 4 -> {7, 8}, unanimity everywhere:
        # without 3 and 5 the groups under 1 and 2 both fall short. The
        # walk reads 1's group before 2's and finishes it short first; a
        # pass in descending parent id would name 2.
        tree = make_tree([[[], [[], []]], [[], []]], rng, prime=1009)
        dealer, _state, shares = deal(tree, 9, tf(1, 1), rng)
        participants = [uid for uid in shares if uid not in (3, 5)]
        with pytest.raises(InsufficientShares) as exc:
            reconstruct(tree, shares, participants, dealer.split)
        assert (exc.value.group_parent, exc.value.have, exc.value.need) == (1, 1, 2)

    def test_shortfall_hidden_behind_a_picked_group_is_not_named(self, rng):
        # 1 -> {3, 4, 5}, 2 -> {6, 7}, 5 -> {8, 9}, tf 2/3: without 6 and
        # 8 the groups under 5 and 2 fall short. Group 1 picks 3 and 4, so
        # the walk never reads 5's group; 2's is the first it finishes
        # short, and stops the root. A climb through every group would
        # finish 5's first and name it, though the root never needed it.
        tree = make_tree([[[], [], [[], []]], [[], []]], rng, prime=1009)
        dealer, _state, shares = deal(tree, 9, tf(2, 3), rng)
        participants = [uid for uid in shares if uid not in (6, 8)]
        with pytest.raises(InsufficientShares) as exc:
            reconstruct(tree, shares, participants, dealer.split)
        assert (exc.value.group_parent, exc.value.have, exc.value.need) == (2, 1, 2)

    def test_chain_deeper_than_the_recursion_limit(self):
        depth = 3000
        assert depth > sys.getrecursionlimit()
        rng = random.Random(5)
        tree = HierarchyTree(None, FieldParams(STANDARD_CURVE.order))
        tree.register(range(depth), rng)
        dealer, _state, shares = deal(tree, 77, tf(1, 1), rng)
        assert len(dealer.split) == depth - 1
        assert recover_group_secret(tree, shares, tree.groups(shares), ROOT_ID, dealer.split) == 77

    def test_groups_cut_off_by_an_absent_parent_are_not_interpolated(self, rng, monkeypatch):
        # Same tree; 4 heads 7 and 8 but does not take part, so of the four
        # groups only those under 0, 1 and 2 hang from the root. At tf 1/2
        # every threshold is 1: the root picks user 1 alone, so only the
        # groups under 0 and 1 are interpolated, top-down, each over its
        # first contributor (no-curve points are ids).
        tree = make_tree([[[], [[], []]], [[], []]], rng, prime=1009)
        dealer, _state, shares = deal(tree, 9, tf(1, 2), rng)
        interpolated = []
        original = sharing.lagrange_weights

        def counting(xs, p):
            interpolated.append(xs)
            return original(xs, p)

        monkeypatch.setattr(sharing, "lagrange_weights", counting)
        participants = [uid for uid in shares if uid != 4]
        assert reconstruct(tree, shares, participants, dealer.split) == 9
        assert interpolated == [(1,), (3,)]

    def test_internal_node_recovery_library_call(self, rng):
        tree = make_tree([[[], []], []], rng, prime=1009)
        secret = 321
        dealer, shares, polynomials = deal_recorded(tree, secret, tf(1, 2), rng)
        value = recover_group_secret(tree, shares, tree.groups(shares), 1, dealer.split)
        assert value == polynomials[1][0]

    def test_inactive_participants_ignored(self, rng):
        tree = make_tree([[], [], []], rng, prime=1009)
        secret = 8
        dealer, _state, shares = deal(tree, secret, tf(2, 3), rng)
        tree.leave(3)
        # 3 is named as participating but cannot take part.
        assert reconstruct(tree, shares, [1, 2, 3], dealer.split) == secret

    def test_departed_host_does_not_count_toward_threshold(self, rng):
        tree = make_tree([[], [], []], rng, prime=1009)
        dealer, _state, shares = deal(tree, 8, tf(2, 3), rng)
        tree.leave(2)
        tree.leave(3)
        # 2 and 3 still hold their shares, which would complete the quorum.
        assert {2, 3} <= set(shares)
        with pytest.raises(InsufficientShares) as exc:
            reconstruct(tree, shares, [1, 2, 3], dealer.split)
        assert (exc.value.have, exc.value.need) == (1, 2)


def recursive_climb(tree, shares, holders, split, top):
    """Reference reconstruction: a recursive left-to-right climb from
    ``top`` over the active ``holders``. Every split child's own group is
    climbed first, whether or not its parent needs it; a group's value is
    the interpolation of its first threshold-many contributions. Returns
    the value, or the (group parent, have, need) of every group the climb
    finishes short, in the order it finishes them; a split child with no
    holding child heads an empty group of threshold 1."""
    p = tree.field.modulus
    shortfalls = []

    def climb(gid):
        kids = [c for c in tree.children[gid] if c in holders and tree.nodes[c].active]
        points = []
        for kid in kids:
            x, y = shares[kid].members[kid]
            if kid in split:
                below = climb(kid)
                if below is None:
                    continue
                y += below
            points.append((x, y))
        need = shares[kids[0]].threshold if kids else 1
        if len(points) < need:
            shortfalls.append((gid, len(points), need))
            return None
        return interpolate(points[:need], p)[0]

    value = climb(top)
    return shortfalls if value is None else value


class TestReconstructAgainstRecursiveClimb:
    def test_random_trees_leaves_and_participants(self, monkeypatch):
        """The two-pass form gives what both references give, the recursive
        climb and the every-group climb of earlier releases: the same value,
        or a shortfall that is one of theirs, with the same counts. It
        interpolates each group at most once, and none when it falls
        short."""
        interpolated = []
        original = sharing.lagrange_weights

        def counting(xs, p):
            interpolated.append(xs)
            return original(xs, p)

        monkeypatch.setattr(sharing, "lagrange_weights", counting)
        rng = random.Random(33)
        outcomes = Counter()
        for _ in range(60):
            tree = make_tree(random_tree_spec(rng, max_depth=4, max_fanout=4), rng, prime=1009)
            dealer, _state, shares = deal(tree, rng.randrange(1009), tf(rng.randint(1, 4), 4), rng)
            for _ in range(rng.randint(0, 2)):
                uid = rng.choice(sorted(shares))
                if tree.nodes[uid].active:
                    tree.leave(uid)
            internal = sorted(dealer.split) or [ROOT_ID]
            for _ in range(10):
                keep = rng.uniform(0.5, 1)
                holders = {uid for uid in shares if rng.random() < keep}
                top = ROOT_ID if rng.random() < 0.5 else rng.choice(internal)
                expected = recursive_climb(tree, shares, holders, dealer.split, top)
                groups = tree.groups(holders)
                assert every_group_recover(tree, shares, groups, top, dealer.split) == expected
                interpolated.clear()
                try:
                    got = recover_group_secret(tree, shares, groups, top, dealer.split)
                    assert got == expected
                except InsufficientShares as exc:
                    assert (exc.group_parent, exc.have, exc.need) in expected
                    assert interpolated == []
                assert len(interpolated) == len(set(interpolated)) <= len(groups)
                outcomes[type(expected)] += 1
        assert outcomes[int] > 100 and outcomes[list] > 100


class TestReconstructionForm:
    def test_form_weights_times_kept_values_give_the_secret(self, rng):
        tree = make_tree([[[], [], []], [[], []], [[[], []]]], rng, prime=1009)
        dealer, _state, shares = deal(tree, 321, tf(2, 3), rng)
        owners, weights = sharing.reconstruction_form(
            tree, shares, tree.groups(shares), ROOT_ID, dealer.split
        )
        # The root picks 1 and 2; group 1 picks 4 and 5, group 2 picks 7
        # and 8. Users 3, 6, 9, 10 and 11 are not read.
        assert sorted(owners) == [1, 2, 4, 5, 7, 8]
        assert sum(w * kept(shares, uid) for uid, w in zip(owners, weights)) % 1009 == 321

    def test_reads_only_the_groups_the_root_needs(self):
        """On the complete 4-ary tree of depth 5 (1,364 users, 341 groups)
        at tf 2/3, each group needs 3 of its 4 children, so the picks
        reach 1 + 3 + 9 + 27 + 81 = 121 groups and no other is read."""
        spec = []
        for _ in range(5):
            spec = [spec] * 4
        rng = random.Random(6)
        tree = make_tree(spec, rng, prime=STANDARD_CURVE.order)
        dealer, _state, shares = deal(tree, 321, tf(2, 3), rng)
        groups = tree.groups(shares)
        read = []

        class Counting(Mapping):
            def __getitem__(self, gid):
                read.append(gid)
                return groups[gid]

            def __iter__(self):
                return iter(groups)

            def __len__(self):
                return len(groups)

        owners, weights = sharing.reconstruction_form(
            tree, shares, Counting(), ROOT_ID, dealer.split
        )
        assert (len(shares), len(groups)) == (1364, 341)
        assert len(read) == len(set(read)) == 121
        assert len(owners) == 3 * 121
        p = tree.field.modulus
        assert sum(w * kept(shares, uid) for uid, w in zip(owners, weights)) % p == 321


class TestGroupThresholdExactness:
    def test_every_quorum_recovers_every_subquorum_blind(self, rng):
        """For one group over F_31: all threshold-size subsets recover the
        retained value; one-short subsets leave all 31 candidates equally
        consistent (exhaustive polynomial enumeration)."""
        tree = make_tree([[[], [], [], []]], rng, prime=31)
        secret = 17
        _dealer, shares, polynomials = deal_recorded(tree, secret, tf(1, 2), rng)
        group = tree.active_children(1)
        need = shares[group[0]].threshold
        assert need == 2
        retained = polynomials[1][0]

        evaluations = {
            uid: poly_eval(polynomials[1], eval_point(shares, uid), 31)
            for uid in group
        }
        for quorum in combinations(group, need):
            pts = [(eval_point(shares, uid), evaluations[uid]) for uid in quorum]
            from hiershare.algebra import lagrange_at_zero

            assert lagrange_at_zero(pts, 31) == retained

        for subq in combinations(group, need - 1):
            counts = {c: 0 for c in range(31)}
            for a0 in range(31):
                for a1 in range(31):
                    ok = all(
                        (a0 + a1 * eval_point(shares, uid)) % 31
                        == evaluations[uid]
                        for uid in subq
                    )
                    if ok:
                        counts[a0] += 1
            assert len(set(counts.values())) == 1
            assert counts[0] >= 1


class TestKnowledgeClosure:
    def test_full_coalition_reconstructs(self, rng):
        tree = make_tree([[[], []], [[], []]], rng, prime=1009)
        dealer, _state, shares = deal(tree, 6, tf(1, 2), rng)
        assert knowledge_closure(tree, held_copies(shares, dealer)) is True

    def test_below_threshold_coalition_fails(self, rng):
        tree = make_tree([[[], [], []]], rng, prime=1009)
        dealer, _state, shares = deal(tree, 6, tf(1, 1), rng)
        copies = held_copies(shares, dealer)
        coalition = {2: copies[2], 3: copies[3]}  # 2 of 3, threshold 3
        assert knowledge_closure(tree, coalition) is False

    def test_empty_coalition(self, rng):
        tree = make_tree([[]], rng, prime=1009)
        assert knowledge_closure(tree, {}) is False

    def test_matches_reconstruction_attempt_oracle(self):
        """Closure must agree with actually trying to reconstruct from
        exactly the coalition's data."""
        rng = random.Random(404)
        tree = make_tree([[[], []], [[], [], []], []], rng, prime=1009)
        secret = 123
        dealer, _state, shares = deal(tree, secret, tf(2, 3), rng)
        users = list(shares)
        copies = held_copies(shares, dealer)
        for _ in range(200):
            coalition_ids = [u for u in users if rng.random() < 0.5]
            coalition = {u: copies[u] for u in coalition_ids}
            try:
                recovered = reconstruct(tree, shares, coalition_ids, dealer.split) == secret
            except InsufficientShares:
                recovered = False
            assert knowledge_closure(tree, coalition) == recovered


def fixpoint_closure(tree, coalition):
    """Reference closure: derive group values until nothing changes. A
    member counts under its parent whether or not it is still active."""
    known = set()
    changed = True
    while changed:
        changed = False
        for gid in sorted({tree.node(uid).parent for uid in coalition} | {ROOT_ID}):
            if gid in known:
                continue
            contributors = [
                uid for uid in sorted(coalition)
                if tree.node(uid).parent == gid
                and (not coalition[uid].split or uid in known)
            ]
            if contributors and len(contributors) >= coalition[contributors[0]].threshold:
                known.add(gid)
                changed = True
    return ROOT_ID in known


class TestKnowledgeClosureAgainstFixpoint:
    def test_random_coalitions_after_a_leave(self):
        rng = random.Random(2024)
        reconstructing = 0
        for _ in range(40):
            tree = make_tree(random_tree_spec(rng, max_depth=4, max_fanout=4), rng, prime=1009)
            secret = rng.randrange(1009)
            dealer, _state, shares = deal(tree, secret, tf(rng.randint(1, 3), 3), rng)
            # Members stolen before a leave still count for the coalition.
            tree.leave(rng.choice(sorted(shares)))
            users = sorted(shares)
            copies = held_copies(shares, dealer)
            for _ in range(25):
                keep = rng.random()
                coalition = {u: copies[u] for u in users if rng.random() < keep}
                expected = fixpoint_closure(tree, coalition)
                reconstructing += expected
                assert knowledge_closure(tree, coalition) is expected
        assert reconstructing > 0

    def test_deep_chain_is_linear_in_tree_queries(self):
        depth = 200
        spec = []
        for _ in range(depth - 1):
            spec = [spec]
        tree = make_tree([spec], random.Random(3), prime=1009)
        dealer, _state, shares = deal(tree, 9, tf(1, 1), random.Random(4))
        calls = 0

        def counted(method):
            def wrapper(*args):
                nonlocal calls
                calls += 1
                return method(*args)

            return wrapper

        tree.children_of = counted(tree.children_of)
        tree.node = counted(tree.node)
        assert knowledge_closure(tree, held_copies(shares, dealer)) is True
        assert calls <= 3 * depth


class TestMinimalReconstructingSet:
    def test_is_deterministic_and_sufficient(self, rng):
        tree = make_tree([[[], [], []], [[], []], []], rng, prime=1009)
        secret = 55
        dealer, _state, shares = deal(tree, secret, tf(2, 3), rng)
        first = minimal_reconstructing_set(tree, shares)
        second = minimal_reconstructing_set(tree, shares)
        assert first == second
        assert reconstruct(tree, shares, first, dealer.split) == secret
