"""Dealing, reconstruction, and coalition-knowledge tests."""

import random
from itertools import combinations

import pytest
from conftest import deal, make_tree, minimal_reconstructing_set, random_tree_spec, tf

from hiershare.algebra import poly_eval
from hiershare.hierarchy import ROOT_ID
from hiershare.sharing import (
    EVAL_USER_ID,
    DealerState,
    EvalPointCollision,
    InactiveSubtree,
    InsufficientShares,
    MixedEpochs,
    StaleEpoch,
    ThresholdFactor,
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
        dealer, _state, shares = deal(tree, secret, tf(1, 1), rng)
        assert dealer.polynomials[ROOT_ID].degree + 1 == 1
        record = shares[1]
        assert not record.split
        assert record.value == secret
        assert reconstruct(tree, shares, [1]) == secret

    def test_three_level_toy_curve_round_trip(self, toy, rng):
        tree = make_tree([[[], []], [[], []]], rng, curve=toy)
        secret = 13
        dealer, _state, shares = deal(tree, secret, tf(1, 2), rng)
        assert reconstruct(tree, shares, list(shares)) == secret
        assert dealer.polynomials[ROOT_ID].degree + 1 == compute_threshold(tf(1, 2), 2)

    def test_threshold_root_counts_level_one_users(self, rng):
        tree = make_tree([[], [], [], []], rng, prime=1009)
        dealer, _state, _shares = deal(tree, 5, tf(1, 2), rng)
        assert dealer.polynomials[ROOT_ID].degree + 1 == 2

    def test_every_user_holds_exactly_one_share(self, rng):
        tree = make_tree([[[], []], [[]], []], rng, prime=1009)
        _dealer, _state, shares = deal(tree, 3, tf(2, 3), rng)
        assert sorted(shares) == tree.active_users()
        owners = [rec.owner for rec in shares.values()]
        assert len(owners) == len(set(owners))

    def test_single_field_modulus_everywhere(self, rng):
        tree = make_tree([[[], []], [[]]], rng, prime=1009)
        dealer, _state, shares = deal(tree, 3, tf(2, 3), rng)
        p = tree.field.modulus
        for rec in shares.values():
            assert 0 <= rec.value < p
            assert 0 < rec.eval_point < p
        for poly in dealer.polynomials.values():
            assert all(0 <= c < p for c in poly.coefficients)

    def test_split_conservation(self, rng):
        tree = make_tree([[[], [], []], [[], []]], rng, prime=1009)
        dealer, _state, shares = deal(tree, 77, tf(1, 2), rng)
        for uid, rec in shares.items():
            if rec.split:
                parent = tree.nodes[uid].parent
                whole = poly_eval(dealer.polynomials[parent], rec.eval_point, 1009)
                retained = dealer.polynomials[uid].free_coefficient
                assert (rec.value + retained) % 1009 == whole

    def test_no_active_level_one_users(self, rng):
        tree = make_tree([[]], rng, prime=1009)
        dealer = DealerState(secret=1)
        state = tree.begin_round(rng)
        tree.leave(1)  # the round outlives the membership
        with pytest.raises(InactiveSubtree):
            distribute(tree, dealer, state, tf(1, 2), rng, EVAL_USER_ID, levels=tree.levels())

    def test_internal_node_without_active_children_blocks(self, rng):
        tree = make_tree([[[]], []], rng, prime=1009)
        tree.leave(3)  # node 1's only child
        dealer = DealerState(secret=1)
        state = tree.begin_round(rng)
        with pytest.raises(InactiveSubtree):
            distribute(tree, dealer, state, tf(1, 2), rng, EVAL_USER_ID, levels=tree.levels())

    def test_zero_eval_point_user_id_mode(self, rng):
        tree = make_tree([[] for _ in range(19)], rng, prime=19)
        dealer = DealerState(secret=1)
        state = tree.begin_round(rng)
        with pytest.raises(EvalPointCollision):
            distribute(tree, dealer, state, tf(1, 2), rng, EVAL_USER_ID, levels=tree.levels())

    def test_sibling_eval_collision_user_id_mode(self, rng):
        tree = make_tree([[] for _ in range(21)], rng, prime=19)
        tree.leave(19)  # avoid the zero point; 20 = 1 mod 19 still collides
        dealer = DealerState(secret=1)
        state = tree.begin_round(rng)
        with pytest.raises(EvalPointCollision):
            distribute(tree, dealer, state, tf(1, 2), rng, EVAL_USER_ID, levels=tree.levels())


class TestReconstruct:
    def test_round_trip_random_trees(self):
        rng = random.Random(2024)
        factors = [tf(1, 3), tf(1, 2), tf(2, 3), tf(1, 1)]
        for i in range(30):
            spec = random_tree_spec(rng, max_depth=3, max_fanout=4)
            tree = make_tree(spec, rng, prime=1009)
            secret = rng.randrange(1009)
            _dealer, _state, shares = deal(tree, secret, factors[i % 4], rng)
            assert reconstruct(tree, shares, list(shares)) == secret

    def test_minimal_quorum_recovers(self, rng):
        tree = make_tree([[[], [], []], [[], [], []], []], rng, prime=1009)
        secret = 500
        _dealer, _state, shares = deal(tree, secret, tf(2, 3), rng)
        participants = minimal_reconstructing_set(tree, shares)
        assert reconstruct(tree, shares, participants) == secret
        assert len(participants) < len(shares)

    def test_below_threshold_group_fails(self, rng):
        tree = make_tree([[[], []], [[], []]], rng, prime=1009)
        secret = 9
        _dealer, _state, shares = deal(tree, secret, tf(1, 1), rng)
        # Unanimity everywhere: dropping one leaf starves its group.
        participants = [uid for uid in shares if uid != 3]
        with pytest.raises(InsufficientShares) as exc:
            reconstruct(tree, shares, participants)
        assert exc.value.group_parent == 1
        assert exc.value.have == 1
        assert exc.value.need == 2

    def test_mixed_epochs_within_group_rejected(self, rng):
        from dataclasses import replace

        tree = make_tree([[], []], rng, prime=1009)
        secret = 4
        _dealer, _state, shares = deal(tree, secret, tf(1, 1), rng)
        shares[2] = replace(shares[2], epoch=1)
        with pytest.raises(StaleEpoch):
            reconstruct(tree, shares, list(shares))

    def test_internal_node_recovery_library_call(self, rng):
        tree = make_tree([[[], []], []], rng, prime=1009)
        secret = 321
        dealer, _state, shares = deal(tree, secret, tf(1, 2), rng)
        value = recover_group_secret(tree, shares, list(shares), 1)
        assert value == dealer.polynomials[1].free_coefficient

    def test_inactive_participants_ignored(self, rng):
        tree = make_tree([[], [], []], rng, prime=1009)
        secret = 8
        _dealer, _state, shares = deal(tree, secret, tf(2, 3), rng)
        tree.leave(3)
        # 3 is named as participating but cannot take part.
        assert reconstruct(tree, shares, [1, 2, 3]) == secret


class TestGroupThresholdExactness:
    def test_every_quorum_recovers_every_subquorum_blind(self, rng):
        """For one group over F_31: all threshold-size subsets recover the
        retained value; one-short subsets leave all 31 candidates equally
        consistent (exhaustive polynomial enumeration)."""
        tree = make_tree([[[], [], [], []]], rng, prime=31)
        secret = 17
        dealer, _state, shares = deal(tree, secret, tf(1, 2), rng)
        group = tree.active_children(1)
        need = shares[group[0]].threshold
        assert need == 2
        retained = dealer.polynomials[1].free_coefficient

        evaluations = {
            uid: poly_eval(dealer.polynomials[1], shares[uid].eval_point, 31)
            for uid in group
        }
        for quorum in combinations(group, need):
            pts = [(shares[uid].eval_point, evaluations[uid]) for uid in quorum]
            from hiershare.algebra import lagrange_at_zero

            assert lagrange_at_zero(pts, 31) == retained

        for subq in combinations(group, need - 1):
            counts = {c: 0 for c in range(31)}
            for a0 in range(31):
                for a1 in range(31):
                    ok = all(
                        (a0 + a1 * shares[uid].eval_point) % 31
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
        _dealer, _state, shares = deal(tree, 6, tf(1, 2), rng)
        assert knowledge_closure(tree, dict(shares)) is True

    def test_below_threshold_coalition_fails(self, rng):
        tree = make_tree([[[], [], []]], rng, prime=1009)
        _dealer, _state, shares = deal(tree, 6, tf(1, 1), rng)
        coalition = {2: shares[2], 3: shares[3]}  # 2 of 3, threshold 3
        assert knowledge_closure(tree, coalition) is False

    def test_empty_coalition(self, rng):
        tree = make_tree([[]], rng, prime=1009)
        assert knowledge_closure(tree, {}) is False

    def test_mixed_epochs_rejected(self, rng):
        from dataclasses import replace

        tree = make_tree([[], []], rng, prime=1009)
        _dealer, _state, shares = deal(tree, 6, tf(1, 1), rng)
        coalition = {1: shares[1], 2: replace(shares[2], epoch=3)}
        with pytest.raises(MixedEpochs):
            knowledge_closure(tree, coalition)

    def test_matches_reconstruction_attempt_oracle(self):
        """Closure must agree with actually trying to reconstruct from
        exactly the coalition's data."""
        rng = random.Random(404)
        tree = make_tree([[[], []], [[], [], []], []], rng, prime=1009)
        secret = 123
        _dealer, _state, shares = deal(tree, secret, tf(2, 3), rng)
        users = list(shares)
        for _ in range(200):
            coalition_ids = [u for u in users if rng.random() < 0.5]
            coalition = {u: shares[u] for u in coalition_ids}
            try:
                recovered = reconstruct(tree, shares, coalition_ids) == secret
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
            _dealer, _state, shares = deal(tree, secret, tf(rng.randint(1, 3), 3), rng)
            # Members stolen before a leave still count for the coalition.
            tree.leave(rng.choice(sorted(shares)))
            users = sorted(shares)
            for _ in range(25):
                keep = rng.random()
                coalition = {u: shares[u] for u in users if rng.random() < keep}
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
        _dealer, _state, shares = deal(tree, 9, tf(1, 1), random.Random(4))
        calls = 0

        def counted(method):
            def wrapper(*args):
                nonlocal calls
                calls += 1
                return method(*args)

            return wrapper

        tree.children_of = counted(tree.children_of)
        tree.node = counted(tree.node)
        assert knowledge_closure(tree, dict(shares)) is True
        assert calls <= 3 * depth


class TestMinimalReconstructingSet:
    def test_is_deterministic_and_sufficient(self, rng):
        tree = make_tree([[[], [], []], [[], []], []], rng, prime=1009)
        secret = 55
        _dealer, _state, shares = deal(tree, secret, tf(2, 3), rng)
        first = minimal_reconstructing_set(tree, shares)
        second = minimal_reconstructing_set(tree, shares)
        assert first == second
        assert reconstruct(tree, shares, first) == secret
