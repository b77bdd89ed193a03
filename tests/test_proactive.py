"""Renewal, commitment verification, claims, and epoch bookkeeping."""

import random
from dataclasses import replace

import pytest
from conftest import deal, make_tree, tf

from hiershare.algebra import poly_eval, sample_polynomial
from hiershare.curve import scalar_mul
from hiershare.hierarchy import ROOT_ID
from hiershare.proactive import (
    ACCUSED_COMPROMISED,
    CLAIMERS_COMPROMISED,
    ClaimRecord,
    EpochSkew,
    MixedAccused,
    NoChildren,
    RenewalBundle,
    apply_renewal,
    file_claim,
    generate_renewal,
    renewal_round,
    resolve_claims,
    verify_renewal,
)
from hiershare.sharing import reconstruct


def toy_dealt_tree(rng, spec, factor, secret_value=7):
    from hiershare.curve import TOY_CURVE

    tree = make_tree(spec, rng, curve=TOY_CURVE)
    dealer, state, shares = deal(tree, secret_value, factor, rng)
    return tree, dealer, shares, secret_value


class TestGenerateRenewal:
    def test_threshold_one_group_gets_zero_polynomial(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[]], tf(1, 1))
        bundles = generate_renewal(tree, shares, ROOT_ID, 0, rng)
        assert len(bundles) == 1
        assert bundles[0].delta == 0
        assert bundles[0].commitments == ()

    def test_degree_two_group_has_two_commitments(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(
            rng, [[], [], []], tf(1, 1)
        )
        bundles = generate_renewal(tree, shares, ROOT_ID, 0, rng)
        assert len(bundles) == 3
        assert all(len(b.commitments) == 2 for b in bundles)
        assert all(b.epoch == 1 for b in bundles)

    def test_deterministic_under_seed(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[], []], tf(1, 1))
        first = generate_renewal(tree, shares, ROOT_ID, 0, random.Random(9))
        second = generate_renewal(tree, shares, ROOT_ID, 0, random.Random(9))
        assert first == second

    def test_no_children(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[]], tf(1, 1))
        with pytest.raises(NoChildren):
            generate_renewal(tree, shares, 1, 0, rng)

    def test_epoch_skew_detected(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[]], tf(1, 1))
        with pytest.raises(EpochSkew):
            generate_renewal(tree, shares, ROOT_ID, 4, rng)

    def test_no_curve_mode_has_no_commitments(self, rng):
        tree = make_tree([[], []], rng, prime=31)
        _dealer, _state, shares = deal(tree, 5, tf(1, 1), rng)
        bundles = generate_renewal(tree, shares, ROOT_ID, 0, rng)
        assert all(b.commitments == () for b in bundles)


class TestVerifyRenewal:
    def test_honest_bundles_verify(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(
            rng, [[], [], [], []], tf(1, 2)
        )
        bundles = generate_renewal(tree, shares, ROOT_ID, 0, rng)
        for bundle in bundles:
            point = shares[bundle.recipient].eval_point
            assert verify_renewal(bundle, point, tree.curve) is True

    def test_tampered_delta_fails(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[], [], []], tf(1, 1))
        for bundle in generate_renewal(tree, shares, ROOT_ID, 0, rng):
            point = shares[bundle.recipient].eval_point
            bad = replace(bundle, delta=(bundle.delta + 1) % tree.field.modulus)
            assert verify_renewal(bad, point, tree.curve) is False

    def test_tampered_commitment_fails(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[], [], []], tf(1, 1))
        G = tree.curve.base_point
        for bundle in generate_renewal(tree, shares, ROOT_ID, 0, rng):
            point = shares[bundle.recipient].eval_point
            moved = bundle.commitments[0] + G
            bad = replace(bundle, commitments=(moved,) + bundle.commitments[1:])
            assert verify_renewal(bad, point, tree.curve) is False

    def test_identity_commitment_fails(self, rng):
        from hiershare.curve import STANDARD_CURVE

        tree = make_tree([[], [], []], rng, curve=STANDARD_CURVE)
        _dealer, _state, shares = deal(tree, 7, tf(1, 1), rng)
        for bundle in generate_renewal(tree, shares, ROOT_ID, 0, rng):
            point = shares[bundle.recipient].eval_point
            assert verify_renewal(bundle, point, tree.curve) is True
            for idx in range(len(bundle.commitments)):
                new = list(bundle.commitments)
                new[idx] = tree.curve.identity()
                bad = replace(bundle, commitments=tuple(new))
                assert verify_renewal(bad, point, tree.curve) is False

    def test_nonzero_free_coefficient_fails(self, toy):
        """A polynomial with a smuggled constant term but honest
        commitments over its nonconstant part shifts the check by c*G."""
        coeff = 4
        commitments = (scalar_mul(coeff, toy.base_point),)
        for c in range(1, 19):
            for point in range(1, 19):
                bundle = RenewalBundle(
                    sender=ROOT_ID, recipient=1, epoch=1,
                    delta=(c + coeff * point) % toy.order, commitments=commitments,
                )
                assert verify_renewal(bundle, point, toy) is False

    def test_random_tamperings_all_fail(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(
            rng, [[], [], [], []], tf(3, 4)
        )
        bundles = generate_renewal(tree, shares, ROOT_ID, 0, rng)
        G = tree.curve.base_point
        for _ in range(200):
            bundle = rng.choice(bundles)
            point = shares[bundle.recipient].eval_point
            if rng.random() < 0.5:
                offset = rng.randrange(1, 19)
                bad = replace(bundle, delta=(bundle.delta + offset) % 19)
            else:
                idx = rng.randrange(len(bundle.commitments))
                shift = scalar_mul(rng.randrange(1, 19), G)
                new = (
                    bundle.commitments[:idx]
                    + (bundle.commitments[idx] + shift,)
                    + bundle.commitments[idx + 1 :]
                )
                bad = replace(bundle, commitments=new)
            assert verify_renewal(bad, point, tree.curve) is False


class TestApplyRenewal:
    def test_zero_delta_keeps_value(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[]], tf(1, 1))
        bundle = generate_renewal(tree, shares, ROOT_ID, 0, rng)[0]
        renewed = apply_renewal(shares[1], bundle, tree.field.modulus)
        assert renewed.value == shares[1].value
        assert renewed.epoch == 1
        assert renewed.eval_point == shares[1].eval_point

    def test_round_trip_after_renewal(self, rng):
        tree, _dealer, shares, secret = toy_dealt_tree(
            rng, [[], [], []], tf(2, 3)
        )
        for bundle in generate_renewal(tree, shares, ROOT_ID, 0, rng):
            shares[bundle.recipient] = apply_renewal(
                shares[bundle.recipient], bundle, tree.field.modulus
            )
        assert reconstruct(tree, shares, list(shares)) == secret

    def test_epoch_mismatch(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[]], tf(1, 1))
        bundle = generate_renewal(tree, shares, ROOT_ID, 0, rng)[0]
        stale = replace(bundle, epoch=5)
        with pytest.raises(EpochSkew):
            apply_renewal(shares[1], stale, tree.field.modulus)

    def test_wrong_recipient(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[], []], tf(1, 1))
        bundles = generate_renewal(tree, shares, ROOT_ID, 0, rng)
        with pytest.raises(ValueError):
            apply_renewal(shares[2], bundles[0], tree.field.modulus)


class TestClaims:
    def test_file_claim_requires_parentage(self, rng):
        tree, _dealer, _shares, _secret = toy_dealt_tree(rng, [[], []], tf(1, 1))
        claim = file_claim(tree, 1, ROOT_ID, 3)
        assert claim == ClaimRecord(claimer=1, accused=ROOT_ID, epoch=3)
        with pytest.raises(ValueError):
            file_claim(tree, 1, 2, 3)

    def test_resolution_branches(self):
        claims = [ClaimRecord(i, 9, 1) for i in (1, 2, 3)]
        verdict = resolve_claims(claims, n_children=5, k=2)
        assert verdict.outcome == ACCUSED_COMPROMISED
        assert verdict.claim_count == 3
        verdict = resolve_claims(claims[:2], n_children=5, k=2)
        assert verdict.outcome == CLAIMERS_COMPROMISED

    def test_no_claims_no_verdict(self):
        assert resolve_claims([], n_children=5, k=2) is None

    def test_mixed_accused_rejected(self):
        claims = [ClaimRecord(1, 9, 1), ClaimRecord(2, 8, 1)]
        with pytest.raises(MixedAccused):
            resolve_claims(claims, n_children=5, k=2)


class TestRenewalRound:
    def test_message_count_and_secret_preserved(self, rng):
        tree, _dealer, shares, secret = toy_dealt_tree(
            rng, [[[], []], [[], []]], tf(1, 2), secret_value=3
        )
        sent = []
        outcome = renewal_round(tree, shares, 1, rng, on_message=lambda *m: sent.append(m))
        # 6 users -> 6 sealed deltas; 3 subtree roots -> 3 multicasts.
        assert len(sent) == 6 + 3
        assert outcome.verdicts == ()
        assert outcome.claims == ()
        assert reconstruct(tree, outcome.shares, list(outcome.shares)) == secret
        assert all(rec.epoch == 1 for rec in outcome.shares.values())

    def test_twenty_honest_rounds_preserve_secret(self, rng):
        tree, _dealer, shares, secret = toy_dealt_tree(
            rng, [[[], []], []], tf(1, 2), secret_value=16
        )
        for epoch in range(1, 21):
            outcome = renewal_round(tree, shares, epoch, rng)
            shares = outcome.shares
            assert not outcome.verdicts
        assert reconstruct(tree, shares, list(shares)) == secret
        assert all(rec.epoch == 20 for rec in shares.values())

    def test_each_group_renews_independently_of_the_others(self, rng):
        # 1 -> {4, 5} and 2 -> {6, 7, 8}, every group of degree 1: user 1's
        # leave removes the root group's first member and the whole group
        # under 1, yet every remaining user's renewed share is the same at
        # the same seed.
        tree, _dealer, shares, _secret = toy_dealt_tree(
            rng, [[[], []], [[], [], []], []], tf(2, 3)
        )
        together = renewal_round(tree, dict(shares), 1, random.Random(31)).shares
        tree.leave(1)
        apart = renewal_round(tree, dict(shares), 1, random.Random(31)).shares
        assert tree.active_users() == [2, 3, 6, 7, 8]
        for uid in tree.active_users():
            assert apart[uid].epoch == 1
            assert apart[uid] == together[uid]

    def test_corrupting_parent_detected_and_discarded(self, rng):
        tree, _dealer, shares, secret = toy_dealt_tree(
            rng, [[[], [], []]], tf(2, 3), secret_value=5
        )

        def corrupt_node_one(bundle):
            if bundle.sender == 1:
                return replace(bundle, delta=(bundle.delta + 1) % tree.field.modulus)
            return bundle

        outcome = renewal_round(tree, shares, 1, rng, perturb=corrupt_node_one)
        assert len(outcome.verdicts) == 1
        verdict = outcome.verdicts[0]
        # 3 honest children, n=3, k=1: 3 >= 2 claims convict the parent.
        assert verdict.accused == 1
        assert verdict.outcome == ACCUSED_COMPROMISED
        assert verdict.claim_count == 3
        # The victimized group kept its old shares; everyone else moved on.
        for uid in (2, 3, 4):
            assert outcome.shares[uid].epoch == 0
        assert outcome.shares[1].epoch == 1
        assert reconstruct(tree, outcome.shares, list(outcome.shares)) == secret

    def test_degree_raising_renewal_refused(self):
        """A parent swaps each delta for the value of a zero-free degree-3
        polynomial and multicasts that polynomial's honest commitments to a
        threshold-2 group. Every delta matches its commitments, but the
        group's degree would rise and reconstruction would go wrong, so
        every child refuses and claims."""
        from hiershare.curve import STANDARD_CURVE

        rng = random.Random(11)
        tree = make_tree([[], [], []], rng, curve=STANDARD_CURVE)
        secret = 1234567
        _dealer, _state, shares = deal(tree, secret, tf(2, 3), rng)
        assert {rec.threshold for rec in shares.values()} == {2}
        raised = sample_polynomial(random.Random(5), 3, 0, tree.field.modulus)
        commitments = tuple(
            scalar_mul(c, tree.curve.base_point) for c in raised.coefficients[1:]
        )

        def raise_degree(bundle):
            point = shares[bundle.recipient].eval_point
            return replace(
                bundle,
                delta=poly_eval(raised, point, tree.field.modulus),
                commitments=commitments,
            )

        outcome = renewal_round(tree, shares, 1, rng, perturb=raise_degree)
        assert sorted(c.claimer for c in outcome.claims) == [1, 2, 3]
        assert [v.outcome for v in outcome.verdicts] == [ACCUSED_COMPROMISED]
        assert all(rec.epoch == 0 for rec in outcome.shares.values())
        assert reconstruct(tree, outcome.shares, list(outcome.shares)) == secret

    def test_false_claims_below_bound_blame_claimers(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(
            rng, [[], [], [], []], tf(1, 2)
        )
        lies = [file_claim(tree, 2, ROOT_ID, 1)]
        outcome = renewal_round(tree, shares, 1, rng, extra_claims=lies)
        assert len(outcome.verdicts) == 1
        verdict = outcome.verdicts[0]
        # n=4, threshold 2, k=1: one claim < n-k=3 blames the claimer.
        assert verdict.outcome == CLAIMERS_COMPROMISED
        assert verdict.claimers == (2,)

    def test_nothing_to_renew_is_an_empty_round(self, rng):
        """No dealt subtree: no traffic, no claims (false ones included),
        and no draw from the generator, so the next epoch sees the same
        random stream."""
        tree, _dealer, _shares, _secret = toy_dealt_tree(rng, [[], []], tf(1, 1))
        lies = [file_claim(tree, 2, ROOT_ID, 1)]
        sent = []
        before = rng.getstate()
        outcome = renewal_round(
            tree, {}, 1, rng, extra_claims=lies, on_message=lambda *m: sent.append(m)
        )
        assert (outcome.shares, outcome.claims, outcome.verdicts) == ({}, (), ())
        assert sent == []
        assert rng.getstate() == before

    def test_no_curve_round_counts_deltas_only(self, rng):
        tree = make_tree([[[], []], []], rng, prime=1009)
        secret = 400
        _dealer, _state, shares = deal(tree, secret, tf(1, 2), rng)
        sent = []
        outcome = renewal_round(tree, shares, 1, rng, on_message=lambda *m: sent.append(m))
        assert [m[0] for m in sent] == ["renewal-delta"] * len(shares)
        assert reconstruct(tree, outcome.shares, list(outcome.shares)) == secret


class TestStalenessAcrossEpochs:
    def test_mixed_epoch_pair_cannot_reconstruct(self, rng):
        """Threshold-2 group: one pre-renewal plus one post-renewal share.

        Brute force over F_31: the true group value stays hidden among 30
        equally consistent candidates. (Exactly one candidate is excluded:
        the exact-degree rule makes a degree-1 renewal delta never zero, so
        the naive mixed interpolation is knowably wrong. Reconstruction
        stays impossible.)"""
        tree = make_tree([[], []], rng, prime=31)
        secret = 23
        _dealer, _state, shares = deal(tree, secret, tf(1, 1), rng)
        outcome = renewal_round(tree, dict(shares), 1, rng)

        x1 = shares[1].eval_point
        v1 = shares[1].value            # epoch 0
        x2 = outcome.shares[2].eval_point
        v2 = outcome.shares[2].value    # epoch 1
        counts = {c: 0 for c in range(31)}
        for c in range(31):
            for a1 in range(31):
                for d1 in range(1, 31):
                    # q = c + a1*x; renewal adds d1*x (exact degree 1).
                    if (c + a1 * x1) % 31 != v1:
                        continue
                    if (c + (a1 + d1) * x2) % 31 == v2:
                        counts[c] += 1
        true_count = counts[secret]
        assert true_count >= 1
        tied = [c for c, n in counts.items() if n == true_count]
        assert len(tied) >= 30

    def test_mixed_epoch_shares_flat_at_degree_two(self, rng):
        """Threshold-3 group, two old shares plus one renewed share: every
        candidate group value is exactly equally consistent."""
        tree = make_tree([[], [], []], rng, prime=31)
        secret = 14
        _dealer, _state, shares = deal(tree, secret, tf(1, 1), rng)
        outcome = renewal_round(tree, dict(shares), 1, rng)

        old = [(shares[u].eval_point, shares[u].value) for u in (1, 2)]
        x3 = outcome.shares[3].eval_point
        v3 = outcome.shares[3].value
        counts = {c: 0 for c in range(31)}
        for c in range(31):
            for a1 in range(31):
                for a2 in range(31):
                    if any((c + a1 * x + a2 * x * x) % 31 != v for x, v in old):
                        continue
                    for d1 in range(31):
                        for d2 in range(1, 31):
                            got = (c + (a1 + d1) * x3 + (a2 + d2) * x3 * x3) % 31
                            if got == v3:
                                counts[c] += 1
        assert len(set(counts.values())) == 1
        assert counts[secret] > 0
