"""Renewal, commitment verification, claims, and epoch bookkeeping."""

import hashlib
import random

import pytest
from conftest import active_users, deal, eval_point, make_tree, renewal_bundles, root_group, tf

import hiershare.algebra as algebra
import hiershare.curve as curve_module
import hiershare.proactive as proactive
from hiershare.algebra import keyed_polynomial, poly_eval, sample_polynomial
from hiershare.curve import STANDARD_CURVE, TOY_CURVE, point_add, scalar_mul
from hiershare.hierarchy import ROOT_ID
from hiershare.proactive import (
    ACCUSED_COMPROMISED,
    CLAIMERS_COMPROMISED,
    ClaimRecord,
    NoChildren,
    RenewalBundle,
    Verdict,
    accepts_renewal,
    apply_renewal,
    file_claim,
    generate_renewal,
    renewal_key,
    renewal_round,
    resolve_claims,
    verify_renewal,
)
from hiershare.sharing import GroupShares, reconstruct


def counted_multiples(monkeypatch):
    """The scalars ``proactive`` multiplies G by, one entry per call: a
    ``base_muls`` batch as the tuple of its scalars, a ``scalar_mul`` as
    (s,)."""
    calls = []
    batch, single = proactive.base_muls, proactive.scalar_mul

    def counting_batch(scalars, curve):
        calls.append(tuple(scalars))
        return batch(calls[-1], curve)

    monkeypatch.setattr(proactive, "base_muls", counting_batch)
    monkeypatch.setattr(proactive, "scalar_mul", lambda s, P: calls.append((s,)) or single(s, P))
    return calls


def toy_dealt_tree(rng, spec, factor, secret_value=7):
    from hiershare.curve import TOY_CURVE

    tree = make_tree(spec, rng, curve=TOY_CURVE)
    dealer, _round_secret, shares = deal(tree, secret_value, factor, rng)
    return tree, dealer, shares, secret_value


class TestGenerateRenewal:
    def test_threshold_one_group_gets_zero_polynomial(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[]], tf(1, 1))
        bundles = renewal_bundles(tree, *root_group(tree, shares), rng)
        assert len(bundles) == 1
        assert bundles[0].delta == 0
        assert bundles[0].commitments == ()

    def test_degree_two_group_has_two_commitments(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(
            rng, [[], [], []], tf(1, 1)
        )
        bundles = renewal_bundles(tree, *root_group(tree, shares), rng)
        assert len(bundles) == 3
        assert all(len(b.commitments) == 2 for b in bundles)

    def test_deterministic_under_seed(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[], []], tf(1, 1))
        first = renewal_bundles(tree, *root_group(tree, shares), random.Random(9))
        second = renewal_bundles(tree, *root_group(tree, shares), random.Random(9))
        assert first == second

    def test_no_children(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[]], tf(1, 1))
        group, _kids = root_group(tree, shares)
        with pytest.raises(NoChildren):
            generate_renewal(tree, group, [], [0], {})

    def test_no_curve_mode_has_no_commitments(self, rng):
        tree = make_tree([[], []], rng, prime=31)
        _dealer, _state, shares = deal(tree, 5, tf(1, 1), rng)
        bundles = renewal_bundles(tree, *root_group(tree, shares), rng)
        assert all(b.commitments == () for b in bundles)


class TestVerifyRenewal:
    def test_honest_bundles_verify(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(
            rng, [[], [], [], []], tf(1, 2)
        )
        bundles = renewal_bundles(tree, *root_group(tree, shares), rng)
        for bundle in bundles:
            point = eval_point(shares, bundle.recipient)
            assert verify_renewal(bundle, point, tree.curve) is True

    def test_tampered_delta_fails(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[], [], []], tf(1, 1))
        for bundle in renewal_bundles(tree, *root_group(tree, shares), rng):
            point = eval_point(shares, bundle.recipient)
            bad = bundle._replace(delta=(bundle.delta + 1) % tree.field.modulus)
            assert verify_renewal(bad, point, tree.curve) is False

    def test_tampered_commitment_fails(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[], [], []], tf(1, 1))
        G = tree.curve.base_point
        for bundle in renewal_bundles(tree, *root_group(tree, shares), rng):
            point = eval_point(shares, bundle.recipient)
            moved = point_add(bundle.commitments[0], G)
            bad = bundle._replace(commitments=(moved,) + bundle.commitments[1:])
            assert verify_renewal(bad, point, tree.curve) is False

    def test_identity_commitment_fails(self, rng):
        tree = make_tree([[], [], []], rng, curve=STANDARD_CURVE)
        _dealer, _state, shares = deal(tree, 7, tf(1, 1), rng)
        for bundle in renewal_bundles(tree, *root_group(tree, shares), rng):
            point = eval_point(shares, bundle.recipient)
            assert verify_renewal(bundle, point, tree.curve) is True
            for idx in range(len(bundle.commitments)):
                new = list(bundle.commitments)
                new[idx] = tree.curve.identity()
                bad = bundle._replace(commitments=tuple(new))
                assert verify_renewal(bad, point, tree.curve) is False

    def test_nonzero_free_coefficient_fails(self, toy):
        """A polynomial with a smuggled constant term but honest
        commitments over its nonconstant part shifts the check by c*G."""
        coeff = 4
        commitments = (scalar_mul(coeff, toy.base_point),)
        for c in range(1, 19):
            for point in range(1, 19):
                bundle = RenewalBundle(
                    sender=ROOT_ID, recipient=1,
                    delta=(c + coeff * point) % toy.order, commitments=commitments,
                )
                assert verify_renewal(bundle, point, toy) is False

    def test_random_tamperings_all_fail(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(
            rng, [[], [], [], []], tf(3, 4)
        )
        bundles = renewal_bundles(tree, *root_group(tree, shares), rng)
        G = tree.curve.base_point
        for _ in range(200):
            bundle = rng.choice(bundles)
            point = eval_point(shares, bundle.recipient)
            if rng.random() < 0.5:
                offset = rng.randrange(1, 19)
                bad = bundle._replace(delta=(bundle.delta + offset) % 19)
            else:
                idx = rng.randrange(len(bundle.commitments))
                shift = scalar_mul(rng.randrange(1, 19), G)
                new = (
                    bundle.commitments[:idx]
                    + (point_add(bundle.commitments[idx], shift),)
                    + bundle.commitments[idx + 1 :]
                )
                bad = bundle._replace(commitments=new)
            assert verify_renewal(bad, point, tree.curve) is False


class TestApplyRenewal:
    def test_zero_delta_keeps_value(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[]], tf(1, 1))
        group, kids = root_group(tree, shares)
        bundles = renewal_bundles(tree, group, kids, rng)
        renewed = apply_renewal(group, bundles, tree.field.modulus)
        assert renewed.members == group.members
        assert (renewed.epoch, renewed.threshold) == (1, 1)

    def test_round_trip_after_renewal(self, rng):
        tree, dealer, shares, secret = toy_dealt_tree(
            rng, [[], [], []], tf(2, 3)
        )
        group, kids = root_group(tree, shares)
        renewed = apply_renewal(group, renewal_bundles(tree, group, kids, rng), tree.field.modulus)
        shares = dict.fromkeys(kids, renewed)
        assert reconstruct(tree, shares, kids, dealer.split) == secret

    def test_member_without_a_bundle_is_left_out(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[], []], tf(1, 1))
        group, kids = root_group(tree, shares)
        bundles = renewal_bundles(tree, group, kids, rng)
        renewed = apply_renewal(group, bundles[1:], tree.field.modulus)
        assert list(renewed.members) == [2]
        assert renewed.members[2][0] == group.members[2][0]


def claim_groups():
    """Node 1 renews {3, 4} at threshold 1 (n - k = 2) and node 2 renews
    {5, ..., 9} at threshold 3 (n - k = 3)."""
    small = GroupShares(0, 1, {uid: (uid, 0) for uid in (3, 4)})
    large = GroupShares(0, 3, {uid: (uid, 0) for uid in range(5, 10)})
    groups = {1: [3, 4], 2: list(range(5, 10))}
    return groups, {**dict.fromkeys(small.members, small), **dict.fromkeys(large.members, large)}


class TestClaims:
    def test_file_claim_requires_parentage(self, rng):
        tree, _dealer, _shares, _secret = toy_dealt_tree(rng, [[], []], tf(1, 1))
        claim = file_claim(tree, 1, ROOT_ID)
        assert claim == ClaimRecord(claimer=1, accused=ROOT_ID)
        with pytest.raises(ValueError):
            file_claim(tree, 1, 2)

    def test_resolution_branches(self):
        groups, shares = claim_groups()
        claims = [ClaimRecord(i, 2) for i in (7, 5, 6)]
        assert resolve_claims(claims, groups, shares) == (
            Verdict(2, ACCUSED_COMPROMISED, (5, 6, 7)),
        )
        assert resolve_claims(claims[:2], groups, shares) == (
            Verdict(2, CLAIMERS_COMPROMISED, (5, 7)),
        )

    def test_no_claims_no_verdict(self):
        assert resolve_claims([], *claim_groups()) == ()

    def test_several_accused_judged_in_id_order(self):
        groups, shares = claim_groups()
        claims = [ClaimRecord(9, 2), ClaimRecord(3, 1), ClaimRecord(5, 2), ClaimRecord(4, 1)]
        assert resolve_claims(claims, groups, shares) == (
            Verdict(1, ACCUSED_COMPROMISED, (3, 4)),
            Verdict(2, CLAIMERS_COMPROMISED, (5, 9)),
        )

    def test_accused_renewing_no_group_has_n_and_k_zero(self):
        groups, shares = claim_groups()
        assert resolve_claims([ClaimRecord(10, 8)], groups, shares) == (
            Verdict(8, ACCUSED_COMPROMISED, (10,)),
        )

    def test_repeated_claimer_counts_each_time(self):
        groups, shares = claim_groups()
        claims = [ClaimRecord(5, 2), ClaimRecord(6, 2), ClaimRecord(5, 2)]
        assert resolve_claims(claims, groups, shares) == (
            Verdict(2, ACCUSED_COMPROMISED, (5, 5, 6)),
        )


class TestRenewalRound:
    def test_message_count_and_secret_preserved(self, rng):
        tree, dealer, shares, secret = toy_dealt_tree(
            rng, [[[], []], [[], []]], tf(1, 2), secret_value=3
        )
        outcome = renewal_round(tree, shares, tree.groups(shares), rng)
        # 6 users -> 6 sealed deltas; 3 subtree roots -> 3 multicasts.
        assert outcome.messages == {"renewal-delta": 6, "commitments": 3}
        assert outcome.verdicts == ()
        assert outcome.claims == ()
        assert reconstruct(tree, outcome.shares, list(outcome.shares), dealer.split) == secret
        assert all(rec.epoch == 1 for rec in outcome.shares.values())

    def test_twenty_honest_rounds_preserve_secret(self, rng):
        tree, dealer, shares, secret = toy_dealt_tree(
            rng, [[[], []], []], tf(1, 2), secret_value=16
        )
        for _ in range(20):
            outcome = renewal_round(tree, shares, tree.groups(shares), rng)
            shares = outcome.shares
            assert not outcome.verdicts
        assert reconstruct(tree, shares, list(shares), dealer.split) == secret
        assert all(rec.epoch == 20 for rec in shares.values())

    def test_each_group_renews_independently_of_the_others(self, rng):
        # 1 -> {4, 5} and 2 -> {6, 7, 8}, every group of degree 1: user 1's
        # leave removes the root group's first member and the whole group
        # under 1, yet every remaining user's renewed share is the same at
        # the same seed.
        tree, _dealer, shares, _secret = toy_dealt_tree(
            rng, [[[], []], [[], [], []], []], tf(2, 3)
        )
        together = renewal_round(tree, dict(shares), tree.groups(shares), random.Random(31)).shares
        tree.leave(1)
        apart = renewal_round(tree, dict(shares), tree.groups(shares), random.Random(31)).shares
        assert active_users(tree) == [2, 3, 6, 7, 8]
        for uid in active_users(tree):
            assert apart[uid].epoch == together[uid].epoch == 1
            assert apart[uid].members[uid] == together[uid].members[uid]

    def test_corrupting_parent_detected_and_discarded(self, rng):
        tree, dealer, shares, secret = toy_dealt_tree(
            rng, [[[], [], []]], tf(2, 3), secret_value=5
        )

        def corrupt_node_one(bundle):
            if bundle.sender == 1:
                return bundle._replace(delta=(bundle.delta + 1) % tree.field.modulus)
            return bundle

        outcome = renewal_round(tree, shares, tree.groups(shares), rng, perturb=corrupt_node_one)
        assert len(outcome.verdicts) == 1
        verdict = outcome.verdicts[0]
        # 3 honest children, n=3, k=1: 3 >= 2 claims convict the parent.
        assert verdict.accused == 1
        assert verdict.outcome == ACCUSED_COMPROMISED
        assert verdict.claimers == (2, 3, 4)
        # A discarded group's deltas and commitments were still sent.
        assert outcome.messages == {"commitments": 2, "renewal-delta": 4, "claim": 3}
        # The victimized group kept its old shares; everyone else moved on.
        for uid in (2, 3, 4):
            assert outcome.shares[uid].epoch == 0
        assert outcome.shares[1].epoch == 1
        assert reconstruct(tree, outcome.shares, list(outcome.shares), dealer.split) == secret

    def test_degree_raising_renewal_refused(self):
        """A parent swaps each delta for the value of a zero-free degree-3
        polynomial and multicasts that polynomial's honest commitments to a
        threshold-2 group. Every delta matches its commitments, but the
        group's degree would rise and reconstruction would go wrong, so
        every child refuses and claims."""
        rng = random.Random(11)
        tree = make_tree([[], [], []], rng, curve=STANDARD_CURVE)
        secret = 1234567
        dealer, _state, shares = deal(tree, secret, tf(2, 3), rng)
        assert {rec.threshold for rec in shares.values()} == {2}
        raised = sample_polynomial(random.Random(5), 3, 0, tree.field.modulus)
        commitments = tuple(
            scalar_mul(c, tree.curve.base_point) for c in raised[1:]
        )

        def raise_degree(bundle):
            point = eval_point(shares, bundle.recipient)
            return bundle._replace(
                delta=poly_eval(raised, point, tree.field.modulus),
                commitments=commitments,
            )

        outcome = renewal_round(tree, shares, tree.groups(shares), rng, perturb=raise_degree)
        assert sorted(c.claimer for c in outcome.claims) == [1, 2, 3]
        assert [v.outcome for v in outcome.verdicts] == [ACCUSED_COMPROMISED]
        assert all(rec.epoch == 0 for rec in outcome.shares.values())
        assert reconstruct(tree, outcome.shares, list(outcome.shares), dealer.split) == secret

    def test_false_claims_below_bound_blame_claimers(self, rng):
        tree, _dealer, shares, _secret = toy_dealt_tree(
            rng, [[], [], [], []], tf(1, 2)
        )
        lies = [file_claim(tree, 2, ROOT_ID)]
        outcome = renewal_round(tree, shares, tree.groups(shares), rng, extra_claims=lies)
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
        lies = [file_claim(tree, 2, ROOT_ID)]
        before = rng.getstate()
        outcome = renewal_round(tree, {}, {}, rng, extra_claims=lies)
        assert (outcome.shares, outcome.claims, outcome.verdicts, outcome.messages) == ({}, (), (), {})
        assert rng.getstate() == before

    def test_no_curve_round_counts_deltas_only(self, rng):
        tree = make_tree([[[], []], []], rng, prime=1009)
        secret = 400
        dealer, _state, shares = deal(tree, secret, tf(1, 2), rng)
        outcome = renewal_round(tree, shares, tree.groups(shares), rng)
        assert outcome.messages == {"renewal-delta": len(shares)}
        assert reconstruct(tree, outcome.shares, list(outcome.shares), dealer.split) == secret


def keyed_draws(entropy, root, degree, p):
    """The renewal polynomial of the group under ``root`` in a round of
    ``entropy``, from the construction's definition: the key is the
    entropy in 8 little-endian bytes followed by the root's decimal
    digits; draw i is bytes [i * w, (i + 1) * w) of SHAKE-256 of the key,
    w = ceil(bits / 8) with bits = p.bit_length(), read little-endian and
    masked to bits. Coefficients 1..degree take the draws in order, a draw
    >= p is rejected, and the top coefficient also rejects 0. Each draw
    reads a digest of its own end length."""
    bits = p.bit_length()
    width = -(-bits // 8)
    key = entropy.to_bytes(8, "little") + str(root).encode("ascii")
    coeffs, i = [0], 0
    while len(coeffs) <= degree:
        chunk = hashlib.shake_256(key).digest((i + 1) * width)[i * width :]
        draw = int.from_bytes(chunk, "little") % 2**bits
        i += 1
        if draw < p and (draw != 0 or len(coeffs) < degree):
            coeffs.append(draw)
    return tuple(coeffs)


def renewal_round_one_digest_per_group(tree, shares, rng, perturb):
    """The reference for ``renewal_round``'s draws and results: it builds
    its own view, draws each subtree's polynomial by ``keyed_draws`` from
    the round's one ``getrandbits(64)``, lets every child check its own
    bundle, and applies a group's deltas written out. Returns the new
    shares and the claims."""
    groups = tree.groups(shares)
    if not groups:
        return dict(shares), ()
    entropy = rng.getrandbits(64)
    p = tree.field.modulus
    polys = {
        root: keyed_draws(entropy, root, shares[kids[0]].threshold - 1, p)
        for root, kids in groups.items()
    }
    committed = {} if tree.curve is None else {
        c: scalar_mul(c, tree.curve.base_point) for f in polys.values() for c in f[1:]
    }
    new_shares, claims = dict(shares), []
    for root, kids in groups.items():
        group = shares[kids[0]]
        delivered = [perturb(b) for b in generate_renewal(tree, group, kids, polys[root], committed)]
        refused = [] if tree.curve is None else [
            b.recipient for b in delivered if not accepts_renewal(b, group, tree.curve)
        ]
        claims += [ClaimRecord(claimer=child, accused=root) for child in refused]
        if refused:
            continue
        members = {}
        for bundle in delivered:
            eval_point, value = group.members[bundle.recipient]
            members[bundle.recipient] = (eval_point, (value + bundle.delta) % p)
        for kid in kids:
            new_shares[kid] = GroupShares(group.epoch + 1, group.threshold, members)
    return new_shares, tuple(claims)


class TestDrawsMatchOneGeneratorPerGroup:
    """``renewal_round`` draws each subtree's polynomial from one keyed
    digest and takes its caller's view; the draws, shares, claims and
    generator state must be those of the construction's definition per
    subtree and a view of its own."""

    @pytest.mark.parametrize("curve", [None, TOY_CURVE], ids=["no-curve", "toy"])
    def test_two_rounds_on_seeded_trees(self, curve):
        shape_rng = random.Random(3030 if curve is None else 3031)
        left_between_rounds = refused_rounds = 0
        for seed in range(12):
            rng = random.Random(seed)
            count = shape_rng.randint(1, 7 if curve else 30)
            tree = make_tree([], rng, curve=curve, prime=None if curve else 1009)
            tree.register([rng.randrange(uid) for uid in range(1, count + 1)], rng)
            _dealer, _state, shares = deal(tree, 5, tf(shape_rng.randint(1, 3), 3), rng)
            tampered = shape_rng.choice([None, ROOT_ID] + sorted(tree.groups()))

            def perturb(bundle, sender=tampered, p=tree.field.modulus):
                if bundle.sender != sender:
                    return bundle
                return bundle._replace(delta=(bundle.delta + 1) % p)

            reference_rng = random.Random()
            reference_rng.setstate(rng.getstate())
            reference = dict(shares)
            for round_index in range(2):
                outcome = renewal_round(tree, shares, tree.groups(shares), rng, perturb=perturb)
                expected, claims = renewal_round_one_digest_per_group(
                    tree, reference, reference_rng, perturb
                )
                assert outcome.shares == expected
                assert outcome.claims == claims
                assert rng.getstate() == reference_rng.getstate()
                refused_rounds += bool(claims)
                shares = reference = outcome.shares
                if round_index == 0 and count > 1 and seed % 3 == 0:
                    tree.leave(shape_rng.randint(2, count))
                    left_between_rounds += 1
        assert left_between_rounds >= 1
        assert refused_rounds >= (0 if curve is None else 1)

    def test_rounds_repeat_on_one_tree(self):
        """Several rounds in a row from one generator: each round's keys
        hold the round's own entropy, never the last round's."""
        rng = random.Random(9)
        tree = make_tree([[[], []], [[], [], []], []], rng, prime=1009)
        _dealer, _state, shares = deal(tree, 5, tf(2, 3), rng)
        reference_rng = random.Random()
        reference_rng.setstate(rng.getstate())
        reference = shares
        for _ in range(5):
            shares = renewal_round(tree, shares, tree.groups(shares), rng).shares
            reference, _claims = renewal_round_one_digest_per_group(
                tree, reference, reference_rng, lambda b: b
            )
            assert shares == reference
        assert rng.getstate() == reference_rng.getstate()


def counted_calls(monkeypatch, names):
    """Wrap each of ``proactive``'s functions ``names`` to count its calls."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(proactive, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(proactive, name, counting)
    return counts


class TestUnreadGroupShortcut:
    """With no tamper hook and no curve nobody reads a group's bundles, so
    ``renewal_round`` renews it in one loop without building them; the
    identity hook forces the bundle path, which must give the same round."""

    @pytest.mark.parametrize("prime", [1009, STANDARD_CURVE.order], ids=["p1009", "secp-order"])
    def test_matches_the_bundle_path(self, prime):
        shape_rng = random.Random(prime % 997)
        left = 0
        for seed in range(12):
            rng = random.Random(seed)
            count = shape_rng.randint(1, 30)
            tree = make_tree([], rng, prime=prime)
            tree.register([rng.randrange(uid) for uid in range(1, count + 1)], rng)
            _dealer, _state, shares = deal(tree, 5, tf(shape_rng.randint(1, 3), 3), rng)
            forced_rng = random.Random()
            forced_rng.setstate(rng.getstate())
            forced = shares
            for round_index in range(3):
                claimer = shape_rng.choice(active_users(tree))
                lies = [file_claim(tree, claimer, tree.nodes[claimer].parent)]
                outcome = renewal_round(
                    tree, shares, tree.groups(shares), rng, extra_claims=lies,
                )
                expected = renewal_round(
                    tree, forced, tree.groups(forced), forced_rng, perturb=lambda b: b,
                    extra_claims=lies,
                )
                assert outcome == expected
                assert rng.getstate() == forced_rng.getstate()
                shares, forced = outcome.shares, expected.shares
                if round_index == 0 and count > 1 and seed % 3 == 0:
                    tree.leave(shape_rng.randint(2, count))
                    left += 1
        assert left >= 1

    def test_honest_no_curve_round_builds_no_bundle(self, monkeypatch):
        rng = random.Random(7)
        tree = make_tree([[[], []], [[], [], []], []], rng, prime=1009)
        _dealer, _state, shares = deal(tree, 5, tf(2, 3), rng)
        counts = counted_calls(monkeypatch, ("generate_renewal", "apply_renewal", "poly_eval"))
        renewal_round(tree, shares, tree.groups(shares), rng)
        assert counts == {"generate_renewal": 0, "apply_renewal": 0, "poly_eval": 0}

    def test_toy_curve_round_still_builds_bundles(self, monkeypatch):
        rng = random.Random(7)
        tree, _dealer, shares, _secret = toy_dealt_tree(rng, [[[], []], [[], []]], tf(1, 2))
        counts = counted_calls(monkeypatch, ("generate_renewal", "apply_renewal"))
        renewal_round(tree, shares, tree.groups(shares), rng)
        assert counts == {"generate_renewal": 3, "apply_renewal": 3}

    def test_no_curve_tamper_hook_corrupts_its_group(self):
        """No child can check a delta without commitments, so a no-curve
        parent's tampering goes unnoticed and its children renew to values
        off by the tamper."""
        rng = random.Random(13)
        tree = make_tree([[[], []], [[], [], []], []], rng, prime=1009)
        _dealer, _state, shares = deal(tree, 5, tf(2, 3), rng)
        honest_rng = random.Random()
        honest_rng.setstate(rng.getstate())

        def bump_two(bundle):
            if bundle.sender != 2:
                return bundle
            return bundle._replace(delta=(bundle.delta + 1) % 1009)

        tampered = renewal_round(tree, shares, tree.groups(shares), rng, perturb=bump_two)
        honest = renewal_round(tree, shares, tree.groups(shares), honest_rng)
        assert tampered.claims == () and tampered.verdicts == ()
        for uid in active_users(tree):
            (x, value), (honest_x, honest_value) = (
                outcome.shares[uid].members[uid] for outcome in (tampered, honest)
            )
            assert x == honest_x and tampered.shares[uid].epoch == 1
            assert value == (honest_value + (tree.nodes[uid].parent == 2)) % 1009


class TestKeyedPolynomial:
    """``algebra.keyed_polynomial`` under ``proactive.renewal_key`` against
    ``keyed_draws``, the construction written from its definition."""

    SECP_ORDER = STANDARD_CURVE.order

    def spied_digests(self, monkeypatch):
        """The lengths asked of each SHAKE-256 object, one list per object."""
        lengths = []
        shake = hashlib.shake_256

        class Spy:
            def __init__(self, data):
                self.xof = shake(data)
                lengths.append([])

            def digest(self, length):
                lengths[-1].append(length)
                return self.xof.digest(length)

        monkeypatch.setattr(algebra.hashlib, "shake_256", Spy)
        return lengths

    def test_known_answer_on_13(self):
        """The key is ef cd ab 89 67 45 23 01 (the entropy, little-endian)
        then "5"; its digest starts ef 95 21 14. One byte per draw, masked
        to 4 bits: 15 is rejected (>= 13), then 5, 1 and 4, a nonzero top."""
        key = renewal_key(0x0123456789ABCDEF, 5)
        assert key == bytes.fromhex("efcdab8967452301") + b"5"
        assert hashlib.shake_256(key).digest(4) == bytes.fromhex("ef952114")
        assert keyed_polynomial(key, 3, 0, 13) == (0, 5, 1, 4)
        assert keyed_draws(0x0123456789ABCDEF, 5, 3, 13) == (0, 5, 1, 4)

    def test_known_answer_on_secp256k1_order(self):
        """32 bytes per draw: the digest's first two 32-byte words, read
        little-endian, are both below n."""
        key = renewal_key(0x0123456789ABCDEF, 5)
        expected = (
            0,
            0xC383811E27BFEE1DEAC99FB8EDE4F4948BE90B24D27DE03DA8187854142195EF,
            0x4FA9D144A0AD74603C219289D6964B6C290DCF690A9307C04BE45281790E4AE7,
        )
        assert keyed_polynomial(key, 2, 0, self.SECP_ORDER) == expected
        assert keyed_draws(0x0123456789ABCDEF, 5, 2, self.SECP_ORDER) == expected

    def test_residue_counts_on_13(self):
        """Degree 2 under root 1 for the entropies 0..999: f_1 takes each of
        the 13 residues and f_2 each of the 12 nonzero ones, near 1000/13
        and 1000/12 times (chi-square 7.5 on 12 and 10.5 on 11 degrees of
        freedom)."""
        low, top = [0] * 13, [0] * 13
        for entropy in range(1000):
            f = keyed_polynomial(renewal_key(entropy, 1), 2, 0, 13)
            assert f == keyed_draws(entropy, 1, 2, 13)
            low[f[1]] += 1
            top[f[2]] += 1
        assert low == [73, 74, 89, 78, 88, 76, 77, 74, 77, 73, 83, 76, 62]
        assert top == [0, 77, 69, 77, 71, 86, 89, 83, 97, 89, 88, 95, 79]

    def test_degree_zero_draws_nothing(self, monkeypatch):
        lengths = self.spied_digests(monkeypatch)
        assert keyed_polynomial(b"any key", 0, 7, 13) == (7,)
        assert lengths == []

    def test_top_coefficient_is_never_zero(self):
        """On p = 3 a draw is 2 bits, so the first draw of 48 of these 200
        keys is a zero top coefficient for degree 1, and is rejected."""
        rejected = 0
        for entropy in range(200):
            key = renewal_key(entropy, 1)
            rejected += hashlib.shake_256(key).digest(1)[0] & 3 == 0
            for degree in (1, 2, 3):
                f = keyed_polynomial(key, degree, 0, 3)
                assert f == keyed_draws(entropy, 1, degree, 3)
                assert len(f) == degree + 1 and f[-1] != 0
        assert rejected == 48

    def test_digest_runs_out_and_is_extended(self, monkeypatch):
        """Degree 1 on p = 3 first reads 2 bytes; for entropy 0 both draws
        are rejected (0 or 3), so the digest is taken again at 4 bytes and
        the draws go on from its third byte."""
        key = renewal_key(0, 1)
        assert all(b & 3 in (0, 3) for b in hashlib.shake_256(key).digest(2))
        expected = keyed_draws(0, 1, 1, 3)
        lengths = self.spied_digests(monkeypatch)
        assert keyed_polynomial(key, 1, 0, 3) == expected
        assert lengths == [[2, 4]]

    def test_roots_2_to_the_32_apart_draw_apart(self):
        """A seed of (entropy << 32) | (root & 0xFFFFFFFF) would give both
        roots one stream; the key holds the whole root."""
        entropy = 0x0123456789ABCDEF
        assert renewal_key(entropy, 5) != renewal_key(entropy, 5 + 2**32)
        assert keyed_polynomial(renewal_key(entropy, 5), 2, 0, self.SECP_ORDER) != keyed_polynomial(
            renewal_key(entropy, 5 + 2**32), 2, 0, self.SECP_ORDER
        )


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
        outcome = renewal_round(tree, dict(shares), tree.groups(shares), rng)

        x1, v1 = shares[1].members[1]                # epoch 0
        x2, v2 = outcome.shares[2].members[2]        # epoch 1
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
        outcome = renewal_round(tree, dict(shares), tree.groups(shares), rng)

        old = [shares[u].members[u] for u in (1, 2)]
        x3, v3 = outcome.shares[3].members[3]
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


class TestBatchCheck:
    """A group's renewal is judged child by child against the bundles its
    parent generated: a bundle changed only in its delta is decided in the
    field, any other change by the child's own check. The verdicts must be
    those of each child checking alone."""

    def dealt_group(self, seed, size, factor=tf(2, 3), curve=STANDARD_CURVE):
        rng = random.Random(seed)
        tree = make_tree([[] for _ in range(size)], rng, curve=curve)
        _dealer, _state, shares = deal(tree, 4242 % curve.order, factor, rng)
        return tree, shares

    def run_tampered(self, tree, shares, tamper, seed=3):
        """Renew with ``tamper`` applied to every bundle; return the
        outcome and the bundles as the children received them."""
        seen = []

        def perturb(bundle):
            seen.append(tamper(bundle))
            return seen[-1]

        outcome = renewal_round(
            tree, shares, tree.groups(shares), random.Random(seed), perturb=perturb
        )
        return outcome, seen

    def alone(self, tree, shares, seen):
        """The children whose own check of their bundle fails."""
        return [
            b.recipient for b in seen
            if not accepts_renewal(b, shares[b.recipient], tree.curve)
        ]

    def claimers(self, outcome):
        return sorted(c.claimer for c in outcome.claims)

    def counted_checks(self, monkeypatch):
        """A list that gets one entry per ``verify_renewal`` call."""
        calls = []
        original = proactive.verify_renewal

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(proactive, "verify_renewal", counting)
        return calls

    def moved_to(self, tree, shares, poly):
        """A tamper that sends every child its value of ``poly`` and the
        honest commitments to ``poly``'s nonzero coefficients."""
        G, n = tree.curve.base_point, tree.curve.order
        commitments = tuple(scalar_mul(c, G) for c in poly[1:])

        def move(bundle):
            delta = poly_eval(poly, eval_point(shares, bundle.recipient), n)
            return bundle._replace(delta=delta, commitments=commitments)

        return move

    def test_cancelling_pair_is_refused_by_both(self):
        # Σ δ_j is unchanged, so a check of the deltas' sum alone would
        # pass; each child's point must be checked.
        tree, shares = self.dealt_group(21, 5)
        n = tree.curve.order
        shift = 0x1234567
        offsets = {1: shift, 2: -shift}

        def cancel(bundle):
            offset = offsets.get(bundle.recipient, 0)
            return bundle._replace(delta=(bundle.delta + offset) % n)

        outcome, seen = self.run_tampered(tree, shares, cancel)
        assert self.claimers(outcome) == [1, 2] == self.alone(tree, shares, seen)
        assert all(rec.epoch == 0 for rec in outcome.shares.values())
        # One flat group: no member is split.
        assert reconstruct(tree, outcome.shares, list(outcome.shares), ()) == 4242

    def test_one_bad_delta_names_that_child(self):
        tree, shares = self.dealt_group(22, 5)

        def bump(bundle):
            if bundle.recipient != 3:
                return bundle
            return bundle._replace(delta=(bundle.delta + 1) % tree.curve.order)

        outcome, seen = self.run_tampered(tree, shares, bump)
        assert self.claimers(outcome) == [3] == self.alone(tree, shares, seen)
        assert [v.accused for v in outcome.verdicts] == [ROOT_ID]
        assert all(rec.epoch == 0 for rec in outcome.shares.values())

    @pytest.mark.parametrize("curve", [STANDARD_CURVE, TOY_CURVE], ids=["secp", "toy"])
    def test_child_beyond_the_interpolated_ones_is_refused(self, curve):
        """Five children, threshold 4: the last child's delta alone is
        bumped, beyond the first threshold-many, and it alone refuses."""
        tree, shares = self.dealt_group(25, 5, curve=curve)
        assert shares[5].threshold == 4

        def bump(bundle):
            if bundle.recipient != 5:
                return bundle
            return bundle._replace(delta=(bundle.delta + 1) % curve.order)

        outcome, seen = self.run_tampered(tree, shares, bump)
        assert self.claimers(outcome) == [5] == self.alone(tree, shares, seen)

    @pytest.mark.parametrize("curve", [STANDARD_CURVE, TOY_CURVE], ids=["secp", "toy"])
    def test_same_shift_for_every_child_is_refused_in_the_field(self, monkeypatch, curve):
        """Every delta is shifted by 5 and nothing else changes, so each
        delta moved mod n: all five children refuse and none runs its own
        check."""
        tree, shares = self.dealt_group(30, 5, curve=curve)
        checks = self.counted_checks(monkeypatch)

        def shift(bundle):
            return bundle._replace(delta=(bundle.delta + 5) % curve.order)

        outcome, seen = self.run_tampered(tree, shares, shift)
        assert len(checks) == 0
        assert self.claimers(outcome) == [1, 2, 3, 4, 5] == self.alone(tree, shares, seen)
        assert all(rec.epoch == 0 for rec in outcome.shares.values())

    @pytest.mark.parametrize("curve", [STANDARD_CURVE, TOY_CURVE], ids=["secp", "toy"])
    def test_one_shifted_child_is_refused_in_the_field(self, monkeypatch, curve):
        """Threshold 4: child 2's delta alone is shifted by 5. Only its
        delta moved, so child 2 refuses in the field, its siblings accept
        their unchanged bundles, and no child runs its own check."""
        tree, shares = self.dealt_group(31, 5, curve=curve)
        assert shares[2].threshold == 4
        checks = self.counted_checks(monkeypatch)

        def bump(bundle):
            if bundle.recipient != 2:
                return bundle
            return bundle._replace(delta=(bundle.delta + 5) % curve.order)

        outcome, seen = self.run_tampered(tree, shares, bump)
        assert len(checks) == 0
        assert self.claimers(outcome) == [2] == self.alone(tree, shares, seen)

    @pytest.mark.parametrize("shifted", [False, True], ids=["honest", "shifted"])
    @pytest.mark.parametrize("curve", [STANDARD_CURVE, TOY_CURVE], ids=["secp", "toy"])
    def test_group_of_exactly_its_degree(self, monkeypatch, curve, shifted):
        """Four children at threshold 4 and one leaves, so the group has
        only as many children as its degree. Honest, every child accepts;
        with every delta shifted by 1, every child refuses in the field.
        Neither runs a child's own check."""
        tree, shares = self.dealt_group(32, 4, tf(3, 3), curve=curve)
        tree.leave(4)
        assert tree.groups(shares) == {ROOT_ID: [1, 2, 3]}
        assert shares[1].threshold - 1 == 3
        checks = self.counted_checks(monkeypatch)

        def shift(bundle):
            return bundle._replace(delta=(bundle.delta + shifted) % curve.order)

        outcome, seen = self.run_tampered(tree, shares, shift)
        assert len(checks) == 0
        assert self.claimers(outcome) == self.alone(tree, shares, seen)
        assert self.claimers(outcome) == ([1, 2, 3] if shifted else [])

    @pytest.mark.parametrize("curve", [STANDARD_CURVE, TOY_CURVE], ids=["secp", "toy"])
    def test_group_moved_to_another_polynomial_commits(self, curve):
        """Deltas and commitments of another zero-free polynomial of the
        right degree pass every child's check, so the group renews."""
        tree, shares = self.dealt_group(26, 5, curve=curve)
        other = sample_polynomial(random.Random(9), shares[1].threshold - 1, 0, curve.order)
        outcome, seen = self.run_tampered(tree, shares, self.moved_to(tree, shares, other))
        assert outcome.claims == () and self.alone(tree, shares, seen) == []
        assert all(rec.epoch == 1 for rec in outcome.shares.values())
        # One flat group: no member is split.
        assert reconstruct(tree, outcome.shares, list(outcome.shares), ()) == 4242 % curve.order

    @pytest.mark.parametrize("curve", [STANDARD_CURVE, TOY_CURVE], ids=["secp", "toy"])
    def test_delta_raised_by_the_order_is_accepted_without_a_check(self, monkeypatch, curve):
        """Child 3's delta is raised by exactly n and left unreduced. It
        differs from the parent's only by a multiple of n, so its own check
        would pass: no child refuses, none runs its check, and the group
        renews."""
        tree, shares = self.dealt_group(33, 5, curve=curve)
        checks = self.counted_checks(monkeypatch)

        def raise_by_order(bundle):
            if bundle.recipient != 3:
                return bundle
            return bundle._replace(delta=bundle.delta + curve.order)

        outcome, seen = self.run_tampered(tree, shares, raise_by_order)
        assert seen[2].delta >= curve.order and len(checks) == 0
        assert self.claimers(outcome) == [] == self.alone(tree, shares, seen)
        assert all(rec.epoch == 1 for rec in outcome.shares.values())
        assert reconstruct(tree, outcome.shares, list(outcome.shares), ()) == 4242 % curve.order

    @pytest.mark.parametrize("curve", [STANDARD_CURVE, TOY_CURVE], ids=["secp", "toy"])
    def test_swapped_bundles_are_judged_at_their_recipients(self, monkeypatch, curve):
        """Children 2 and 4 swap their bundles whole, each still addressed
        to the child its delta was computed for. Each bundle passes its
        recipient's own check, so no child refuses and the group renews.
        A check that compared bundles by position and ignored the recipient
        would see two moved deltas and refuse both."""
        tree, shares = self.dealt_group(34, 5, curve=curve)
        _outcome, sent = self.run_tampered(tree, shares, lambda bundle: bundle)
        swapped = {2: sent[3], 4: sent[1]}
        checks = self.counted_checks(monkeypatch)

        def swap(bundle):
            return swapped.get(bundle.recipient, bundle)

        outcome, seen = self.run_tampered(tree, shares, swap)
        assert [b.recipient for b in seen] == [1, 4, 3, 2, 5]
        assert len(checks) == 2
        assert self.claimers(outcome) == [] == self.alone(tree, shares, seen)
        assert all(rec.epoch == 1 for rec in outcome.shares.values())
        assert reconstruct(tree, outcome.shares, list(outcome.shares), ()) == 4242 % curve.order

    @pytest.mark.parametrize("curve", [STANDARD_CURVE, TOY_CURVE], ids=["secp", "toy"])
    def test_swapped_commitments_fall_back_and_are_refused_by_all(self, monkeypatch, curve):
        """C_1 and C_2 swapped in every bundle of a degree-3 group: both
        points are among the parent's commitments, each under the other
        coefficient. The commitments changed, so every child runs its own
        check and refuses. Only the parent multiplies G: its three
        coefficients, in one batch."""
        tree, shares = self.dealt_group(28, 5, curve=curve)
        assert shares[1].threshold - 1 == 3
        polys = []
        sample = proactive.keyed_polynomial
        monkeypatch.setattr(
            proactive, "keyed_polynomial", lambda *a: polys.append(sample(*a)) or polys[-1]
        )
        multiplied = counted_multiples(monkeypatch)
        checks = self.counted_checks(monkeypatch)

        def swap(bundle):
            first, second, *rest = bundle.commitments
            return bundle._replace(commitments=(second, first, *rest))

        outcome, seen = self.run_tampered(tree, shares, swap)
        (f,) = polys
        assert f[1] != f[2]
        assert multiplied == [f[1:]] and len(checks) == 5
        assert self.claimers(outcome) == [1, 2, 3, 4, 5] == self.alone(tree, shares, seen)

    @pytest.mark.parametrize("curve", [STANDARD_CURVE, TOY_CURVE], ids=["secp", "toy"])
    def test_shared_vector_that_misses_the_deltas_is_refused_by_all(self, curve):
        """Every child gets the same moved commitment vector and an honest
        delta: the deltas agree with each other but not with C_1."""
        tree, shares = self.dealt_group(27, 5, curve=curve)

        def shift_first(bundle):
            moved = (point_add(bundle.commitments[0], curve.base_point),) + bundle.commitments[1:]
            return bundle._replace(commitments=moved)

        outcome, seen = self.run_tampered(tree, shares, shift_first)
        assert self.claimers(outcome) == [1, 2, 3, 4, 5] == self.alone(tree, shares, seen)

    @pytest.mark.parametrize("curve", [STANDARD_CURVE, TOY_CURVE], ids=["secp", "toy"])
    def test_vector_one_point_too_long_is_refused_by_all(self, curve):
        """An identity point appended to every vector commits to a zero
        x^threshold coefficient, so the deltas still match it, but the
        length is wrong for the group's degree."""
        tree, shares = self.dealt_group(28, 5, curve=curve)

        def lengthen(bundle):
            return bundle._replace(commitments=bundle.commitments + (curve.identity(),))

        outcome, seen = self.run_tampered(tree, shares, lengthen)
        assert self.claimers(outcome) == [1, 2, 3, 4, 5] == self.alone(tree, shares, seen)

    @pytest.mark.parametrize("consistent", [False, True], ids=["moved", "own-polynomial"])
    def test_mismatched_vectors_get_per_child_verdicts(self, consistent):
        """Child 4's vector differs from its siblings': either one point is
        moved (its check fails) or it belongs to another polynomial of the
        right degree that child 4's delta matches (its check passes)."""
        tree, shares = self.dealt_group(23, 5)
        G = tree.curve.base_point
        degree = shares[4].threshold - 1
        other = sample_polynomial(random.Random(8), degree, 0, tree.curve.order)

        def mismatch(bundle):
            if bundle.recipient != 4:
                return bundle
            if not consistent:
                moved = (point_add(bundle.commitments[0], G),) + bundle.commitments[1:]
                return bundle._replace(commitments=moved)
            return bundle._replace(
                delta=poly_eval(other, eval_point(shares, 4), tree.curve.order),
                commitments=tuple(scalar_mul(c, G) for c in other[1:]),
            )

        outcome, seen = self.run_tampered(tree, shares, mismatch)
        assert self.claimers(outcome) == self.alone(tree, shares, seen)
        assert self.claimers(outcome) == ([] if consistent else [4])

    @pytest.mark.parametrize("tampered", [False, True], ids=["honest", "lower-degree"])
    @pytest.mark.parametrize("curve", [STANDARD_CURVE, TOY_CURVE], ids=["secp", "toy"])
    def test_group_below_its_degree_after_a_leave(self, curve, tampered):
        """Four children at threshold 4 (degree 3); two leave and no redeal
        follows, so two points cannot fix a degree-3 polynomial. Tampered,
        the deltas lie on a degree-2 polynomial through (0, 0) whose two
        coefficients are committed honestly, with G as the third point."""
        tree, shares = self.dealt_group(29, 4, tf(3, 3), curve=curve)
        for uid in (2, 4):
            tree.leave(uid)
        assert tree.groups(shares) == {ROOT_ID: [1, 3]}
        lower = sample_polynomial(random.Random(4), 2, 0, curve.order)
        move = self.moved_to(tree, shares, lower)

        def lower_degree(bundle):
            if not tampered:
                return bundle
            moved = move(bundle)
            return moved._replace(commitments=moved.commitments + (curve.base_point,))

        outcome, seen = self.run_tampered(tree, shares, lower_degree)
        assert self.claimers(outcome) == self.alone(tree, shares, seen)
        assert self.claimers(outcome) == ([1, 3] if tampered else [])

    def test_random_tampering_matches_each_child_alone(self):
        for trial in range(36):
            curve = (STANDARD_CURVE, TOY_CURVE)[trial % 2]
            n, G = curve.order, curve.base_point
            rng = random.Random(100 + trial)
            size, num = 1 + trial // 2 % 6, rng.randint(1, 3)
            tree, shares = self.dealt_group(200 + trial, size, tf(num, 3), curve)
            kids = sorted(shares)
            degree = shares[kids[0]].threshold - 1
            move = None
            if rng.random() < 0.5:
                move = self.moved_to(tree, shares, sample_polynomial(rng, degree, 0, n))
            tampered = set(rng.sample(kids, rng.randint(0, len(kids))))
            kinds = {
                uid: rng.choice(["delta", "commitment", "length", "longer", "pair"])
                for uid in tampered
            }
            shift = rng.randrange(1, n)
            # The parent may also offset every child by one polynomial with
            # a nonzero constant: a constant ("shift every child"), or one
            # of the group's degree with its nonzero coefficients committed.
            offset, offset_kind = None, rng.choice([None, "shift", "polynomial"])
            if offset_kind == "shift":
                offset = (rng.randrange(1, n),) + (0,) * degree
            elif offset_kind == "polynomial":
                offset = sample_polynomial(rng, degree, rng.randrange(1, n), n)
            offset_points = [scalar_mul(g, G) for g in (offset or ())[1:]]

            def tamper(bundle):
                if move is not None:
                    bundle = move(bundle)
                if offset is not None:
                    x = eval_point(shares, bundle.recipient)
                    bundle = bundle._replace(
                        delta=(bundle.delta + poly_eval(offset, x, n)) % n,
                        commitments=tuple(
                            point_add(C, D) for C, D in zip(bundle.commitments, offset_points)
                        ),
                    )
                kind = kinds.get(bundle.recipient)
                if kind == "pair":
                    # Paired with the next child, which gets the opposite
                    # shift unless it is tampered itself.
                    return bundle._replace(delta=(bundle.delta + shift) % n)
                if kinds.get(bundle.recipient - 1) == "pair" and kind is None:
                    return bundle._replace(delta=(bundle.delta - shift) % n)
                if kind == "delta" or (kind in ("commitment", "length") and not degree):
                    return bundle._replace(delta=(bundle.delta + rng.randrange(1, n)) % n)
                if kind == "commitment":
                    idx = rng.randrange(degree)
                    new = list(bundle.commitments)
                    new[idx] = point_add(new[idx], G)
                    return bundle._replace(commitments=tuple(new))
                if kind == "length":
                    return bundle._replace(commitments=bundle.commitments[:-1])
                if kind == "longer":
                    return bundle._replace(commitments=bundle.commitments + (G,))
                return bundle

            outcome, seen = self.run_tampered(tree, shares, tamper, seed=trial)
            expected = self.alone(tree, shares, seen)
            assert self.claimers(outcome) == expected
            paired = {uid + 1 for uid, kind in kinds.items() if kind == "pair"}
            if offset is None:
                assert set(expected) == tampered | (paired & set(kids))
            else:
                # A child's own tamper may cancel the offset at its point.
                assert set(kids) - tampered - paired <= set(expected)

    def test_world_rng_untouched_by_the_check(self):
        tree, shares = self.dealt_group(24, 4)
        seen = []

        def bump(bundle):
            if bundle.recipient == 2:
                bundle = bundle._replace(delta=(bundle.delta + 5) % tree.curve.order)
            seen.append(bundle)
            return bundle

        states = []
        for perturb in (None, bump):
            rng = random.Random(77)
            outcome = renewal_round(tree, shares, tree.groups(shares), rng, perturb=perturb)
            states.append(rng.getstate())
        assert self.claimers(outcome) == [2] == self.alone(tree, shares, seen)
        assert states[0] == states[1]


class TestCheckCounts:
    """Machine-independent cost of one renewal epoch: how many per-child
    checks and Straus passes it makes. The parents' coefficients are
    committed in one ``base_muls`` batch per epoch. On secp256k1 each
    scalar names one table point per nonzero digit of its 32 or 33 width-8
    digits (a digit is zero with odds 1/256); the batch's points are
    summed pairwise in levels of batched affine additions (``_add_batch``,
    counted in pairs) while a level holds at least 8 pairs, and mixed
    additions (``_add_affine``, the first of each scalar's from the
    identity) finish each scalar. So a batch of n points over m scalars
    makes n additions in all. On the toy curve each scalar names one
    point and the batch makes no level. A bundle that reaches its child
    unchanged, or changed only in its delta, is judged without a curve
    operation; only one whose commitments changed runs the child's own
    check, one Straus pass."""

    # Users 1-3 at level 1; 1 -> {4, 5}, 2 -> {6, 7, 8}: three groups of
    # threshold 2 (k = 1), 8 dealt children.
    SPEC = [[[], []], [[], [], []], []]
    # The renew-secp tree: level-1 users 1-4 with 2, 3, 4 and 5 children.
    RENEW_SECP_SPEC = [[[]] * 2, [[]] * 3, [[]] * 4, [[]] * 5]

    def counted_round(
        self, monkeypatch, curve, tampered_parent=None, spec=SPEC, move_commitment=False
    ):
        """One epoch in which ``tampered_parent`` adds 1 to every delta it
        sends, or with ``move_commitment`` adds G to its first commitment."""
        rng = random.Random(41)
        tree = make_tree(spec, rng, curve=curve)
        _dealer, _state, shares = deal(tree, 9, tf(2, 3), rng)
        curve_module._base_table(curve)  # built once per process, not per epoch
        counts = dict.fromkeys(
            ("verify_renewal", "base_mul_equals", "_straus", "_add_batch", "_add_affine", "_double"),
            0,
        )
        for module, name in (
            (proactive, "verify_renewal"),
            (proactive, "base_mul_equals"),
            (curve_module, "_straus"),
            (curve_module, "_add_batch"),
            (curve_module, "_add_affine"),
            (curve_module, "_double"),
        ):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original):
                counts[_name] += len(args[0]) if _name == "_add_batch" else 1
                return _original(*args)

            monkeypatch.setattr(module, name, counting)

        def bump(bundle):
            if bundle.sender != tampered_parent:
                return bundle
            if move_commitment:
                moved = (point_add(bundle.commitments[0], curve.base_point),) + bundle.commitments[1:]
                return bundle._replace(commitments=moved)
            return bundle._replace(delta=(bundle.delta + 1) % tree.field.modulus)

        outcome = renewal_round(tree, shares, tree.groups(shares), rng, perturb=bump)
        return tree, outcome, counts

    def test_honest_secp_epoch_makes_no_pass(self, monkeypatch):
        """The three parents' commitments read the base-point table: 3
        multiplications in one batch, 33 + 33 + 32 = 98 points (no zero
        digit among the 33, 33 and 32), no doublings. The levels add 48,
        24 and 12 pairs, leaving 5, 5 and 4 points (6 pairs, below 8),
        which 14 mixed additions finish: 84 + 14 = 98. Every child gets
        the bundle its parent generated, so none runs its own check."""
        _tree, outcome, counts = self.counted_round(monkeypatch, STANDARD_CURVE)
        assert outcome.claims == ()
        assert counts == {
            "verify_renewal": 0, "base_mul_equals": 0, "_straus": 0,
            "_add_batch": 84, "_add_affine": 14, "_double": 0,
        }

    def test_shifted_group_is_refused_without_a_pass(self, monkeypatch):
        """Every delta of user 2's group is shifted by 1 and nothing else
        changes, so each of its three children refuses in the field. The
        count is the parents' 84 + 14."""
        _tree, outcome, counts = self.counted_round(
            monkeypatch, STANDARD_CURVE, tampered_parent=2
        )
        assert sorted(c.claimer for c in outcome.claims) == [6, 7, 8]
        assert counts == {
            "verify_renewal": 0, "base_mul_equals": 0, "_straus": 0,
            "_add_batch": 84, "_add_affine": 14, "_double": 0,
        }

    def test_moved_commitment_falls_back_to_one_pass_per_child(self, monkeypatch):
        """User 2's C_1 is moved, so each of its three children runs its
        own check: one Straus pass over (-delta mod n, G) and (x_j, C_1).
        All six scalars have 254 to 256 bits, so each pass builds the
        16-multiple window tables of G and C_1 together, 2 + 4 + 8 + 16 =
        30 batched pairs; adds one point per nonzero width-5 digit of
        delta and x_j, 101, 102 and 101 for the three children (304); and
        doubles 5 * 51 = 255 times, the longer scalar having 52 digits.
        The parents' 84 pairs plus 3 * 30 make 174, their 14 mixed
        additions plus 304 make 318, and the doublings 3 * 255 = 765."""
        _tree, outcome, counts = self.counted_round(
            monkeypatch, STANDARD_CURVE, tampered_parent=2, move_commitment=True
        )
        assert sorted(c.claimer for c in outcome.claims) == [6, 7, 8]
        assert counts == {
            "verify_renewal": 3, "base_mul_equals": 3, "_straus": 3,
            "_add_batch": 174, "_add_affine": 318, "_double": 765,
        }

    def test_honest_toy_epoch_makes_no_pass(self, monkeypatch, toy):
        """Three parents' single commitments, one point each: no level,
        and one mixed addition each."""
        _tree, outcome, counts = self.counted_round(monkeypatch, toy)
        assert outcome.claims == ()
        assert counts == {
            "verify_renewal": 0, "base_mul_equals": 0, "_straus": 0,
            "_add_batch": 0, "_add_affine": 3, "_double": 0,
        }

    def test_renew_secp_shaped_epoch_makes_no_pass(self, monkeypatch):
        """The renew-secp tree: level-1 users 1-4 with 2, 3, 4 and 5
        children; user 3's group of four is shifted. Only the deltas moved,
        so all four refuse in the field with no work beyond the parents'
        commitments: k = 2, 1, 1, 2, 3 for the root's group of
        four and the groups of 2-5, one batch of 9 base multiplications
        over 293 table points (32 or 33 nonzero digits each), no doubling.
        The levels add 144, 72, 36, 18 and 9 pairs (279), an odd point
        carrying each time a scalar's count is odd, and stop with 14
        points left over the 9 scalars (5 pairs); 14 mixed additions
        finish them: 279 + 14 = 293."""
        _tree, outcome, counts = self.counted_round(
            monkeypatch, STANDARD_CURVE, tampered_parent=3, spec=self.RENEW_SECP_SPEC
        )
        assert sorted(c.claimer for c in outcome.claims) == [10, 11, 12, 13]
        assert counts == {
            "verify_renewal": 0, "base_mul_equals": 0, "_straus": 0,
            "_add_batch": 279, "_add_affine": 14, "_double": 0,
        }

    def test_one_inversion_per_group_and_per_deal(self, monkeypatch):
        """The renew-secp epoch above commits all nine coefficients in one
        batch: one inversion per level of 144, 72, 36, 18 and 9 pairs and
        one to convert the nine results, six in all where one batch per
        group took five conversions of 2, 1, 1, 2, 3. A deal's 18 round
        keys are one batch of 581 points: levels of 287, 144, 72, 36 and
        18 pairs, then one conversion of 18."""
        rng = random.Random(41)
        tree = make_tree(self.RENEW_SECP_SPEC, rng, curve=STANDARD_CURVE)
        _dealer, _state, shares = deal(tree, 9, tf(2, 3), rng)
        curve_module._base_table(STANDARD_CURVE)
        inversions, converted = [], []
        invert, convert = curve_module._inverses, curve_module._to_affine
        monkeypatch.setattr(
            curve_module, "_inverses", lambda v, p: inversions.append(len(v)) or invert(v, p)
        )
        monkeypatch.setattr(
            curve_module, "_to_affine", lambda P, p: converted.append(len(P)) or convert(P, p)
        )
        renewal_round(tree, shares, tree.groups(shares), rng)
        assert inversions == [144, 72, 36, 18, 9, 9]
        assert converted == [9]
        converted.clear()
        inversions.clear()
        tree.assign_round_keys(tree.begin_round(rng))
        assert inversions == [287, 144, 72, 36, 18, 18]
        assert converted == [len(tree.nodes)] == [18]

    def test_no_multiple_outlives_its_round(self, monkeypatch):
        """Two identical rounds in one process add as many points, so no
        multiple of G is kept past its round. A parent replaying the
        previous round's bundles changes every commitment, so each child
        runs its own check, a Straus pass that multiplies nothing through
        ``proactive``: the epoch's one batch of three k = 1 coefficients
        is all."""
        rng = random.Random(41)
        tree = make_tree(self.SPEC, rng, curve=STANDARD_CURVE)
        _dealer, _state, shares = deal(tree, 9, tf(2, 3), rng)
        added = []
        add = curve_module._add_affine
        monkeypatch.setattr(curve_module, "_add_affine", lambda *a: added.append(1) or add(*a))
        calls = counted_multiples(monkeypatch)

        sent = {}

        def record(bundle):
            sent[bundle.recipient] = bundle
            return bundle

        counts = []
        for _ in range(2):
            added.clear()
            calls.clear()
            renewal_round(tree, shares, tree.groups(shares), random.Random(5), perturb=record)
            counts.append((len(added), [len(batch) for batch in calls]))
        assert counts[0] == counts[1] and counts[0][1] == [3]

        calls.clear()
        outcome = renewal_round(
            tree, shares, tree.groups(shares), random.Random(6),
            perturb=lambda bundle: sent[bundle.recipient],
        )
        # A replay passes every child's own check: bundles carry no epoch.
        assert outcome.claims == ()
        assert [len(batch) for batch in calls] == [3]

    @pytest.mark.parametrize(
        "curve, tables",
        [(TOY_CURVE, []), (STANDARD_CURVE, [(4, 16)])],
        ids=["toy", "standard"],
    )
    def test_child_check_builds_a_window_table_only_for_long_scalars(
        self, monkeypatch, curve, tables
    ):
        """A child's check adds -delta * G to the Straus sum of its terms in
        one pass and converts nothing. Every toy-curve scalar has at most
        5 bits, so its terms go bit by bit and build no table; on
        secp256k1, G's term and the three terms x^h mod n build their
        tables of 16 affine multiples together."""
        rng = random.Random(3)
        coeffs = [rng.randrange(1, curve.order) for _ in range(3)]
        x = rng.randrange(2, curve.order)
        bundle = RenewalBundle(
            sender=0, recipient=1,
            delta=sum(c * x**h for h, c in enumerate(coeffs, start=1)) % curve.order,
            commitments=tuple(scalar_mul(c, curve.base_point) for c in coeffs),
        )
        converted, built = [], []
        convert, multiples = curve_module._to_affine, curve_module._multiple_rows
        monkeypatch.setattr(
            curve_module, "_to_affine", lambda P, p: converted.append(len(P)) or convert(P, p)
        )
        monkeypatch.setattr(
            curve_module, "_multiple_rows",
            lambda P, count, a, p: built.append((len(P), count)) or multiples(P, count, a, p),
        )
        assert proactive.verify_renewal(bundle, x, curve)
        assert converted == []
        assert built == tables
