"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is
exact (integer equality) except the two stated runtime budgets, which are
asserted as measured wall time.
"""

import json
import random
import time
from itertools import combinations

from conftest import deal, make_tree, minimal_reconstructing_set, random_tree_spec, tf

from hiershare.algebra import lagrange_at_zero, poly_eval
from hiershare.config import parse_scenario
from hiershare.curve import TOY_CURVE, scalar_mul
from hiershare.hierarchy import ROOT_ID
from hiershare.proactive import RenewalBundle, generate_renewal, renewal_round, verify_renewal
from hiershare.sharing import reconstruct
from hiershare.simnet import World
from hiershare.snapshot import load_world, save_world


def note(line):
    print(f"\n[acceptance] {line}")


def spec_dict(nested):
    return {"children": [spec_dict(child) for child in nested]}


def test_criterion_1_round_trip_200_random_hierarchies():
    started = time.perf_counter()
    factors = [tf(1, 3), tf(1, 2), tf(2, 3), tf(1, 1)]
    for i in range(200):
        rng = random.Random(10_000 + i)
        spec = random_tree_spec(rng, max_depth=4, max_fanout=6)
        tree = make_tree(spec, rng, prime=1009)
        secret = rng.randrange(1009)
        _dealer, _state, shares = deal(tree, secret, factors[i % 4], rng)
        assert reconstruct(tree, shares, list(shares)) == secret
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    note(f"criterion 1 PASS: 200 seeded hierarchies round-trip exactly "
         f"({elapsed:.2f}s < 10s)")


def test_criterion_2_threshold_exactness_and_perfect_secrecy():
    started = time.perf_counter()
    rng = random.Random(31)
    # Fixed 3-level tree over F_31: root group of 3 (threshold 2), child
    # groups of 4/2/3 (thresholds 3/2/2) under TF 2/3.
    tree = make_tree(
        [[[], [], [], []], [[], []], [[], [], []]], rng, prime=31
    )
    secret = 17
    dealer, _state, shares = deal(tree, secret, tf(2, 3), rng)

    groups = [(ROOT_ID, dealer.secret)] + [
        (uid, dealer.polynomials[uid].free_coefficient)
        for uid in sorted(dealer.polynomials)
        if uid != ROOT_ID
    ]
    checked_quorums = 0
    checked_subquorums = 0
    for gid, group_value in groups:
        kids = tree.active_children(gid)
        need = shares[kids[0]].threshold
        poly = dealer.polynomials[gid]
        evaluations = {
            uid: poly_eval(poly, shares[uid].eval_point, 31) for uid in kids
        }
        for quorum in combinations(kids, need):
            pts = [(shares[u].eval_point, evaluations[u]) for u in quorum]
            assert lagrange_at_zero(pts, 31) == group_value
            checked_quorums += 1
        degree = need - 1
        for size in range(1, need):
            for subq in combinations(kids, size):
                counts = {c: 0 for c in range(31)}
                for flat in range(31 ** (degree + 1)):
                    coeffs, rest = [], flat
                    for _ in range(degree + 1):
                        coeffs.append(rest % 31)
                        rest //= 31
                    ok = all(
                        sum(
                            c * shares[u].eval_point ** h
                            for h, c in enumerate(coeffs)
                        ) % 31 == evaluations[u]
                        for u in subq
                    )
                    if ok:
                        counts[coeffs[0]] += 1
                assert len(set(counts.values())) == 1, (gid, subq)
                assert counts[0] > 0
                checked_subquorums += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    note(f"criterion 2 PASS: {checked_quorums} quorums exact, "
         f"{checked_subquorums} sub-quorums perfectly blind ({elapsed:.2f}s < 60s)")


def test_criterion_3_storage_and_field_size():
    rng = random.Random(3)
    toy_tree = make_tree([[[], []], [[], []]], rng, curve=TOY_CURVE)
    _dealer, _state, toy_shares = deal(
        toy_tree, 5, tf(1, 2), rng
    )
    flat_tree = make_tree([[[], [], []], [[]], []], rng, prime=1009)
    dealer, _state, flat_shares = deal(
        flat_tree, 5, tf(2, 3), rng
    )
    for tree, shares in ((toy_tree, toy_shares), (flat_tree, flat_shares)):
        assert sorted(shares) == tree.active_users()
        owners = [rec.owner for rec in shares.values()]
        assert len(owners) == len(set(owners))
        p = tree.field.modulus
        for rec in shares.values():
            assert 0 <= rec.value < p
            assert 0 < rec.eval_point < p
    assert all(
        0 <= c < flat_tree.field.modulus
        for poly in dealer.polynomials.values()
        for c in poly.coefficients
    )
    note("criterion 3 PASS: one share per user, one field modulus at every level")


def test_criterion_4_renewal_invariance_20_epochs_50_seeds():
    for seed in range(50):
        rng = random.Random(40_000 + seed)
        spec = random_tree_spec(rng, max_depth=3, max_fanout=4)
        tree = make_tree(spec, rng, prime=1009)
        secret = rng.randrange(1009)
        _dealer, _state, shares = deal(tree, secret, tf(1, 2), rng)
        for epoch in range(1, 21):
            outcome = renewal_round(tree, shares, epoch, rng)
            assert not outcome.verdicts
            shares = outcome.shares
        assert reconstruct(tree, shares, list(shares)) == secret
    note("criterion 4 PASS: secret exact after 20 honest renewal epochs, 50 seeds")


def test_criterion_5_detection_complete_and_sound():
    G = TOY_CURVE.base_point

    # Completeness: every polynomial with zero free coefficient and degree
    # k <= 3, against every evaluation point -- exhaustive over toy scalars.
    checked = 0
    for k in range(4):
        if k == 0:
            coeff_sets = [()]
        else:
            coeff_sets = [
                tuple(divmod_chain(flat, k)) for flat in range(19**k)
            ]
        for coeffs in coeff_sets:
            if k >= 1 and coeffs[-1] == 0:
                continue  # exact-degree sampling never emits these
            commitments = tuple(scalar_mul(c, G) for c in coeffs)
            for j in range(1, 19):
                delta = sum(c * j**h for h, c in enumerate(coeffs, start=1)) % 19
                bundle = RenewalBundle(
                    sender=0, recipient=1, epoch=1,
                    delta=delta, commitments=commitments,
                )
                assert verify_renewal(bundle, j, TOY_CURVE) is True
                checked += 1

    # Soundness: 1000 random tamperings of delta or commitments all fail.
    rng = random.Random(5)
    tree = make_tree([[], [], [], []], rng, curve=TOY_CURVE)
    _dealer, _state, shares = deal(tree, 6, tf(1, 1), rng)
    bundles = generate_renewal(tree, shares, ROOT_ID, 0, rng)
    failures = 0
    for _ in range(1000):
        bundle = rng.choice(bundles)
        point = shares[bundle.recipient].eval_point
        from dataclasses import replace

        if rng.random() < 0.5:
            offset = rng.randrange(1, 19)
            bad = replace(bundle, delta=(bundle.delta + offset) % 19)
        else:
            idx = rng.randrange(len(bundle.commitments))
            shift = scalar_mul(rng.randrange(1, 19), G)
            bad = replace(
                bundle,
                commitments=bundle.commitments[:idx]
                + (bundle.commitments[idx] + shift,)
                + bundle.commitments[idx + 1 :],
            )
        if not verify_renewal(bad, point, TOY_CURVE):
            failures += 1
    assert failures == 1000
    note(f"criterion 5 PASS: {checked} honest cases verify, "
         f"1000/1000 tamperings rejected")


def divmod_chain(flat, k):
    out = []
    for _ in range(k):
        out.append(flat % 19)
        flat //= 19
    return out


def _boundary_config(tampered_children):
    return parse_scenario({
        "schema_version": 1,
        "name": "boundary",
        "field_mode": "curve-order",
        "curve": "toy",
        "tf": {"num": 3, "den": 5},
        "tree": spec_dict([[[], [], [], [], []]]),
        "secret": "3",
        "eval_mode": "round-key",
        "epochs": 1,
        "seed": "77",
        "adversary": {
            "strategy": "scripted",
            "script": [{
                "epoch": 1,
                "compromise": [1],
                "tamper": [{"parent": 1, "children": tampered_children}],
            }],
        },
    })


def test_criterion_6_claim_resolution_boundaries():
    # Group of n=5 under node 1, threshold 3, k=2: the bound is n-k = 3.
    at_bound = World(_boundary_config([2, 3, 4])).run()
    verdict = at_bound.rows[1]["verdicts"][0]
    assert verdict == {"accused": 1, "outcome": "accused-compromised",
                       "claims": 3, "claimers": [2, 3, 4]}

    below_bound = World(_boundary_config([2, 3])).run()
    verdict = below_bound.rows[1]["verdicts"][0]
    assert verdict == {"accused": 1, "outcome": "claimers-compromised",
                       "claims": 2, "claimers": [2, 3]}
    note("criterion 6 PASS: n-k claims convict the accused, "
         "n-k-1 claims convict the claimers")


def test_criterion_7_message_complexity_linear():
    def binary(depth):
        if depth == 0:
            return []
        return [binary(depth - 1), binary(depth - 1)]

    results = []
    for depth in (2, 3, 4, 5):
        n = 2 ** (depth + 1) - 1  # nodes including the root server
        config = parse_scenario({
            "schema_version": 1,
            "name": f"complexity-{n}",
            "field_mode": "curve-order",
            "curve": "standard",
            "tf": {"num": 1, "den": 1},
            "tree": spec_dict(binary(depth)),
            "secret": "99",
            "eval_mode": "round-key",
            "epochs": 1,
            "seed": "8",
        })
        report = World(config).run()
        row = report.rows[1]
        internal = (n - 1) // 2
        assert row["messages"]["renewal-delta"] == n - 1
        assert row["messages"]["commitments"] == internal
        assert row["herzberg_all_pairs"] == n * (n - 1)
        results.append((n, n - 1 + internal, n * (n - 1)))
    note("criterion 7 PASS: renewal messages per epoch "
         + ", ".join(f"n={n}: {ours} (herzberg {herz})" for n, ours, herz in results))


def _security_scenario(seed, renewal_enabled, targets=(), budget=2):
    rng = random.Random(80_000 + seed)
    internals = rng.randint(4, 5)
    shape = [[[] for _ in range(rng.randint(3, 5))] for _ in range(internals)]
    return parse_scenario({
        "schema_version": 1,
        "name": f"security-{seed}",
        "field_mode": "no-curve",
        "field_prime": "1009",
        "tf": {"num": 3, "den": 4},
        "tree": spec_dict(shape),
        "secret": str(rng.randrange(1009)),
        "eval_mode": "user-id",
        "epochs": 10,
        "seed": str(seed),
        "renewal_enabled": renewal_enabled,
        "adversary": {
            "strategy": "passive-stealer",
            "budget": budget,
            "targets": list(targets),
        },
    })


def test_criterion_8_mobile_adversary_end_to_end():
    recovered_with_renewal = 0
    recovered_without = 0
    for seed in range(100):
        # Every group's threshold is >= 3 under TF 3/4 with fanout 3-5, so
        # a budget of 2 stays strictly below group-k + 1 everywhere.
        probe = World(_security_scenario(seed, True))
        probe.initial_deal()
        min_threshold = min(rec.threshold for rec in probe.shares.values())
        assert min_threshold >= 3
        targets = minimal_reconstructing_set(probe.tree, probe.shares)

        with_renewal = World(_security_scenario(seed, True, targets)).run()
        assert all(
            not row["adversary_can_reconstruct"] for row in with_renewal.rows
        ), seed
        if with_renewal.final["secret_recovered_by_adversary"]:
            recovered_with_renewal += 1

        without = World(_security_scenario(seed, False, targets)).run()
        if without.final["secret_recovered_by_adversary"]:
            recovered_without += 1
    assert recovered_with_renewal == 0
    assert recovered_without == 100
    note("criterion 8 PASS: 0/100 recoveries with renewal on, "
         "100/100 with renewal off and budget accumulation")


def test_criterion_9_determinism_and_resume(tmp_path):
    def run_bytes(world):
        world.run()
        return json.dumps(world.report.to_dict(), sort_keys=True).encode()

    config = parse_scenario({
        "schema_version": 1,
        "name": "determinism",
        "field_mode": "curve-order",
        "curve": "toy",
        "tf": {"num": 2, "den": 3},
        "tree": spec_dict([[[], []], [[], []]]),
        "secret": "9",
        "eval_mode": "round-key",
        "epochs": 6,
        "seed": "123",
        "adversary": {"strategy": "passive-stealer", "budget": 1},
    })
    straight = run_bytes(World(config))
    again = run_bytes(World(config))
    assert straight == again

    # Snapshot at epoch 3, resume, and compare the full report bytes.
    world = World(config)
    world.initial_deal()
    while world.epoch < 3:
        world.step_epoch()
    path = tmp_path / "det.snapshot"
    save_world(world, path)
    resumed = load_world(path)
    while resumed.epoch < resumed.config.epochs:
        resumed.step_epoch()
    resumed.finalize()
    assert json.dumps(resumed.report.to_dict(), sort_keys=True).encode() == straight
    note("criterion 9 PASS: byte-identical reports, straight and resumed")
