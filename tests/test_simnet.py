"""World stepping, adversary strategies, and report determinism."""

import hashlib
import json
import random
from collections import Counter

import pytest
from conftest import (
    active_users,
    benchmark_workloads,
    every_group_recover,
    minimal_reconstructing_set,
    negated,
    random_tree_spec,
    renewal_bundles,
)

from hiershare import algebra, curve, sharing, simnet
from hiershare.config import adversary_plan, expand_tree, load_bundled_scenario, parse_scenario
from hiershare.errors import HierShareError, InvariantViolation
from hiershare.hierarchy import ROOT_ID, HierarchyTree, PositionOccupied
from hiershare.proactive import RenewalBundle
from hiershare.sharing import GroupShares, HeldShare, knowledge_closure
from hiershare.simnet import StepOutOfOrder, World, adversary_act
from hiershare.snapshot import (
    CorruptSnapshot,
    _checksum,
    load_world,
    save_world,
    world_from_dict,
    world_to_dict,
)


def spec_dict(nested):
    return {"children": [spec_dict(child) for child in nested]}


def scenario(**overrides):
    base = {
        "schema_version": 1,
        "name": "sim-test",
        "field_mode": "no-curve",
        "field_prime": "1009",
        "tf": {"num": 2, "den": 3},
        "tree": spec_dict([[], [], []]),
        "secret": "5",
        "eval_mode": "user-id",
        "epochs": 5,
        "seed": "1",
    }
    base.update(overrides)
    return parse_scenario({k: v for k, v in base.items() if v is not None})


def held_share(world, uid):
    """(evaluation point, kept value) of the share ``uid`` holds."""
    return world.shares[uid].members[uid]


def canonical(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestHonestRuns:
    def test_zero_budget_adversary_is_inert(self):
        report = World(scenario()).run()
        for row in report.rows:
            assert row["compromised"] == []
            assert row["claims"] == 0
            assert row["verdicts"] == []
            assert row["adversary_can_reconstruct"] is False
            assert row["secret_intact"] is True
        assert report.final["reconstruction_correct"] is True
        assert report.final["secret_recovered_by_adversary"] is False

    def test_renewal_message_counts(self):
        # 3 level-1 users, one with 2 children: 5 sealed deltas, no
        # multicasts in no-curve mode.
        report = World(scenario(tree=spec_dict([[[], []], [], []]))).run()
        for row in report.rows[1:]:
            assert row["messages"].get("renewal-delta") == 5
            assert "commitments" not in row["messages"]

    def test_curve_mode_multicasts(self):
        cfg = scenario(
            field_mode="curve-order",
            curve="toy",
            field_prime=None,
            eval_mode="round-key",
            tree=spec_dict([[[], []], []]),
            secret="3",
            epochs=2,
        )
        report = World(cfg).run()
        for row in report.rows[1:]:
            # 4 users -> 4 deltas; server + node 1 -> 2 multicasts.
            assert row["messages"]["renewal-delta"] == 4
            assert row["messages"]["commitments"] == 2

    def test_share_epochs_advance_in_lockstep(self):
        world = World(scenario(epochs=3))
        world.run()
        assert {rec.epoch for rec in world.shares.values()} == {3}


class TestDeterminism:
    def test_same_seed_same_report_bytes(self):
        a = canonical(World(scenario(epochs=4)).run())
        b = canonical(World(scenario(epochs=4)).run())
        assert a == b

    def test_identical_runs_make_the_same_base_multiplications(self, monkeypatch):
        """Nothing remembers a multiple of G across runs: a second identical
        secp256k1 run in the same process multiplies G as often, epoch by
        epoch, as the first."""
        calls = []
        original = curve._signed_digits

        def recoding(k, width):
            if width == curve._BASE_WIDTH:  # one recoding per multiple of G
                calls.append(1)
            return original(k, width)

        monkeypatch.setattr(curve, "_signed_digits", recoding)
        config = scenario(
            field_mode="curve-order", curve="standard", field_prime=None, eval_mode=None,
            tree=spec_dict([[[], []], [[], [], []]]), epochs=3,
            adversary={"strategy": "active-corruptor", "budget": 1, "targets": [1, 2]},
        )

        def per_epoch():
            world, counts = World(config), []
            for step in [world.initial_deal] + [world.step_epoch] * 3:
                calls.clear()
                step()
                counts.append(len(calls))
            return counts

        first = per_epoch()
        assert first == per_epoch()
        assert all(first)

    def test_different_seed_different_dealing(self):
        w1 = World(scenario())
        w2 = World(scenario(seed="2"))
        w1.initial_deal()
        w2.initial_deal()
        assert [held_share(w1, uid) for uid in sorted(w1.shares)] != [
            held_share(w2, uid) for uid in sorted(w2.shares)
        ]

    def test_run_leaves_no_message_count(self):
        world = World(scenario(epochs=4))
        report = world.run()
        assert world.envelopes == Counter()
        # Epoch 0: 3 requests and 3 sealed shares; epochs 1-4: 3 sealed
        # renewal deltas each.
        assert [row["messages_total"] for row in report.rows] == [6, 3, 3, 3, 3]

    def test_row_counts_the_epochs_messages_then_resets(self):
        world = World(scenario(epochs=4))
        world.initial_deal()
        world.send("claim")
        row = world.step_epoch()
        # The extra claim plus three sealed renewal deltas.
        assert row["messages"] == {"claim": 1, "renewal-delta": 3}
        assert row["messages_total"] == 4
        assert world.envelopes == Counter()
        row = world.step_epoch()
        assert row["messages"] == {"renewal-delta": 3}
        assert row["messages_total"] == 3


class TestAdversaryObservation:
    def test_sealed_share_to_honest_node_unlearned(self):
        cfg = scenario(adversary={"strategy": "passive-stealer", "budget": 0})
        world = World(cfg)
        world.initial_deal()
        assert world.adversary.stolen_shares == {}

    def test_sealed_share_to_compromised_node_stolen(self):
        # The epoch-0 deal goes out before the first hop, so the epoch-1
        # redeal is the mail that meets the occupant: 2, dealt as
        # internal over its child 4, sits on its host from the epoch-0
        # hop to the epoch-1 hop. Without renewal its round-2 share is
        # still the one the world holds.
        cfg = scenario(
            tree=spec_dict([[], [[]], []]),
            renewal_enabled=False,
            events=[{"epoch": 1, "kind": "redeal"}],
            epochs=1,
            adversary={
                "strategy": "scripted",
                "script": [{"epoch": 0, "compromise": [2]}],
            },
        )
        world = World(cfg)
        world.run()
        stolen = world.adversary.stolen_shares
        assert {key: list(copies) for key, copies in stolen.items()} == {(1, 0): [2], (2, 0): [2]}
        assert stolen[(2, 0)][2] == HeldShare(
            *held_share(world, 2), world.shares[2].threshold, True
        )

    def test_commitments_visible_but_no_coefficients(self):
        cfg = scenario(
            field_mode="curve-order",
            curve="toy",
            field_prime=None,
            eval_mode="round-key",
            tree=spec_dict([[], []]),
            secret="3",
            epochs=2,
        )
        world = World(cfg)
        report = world.run()
        assert all(row["messages"]["commitments"] > 0 for row in report.rows[1:])
        # Structural: nothing but share records and token ints is held.
        assert world.adversary.stolen_shares == {}
        assert world.adversary.stolen_tokens == {}

    def test_redeal_mail_to_last_epochs_occupant_stolen(self):
        # The redeal's shares go out before the epoch-2 hop, while the
        # epoch-1 occupant 2 still sits on its host and reads its mail.
        cfg = scenario(
            events=[{"epoch": 2, "kind": "redeal"}],
            epochs=2,
            adversary={
                "strategy": "scripted",
                "script": [{"epoch": 1, "compromise": [2]}],
            },
        )
        world = World(cfg)
        report = world.run()
        assert report.rows[2]["compromised"] == []
        assert 2 in world.adversary.stolen_shares[(2, 0)]

    def test_stolen_tokens_only_from_compromised(self):
        cfg = scenario(adversary={"strategy": "passive-stealer", "budget": 1})
        world = World(cfg)
        world.run()
        assert set(world.adversary.stolen_tokens) <= world.adversary.ever_compromised


class TestStolenShares:
    """What the adversary copies from a host is the host's own share, with
    the group facts of the round it was dealt in."""

    def test_departed_host_keeps_its_last_share(self, tmp_path):
        # 4 leaves at epoch 2, after its group's epoch-1 renewal; its
        # sibling 3 renews on without it. Occupied at epoch 3, host 4
        # still holds its epoch-1 share, and so does a restored world.
        cfg = scenario(
            tree=spec_dict([[[], []], []]),
            events=[{"epoch": 2, "kind": "leave", "user": 4}],
            epochs=3,
            adversary={
                "strategy": "scripted",
                "script": [{"epoch": 3, "compromise": [4]}],
            },
        )
        world = World(cfg)
        world.initial_deal()
        world.step_epoch()
        held = held_share(world, 4)
        world.step_epoch()
        world.step_epoch()
        assert world.shares[3].epoch == 3
        assert world.shares[4].epoch == 1
        stolen = world.adversary.stolen_shares
        assert {key: list(copies) for key, copies in stolen.items()} == {(1, 1): [4]}
        assert (stolen[(1, 1)][4].eval_point, stolen[(1, 1)][4].value) == held
        assert world_facts(restored(world, tmp_path)) == world_facts(world)

    def test_older_round_judged_with_its_own_group_facts(self):
        # Round 1: root group {1, 2, 3} at threshold 2, and 1 is split over
        # its child 4. After 1 leaves and the server redeals, round 2's root
        # group {2, 3} has threshold 1 and no user is split. The
        # round-1 copies of 1 and 2 give one contribution of two needed.
        # The adversary leaves at epoch 1, before the redeal's mail.
        cfg = scenario(
            tree=spec_dict([[[]], [], []]),
            tf={"num": 1, "den": 2},
            events=[
                {"epoch": 2, "kind": "leave", "user": 1},
                {"epoch": 2, "kind": "redeal"},
            ],
            epochs=2,
            adversary={
                "strategy": "scripted",
                "budget": 2,
                "script": [{"epoch": 0, "compromise": [1, 2]}],
            },
        )
        world = World(cfg)
        report = world.run()
        assert world.round_id == 2
        assert world.shares[2].threshold == 1
        assert world.dealer.split == frozenset()
        stolen = world.adversary.stolen_shares
        assert list(stolen) == [(1, 0)]
        assert [(c.threshold, c.split) for _uid, c in sorted(stolen[(1, 0)].items())] == [
            (2, True), (2, False)
        ]
        assert report.final["secret_recovered_by_adversary"] is False


class TestMobileAdversary:
    def test_budget_below_threshold_never_reconstructs_with_renewal(self):
        # Root group of 3, threshold 2: budget 1 stays below every quorum.
        cfg = scenario(
            epochs=10,
            adversary={"strategy": "passive-stealer", "budget": 1},
        )
        report = World(cfg).run()
        assert all(not row["adversary_can_reconstruct"] for row in report.rows)
        assert report.final["secret_recovered_by_adversary"] is False

    def test_single_group_targeted_stays_blind_each_epoch(self):
        # One sibling group of 3 (threshold 2, k=1) under node 1; budget 1
        # aimed squarely at that group never closes, epoch after epoch.
        cfg = scenario(
            tree=spec_dict([[[], [], []]]),
            epochs=10,
            adversary={
                "strategy": "passive-stealer",
                "budget": 1,
                "targets": [2, 3, 4],
            },
        )
        report = World(cfg).run()
        assert all(not row["adversary_can_reconstruct"] for row in report.rows)

    def test_same_adversary_without_renewal_accumulates_and_wins(self):
        cfg = scenario(
            epochs=10,
            renewal_enabled=False,
            adversary={"strategy": "passive-stealer", "budget": 1},
        )
        report = World(cfg).run()
        assert report.final["secret_recovered_by_adversary"] is True
        assert any(row["adversary_can_reconstruct"] for row in report.rows)

    def test_over_budget_single_epoch_wins_without_renewal(self):
        # Threshold 2, budget 2 = k+1: one epoch suffices when shares
        # never refresh.
        cfg = scenario(
            epochs=1,
            renewal_enabled=False,
            adversary={"strategy": "passive-stealer", "budget": 2},
        )
        report = World(cfg).run()
        assert report.final["secret_recovered_by_adversary"] is True


class TestAdversaryStrategies:
    def _curve_cfg(self, **kw):
        base = dict(
            field_mode="curve-order",
            curve="toy",
            field_prime=None,
            eval_mode="round-key",
            secret="3",
        )
        base.update(kw)
        return scenario(**base)

    def test_active_corruptor_convicted(self):
        # Node 1 has 3 children, threshold 2, k=1: all 3 honest children
        # claim, 3 >= n-k = 2.
        cfg = self._curve_cfg(
            tree=spec_dict([[[], [], []]]),
            tf={"num": 2, "den": 3},
            epochs=2,
            adversary={"strategy": "active-corruptor", "budget": 1, "targets": [1]},
        )
        report = World(cfg).run()
        row = report.rows[1]
        assert row["verdicts"] == [
            {"accused": 1, "outcome": "accused-compromised", "claims": 3,
             "claimers": [2, 3, 4]}
        ]
        assert row["cleansed"] == [1]
        assert report.final["reconstruction_correct"] is True

    def test_false_claimer_alone_blamed(self):
        cfg = self._curve_cfg(
            tree=spec_dict([[], [], [], []]),
            tf={"num": 1, "den": 2},
            epochs=1,
            adversary={"strategy": "false-claimer", "budget": 1, "targets": [2]},
        )
        report = World(cfg).run()
        row = report.rows[1]
        # n=4, threshold 2, k=1: one claim < n-k = 3.
        assert row["verdicts"] == [
            {"accused": 0, "outcome": "claimers-compromised", "claims": 1,
             "claimers": [2]}
        ]
        assert report.final["reconstruction_correct"] is True

    def test_scripted_exact_boundary_convicts_accused(self):
        # Group of 5 under node 1, TF 3/5: threshold 3, k=2, n-k=3.
        cfg = self._curve_cfg(
            tree=spec_dict([[[], [], [], [], []]]),
            tf={"num": 3, "den": 5},
            epochs=1,
            adversary={
                "strategy": "scripted",
                "script": [
                    {"epoch": 1, "compromise": [1],
                     "tamper": [{"parent": 1, "children": [2, 3, 4]}]},
                ],
            },
        )
        report = World(cfg).run()
        row = report.rows[1]
        assert row["verdicts"] == [
            {"accused": 1, "outcome": "accused-compromised", "claims": 3,
             "claimers": [2, 3, 4]}
        ]

    def test_scripted_one_below_boundary_blames_claimers(self):
        """A parent that tampers with fewer than n - k of its children gets
        the honest claimers convicted instead, is never cleansed, and holds
        its group at epoch 0 while the root group renews every epoch."""
        epochs = 4
        cfg = self._curve_cfg(
            tree=spec_dict([[[], [], [], [], []]]),
            tf={"num": 3, "den": 5},
            epochs=epochs,
            adversary={
                "strategy": "scripted",
                "script": [
                    {"epoch": epoch, "compromise": [1],
                     "tamper": [{"parent": 1, "children": [2, 3]}]}
                    for epoch in range(1, epochs + 1)
                ],
            },
        )
        world = World(cfg)
        world.initial_deal()
        for epoch in range(1, epochs + 1):
            row = world.step_epoch()
            assert row["verdicts"] == [
                {"accused": 1, "outcome": "claimers-compromised", "claims": 2,
                 "claimers": [2, 3]}
            ]
            assert row["cleansed"] == []
            assert row["compromised"] == [1]
            # The tampered subtree's renewal is discarded every epoch.
            assert {world.shares[u].epoch for u in (2, 3, 4, 5, 6)} == {0}
            assert world.shares[1].epoch == epoch

    def test_scripted_false_claims_at_the_boundary_convict_an_honest_parent(self):
        # Group of 5 under node 1, TF 3/5: n - k = 3 occupied children
        # accuse their parent, which is honest and unoccupied.
        cfg = self._curve_cfg(
            tree=spec_dict([[[], [], [], [], []]]),
            tf={"num": 3, "den": 5},
            epochs=1,
            adversary={
                "strategy": "scripted",
                "budget": 3,
                "script": [
                    {"epoch": 1, "compromise": [2, 3, 4],
                     "false_claims": [{"accused": 1, "claimers": [2, 3, 4]}]},
                ],
            },
        )
        report = World(cfg).run()
        row = report.rows[1]
        assert row["claims"] == 3
        assert row["verdicts"] == [
            {"accused": 1, "outcome": "accused-compromised", "claims": 3,
             "claimers": [2, 3, 4]}
        ]
        assert row["cleansed"] == []
        assert row["compromised"] == [2, 3, 4]
        assert report.final["reconstruction_correct"] is True

    def test_a_departed_host_files_no_claim(self):
        """The administrator hears claims from members alone: of three
        scripted false claimers, the one that left this epoch files
        nothing, whatever the strategy that planned its claim."""
        cfg = self._curve_cfg(
            tree=spec_dict([[[], [], [], [], []]]),
            tf={"num": 3, "den": 5},
            epochs=1,
            events=[{"epoch": 1, "kind": "leave", "user": 2}],
            adversary={
                "strategy": "scripted",
                "budget": 3,
                "script": [
                    {"epoch": 1, "compromise": [2, 3, 4],
                     "false_claims": [{"accused": 1, "claimers": [2, 3, 4]}]},
                ],
            },
        )
        row = World(cfg).run().rows[1]
        assert row["claims"] == 2
        assert [verdict["claimers"] for verdict in row["verdicts"]] == [[3, 4]]
        assert row["messages"]["claim"] == 2

    def test_perturb_hook_changes_only_the_delta_of_a_copy(self):
        cfg = self._curve_cfg(
            tree=spec_dict([[[], []], []]),
            adversary={"strategy": "active-corruptor", "budget": 1, "targets": [1]},
        )
        world = World(cfg)
        world.initial_deal()
        perturb, _claims = adversary_act(world.tree, world.shares, adversary_plan(cfg, 1))
        rng = random.Random(4)
        group = world.shares[3]
        original = renewal_bundles(world.tree, group, [3, 4], rng)[0]
        before = tuple(original)
        assert original.commitments

        tampered = perturb(original)
        assert type(tampered) is RenewalBundle and tampered is not original
        assert tampered.delta == (original.delta + 1) % world.tree.field.modulus
        assert tampered._replace(delta=original.delta) == original
        assert tuple(original) == before
        # The root's bundles are not the occupied parent's to tamper with.
        root = world.shares[1]
        honest = renewal_bundles(world.tree, root, [1, 2], rng)[0]
        assert perturb(honest) is honest


def reference_occupied(adversary, tree, epoch):
    """The occupied set as the hop chose it before every strategy was a
    plan: scripted sets verbatim, other strategies rotating through the
    targets (or every node) by epoch."""
    if adversary.strategy == "scripted":
        return set(reference_script_for_epoch(adversary, epoch)["compromise"])
    pool = list(adversary.targets) or sorted(tree.nodes)
    width = min(adversary.budget, len(pool))
    return {pool[(epoch * width + i) % len(pool)] for i in range(width)}


def reference_script_for_epoch(adversary, epoch):
    merged = {"compromise": [], "tamper": [], "false_claims": []}
    for entry in adversary.script:
        if entry["epoch"] != epoch:
            continue
        for key, items in merged.items():
            items.extend(entry.get(key, []))
    return merged


def reference_act(adversary, occupied, tree, shares, epoch):
    """The tampered (parent, child) pairs and the (claimer, accused) claims
    of the per-strategy branches before every strategy was a plan. The
    scripted branch filed every claim; the filter that every claim now
    passes (an active claimer that holds a share) is applied on top."""
    pairs, claims = set(), []
    if adversary.strategy == "active-corruptor":
        for parent in occupied:
            pairs.update((parent, child) for child in tree.active_children(parent))
    elif adversary.strategy == "false-claimer":
        for uid in sorted(occupied):
            if uid in tree.nodes and tree.nodes[uid].active and uid in shares:
                claims.append((uid, tree.nodes[uid].parent))
    elif adversary.strategy == "scripted":
        entry = reference_script_for_epoch(adversary, epoch)
        for tam in entry["tamper"]:
            for child in tam["children"] or tree.active_children(tam["parent"]):
                pairs.add((tam["parent"], child))
        for fc in entry["false_claims"]:
            claims.extend((claimer, fc["accused"]) for claimer in fc["claimers"])
        claims = [(c, a) for c, a in claims if tree.nodes[c].active and c in shares]
    return pairs, claims


def random_adversary(rng, strategy, parents, epochs):
    """A valid adversary section: budget 0-3, targets with repeats or none,
    and for ``scripted`` one to two entries per epoch whose tampers and
    false claims sit on that epoch's hosts, in any of its entries."""
    n = len(parents)
    budget = rng.randint(0, 3)
    adversary = {"strategy": strategy, "budget": budget}
    if strategy != "scripted":
        if rng.random() < 0.6:
            adversary["targets"] = [rng.randint(1, n) for _ in range(rng.randint(1, 6))]
        return adversary
    script = []
    for epoch in range(epochs + 1):
        hosts = rng.sample(range(1, n + 1), min(n, rng.randint(0, budget or 4)))
        entries = [{"epoch": epoch, "compromise": hosts[: rng.randint(0, len(hosts))]}]
        entries.append({"epoch": epoch, "compromise": hosts[len(entries[0]["compromise"]):]})
        for host in hosts:
            kids = [uid for uid in range(1, n + 1) if parents[uid - 1] == host]
            if kids and rng.random() < 0.5:
                tamper = {"parent": host, "children": rng.sample(kids, rng.randint(0, len(kids)))}
                rng.choice(entries).setdefault("tamper", []).append(tamper)
        for accused in sorted({parents[host - 1] for host in hosts}):
            claimers = [host for host in hosts if parents[host - 1] == accused]
            if rng.random() < 0.6:
                claim = {"accused": accused, "claimers": rng.sample(claimers, rng.randint(1, len(claimers)))}
                rng.choice(entries).setdefault("false_claims", []).append(claim)
        script.extend(entry for entry in entries if len(entry) > 2 or entry["compromise"])
    rng.shuffle(script)
    adversary["script"] = script
    return adversary


def tampered_pairs(perturb, tree):
    """The (parent, child) bundles that ``perturb`` changes."""
    if perturb is None:
        return set()
    pairs = set()
    for uid, node in tree.nodes.items():
        bundle = RenewalBundle(node.parent, uid, 0, ())
        if perturb(bundle) is not bundle:
            pairs.add((node.parent, uid))
    return pairs


class TestAdversaryPlan:
    """``config.adversary_plan`` against the rotation and per-strategy
    branches it replaced, on dealt worlds where some hosts have left and
    one may have rejoined without a share."""

    STRATEGIES = ["passive-stealer", "active-corruptor", "false-claimer", "scripted"]

    @staticmethod
    def configs(strategy):
        """100 seeded scenarios of ``strategy``: (rng, parents, cfg), the
        rng left where the scenario's draws end."""
        for seed in range(100):
            rng = random.Random(f"{strategy}-{seed}")
            tree = spec_dict(random_tree_spec(rng, max_depth=3, max_fanout=4))
            parents = tuple(parent for _uid, parent in expand_tree(tree))
            epochs = rng.randint(0, 5)
            yield rng, parents, scenario(
                tree=tree, epochs=epochs, seed=str(seed),
                adversary=random_adversary(rng, strategy, parents, epochs),
            )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_tamper_parent_is_compromised(self, strategy):
        """The invariant that lets the tamper hook skip an occupancy check:
        each epoch's tamper parents are among that plan's hosts."""
        tampers = 0
        for _rng, _parents, cfg in self.configs(strategy):
            for epoch in range(cfg.epochs + 1):
                plan = adversary_plan(cfg, epoch)
                assert {tam["parent"] for tam in plan["tamper"]} <= set(plan["compromise"])
                tampers += len(plan["tamper"])
        if strategy in ("active-corruptor", "scripted"):
            assert tampers > 50

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_plan_matches_the_reference(self, strategy):
        seen = Counter()
        for rng, parents, cfg in self.configs(strategy):
            epochs = cfg.epochs
            world = World(cfg)
            world.initial_deal()
            for uid in rng.sample(sorted(world.tree.nodes), min(3, len(parents))):
                if world.tree.nodes[uid].active and rng.random() < 0.5:
                    world.tree.leave(uid)
                    if world.tree.is_active(parents[uid - 1]) and rng.random() < 0.3:
                        world.tree.rejoin(uid, rng)
                        world.shares.pop(uid, None)
            for epoch in range(epochs + 1):
                plan = adversary_plan(cfg, epoch)
                occupied = reference_occupied(cfg.adversary, world.tree, epoch)
                assert plan["compromise"] == sorted(occupied)
                world.adversary.occupied = occupied
                perturb, claims = adversary_act(world.tree, world.shares, plan)
                pairs, expected = reference_act(cfg.adversary, occupied, world.tree, world.shares, epoch)
                assert tampered_pairs(perturb, world.tree) == pairs
                assert [(claim.claimer, claim.accused) for claim in claims] == expected
                seen.update(hosts=len(occupied), pairs=len(pairs), claims=len(claims))
        # Every check above had something to compare.
        assert seen["hosts"] > 100
        if strategy in ("active-corruptor", "scripted"):
            assert seen["pairs"] > 100
        if strategy in ("false-claimer", "scripted"):
            assert seen["claims"] > 50


class TestEvents:
    def test_leave_event_reflected(self):
        cfg = scenario(
            tree=spec_dict([[[], []], [], []]),
            events=[{"epoch": 2, "kind": "leave", "user": 1}],
        )
        world = World(cfg)
        report = world.run()
        assert not world.tree.nodes[1].active
        assert "leave:1:deactivated=3" in report.rows[2]["events"]
        # Root group threshold 2 of the remaining level-1 users still holds.
        assert report.final["reconstruction_correct"] is True

    def test_herzberg_count_follows_the_active_membership(self):
        cfg = scenario(
            tree=spec_dict([[[], []], [], []]),
            events=[{"epoch": 2, "kind": "leave", "user": 1}],
        )
        report = World(cfg).run()
        # n(n - 1) with n the active users plus the server: 5 users, then 2
        # after 1 leaves with its two children.
        assert [row["herzberg_all_pairs"] for row in report.rows] == [30, 30, 6, 6, 6, 6]

    def test_leave_then_rejoin_then_redeal(self):
        cfg = scenario(
            tree=spec_dict([[[], []], [], []]),
            events=[
                {"epoch": 1, "kind": "leave", "user": 1},
                {"epoch": 3, "kind": "rejoin", "user": 1},
                {"epoch": 3, "kind": "redeal"},
            ],
            epochs=4,
        )
        world = World(cfg)
        report = world.run()
        assert world.tree.nodes[1].active
        assert report.final["reconstruction_correct"] is True
        assert any("redeal" in note for note in report.rows[3]["events"])

    def test_rejoin_without_redeal_holds_no_share_until_the_next_deal(self):
        # A fresh member's slot must not keep the departed member's
        # epoch-1 record, or epoch 2's root-group renewal mixes epochs.
        cfg = scenario(
            tree=spec_dict([[], [], [], []]),
            tf={"num": 1, "den": 2},
            events=[
                {"epoch": 1, "kind": "leave", "user": 3},
                {"epoch": 2, "kind": "rejoin", "user": 3},
            ],
            epochs=3,
        )
        world = World(cfg)
        report = world.run()
        assert world.tree.nodes[3].active
        assert 3 not in world.shares
        assert {rec.epoch for rec in world.shares.values()} == {3}
        assert all(row["secret_intact"] for row in report.rows)
        assert report.final["reconstruction_correct"] is True

    def test_an_empty_holders_view_sends_nothing(self):
        """Both level-1 users leave at epoch 1, so no active user holds a
        share: every later epoch renews no group, sends no message of any
        kind, and drops the false claimers' claims."""
        cfg = scenario(
            tree=spec_dict([[[], []], [[]]]),
            events=[
                {"epoch": 1, "kind": "leave", "user": 1},
                {"epoch": 1, "kind": "leave", "user": 2},
            ],
            adversary={"strategy": "false-claimer", "budget": 2},
            epochs=3,
        )
        rows = World(cfg).run().rows
        assert rows[1]["messages"] == {"leave": 2}
        assert [(row["messages"], row["claims"]) for row in rows[2:]] == [({}, 0)] * 2

    def test_mid_round_leave_abort_policy(self):
        cfg = scenario(
            tree=spec_dict([[], [], []]),
            events=[{"epoch": 0, "kind": "leave", "user": 3, "mid_round": True}],
            leave_policy="abort",
            epochs=1,
        )
        world = World(cfg)
        world.run()
        # Aborted: the leaver never received a share.
        assert 3 not in world.shares
        assert sorted(world.shares) == [1, 2]

    def test_mid_round_leave_finish_policy(self):
        cfg = scenario(
            tree=spec_dict([[], [], []]),
            events=[{"epoch": 0, "kind": "leave", "user": 3, "mid_round": True}],
            leave_policy="finish",
            epochs=1,
        )
        world = World(cfg)
        world.run()
        # Finished: dealt to pre-leave membership, then deactivated.
        assert 3 in world.shares
        assert not world.tree.nodes[3].active


class TestEpochZeroEvents:
    """Epoch 0 runs its events like any other epoch, ending in the deal,
    and row 0 lists them."""

    def test_leave_and_rejoin_before_the_deal(self):
        # 2 -> {4}: the leave deactivates 2 and 4, the rejoin restores both.
        cfg = scenario(
            tree=spec_dict([[], [[]], []]),
            events=[
                {"epoch": 0, "kind": "leave", "user": 2},
                {"epoch": 0, "kind": "rejoin", "user": 2},
            ],
        )
        world = World(cfg)
        world.initial_deal()
        assert world.tree.nodes[2].active
        assert sorted(world.shares) == [1, 2, 3, 4]
        assert world.report.rows[0]["events"] == [
            "leave:2:deactivated=2", "rejoin:2", "deal:round=1"
        ]

    def test_mid_round_leave_listed(self):
        cfg = scenario(
            events=[{"epoch": 0, "kind": "leave", "user": 3, "mid_round": True}],
            leave_policy="abort",
        )
        world = World(cfg)
        world.initial_deal()
        assert world.report.rows[0]["events"] == ["leave:3:mid-round", "deal:round=2"]

    def test_redeal_deals_once(self):
        world = World(scenario(events=[{"epoch": 0, "kind": "redeal"}]))
        world.initial_deal()
        row = world.report.rows[0]
        assert world.round_id == 1
        assert row["messages"]["share"] == 3
        assert row["events"] == ["deal:round=1"]

    def test_rejoin_of_an_occupied_slot_refused(self):
        world = World(scenario(events=[{"epoch": 0, "kind": "rejoin", "user": 2}]))
        with pytest.raises(PositionOccupied) as info:
            world.initial_deal()
        assert isinstance(info.value, HierShareError)


class TestLoadAndDealCost:
    @pytest.mark.parametrize(
        "overrides, tests_per_load",
        [
            # The field prime, once.
            ({}, 1),
            # validate_curve's p, then its order, whose test builds the field.
            ({"field_mode": "curve-order", "curve": "toy", "field_prime": None, "eval_mode": None}, 2),
        ],
    )
    def test_primality_tests_per_scenario_load(self, monkeypatch, overrides, tests_per_load):
        calls = []
        original = algebra.is_prime

        def counting(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(algebra, "is_prime", counting)
        monkeypatch.setattr(curve, "is_prime", counting)
        world = World(scenario(**overrides))
        assert len(calls) == tests_per_load
        world.initial_deal()
        calls.clear()
        world_from_dict(world_to_dict(world))
        assert len(calls) == tests_per_load

    def test_deal_and_redeal_walk_no_levels(self, monkeypatch):
        levels = self.count_calls(monkeypatch, "levels")
        world = World(scenario(events=[{"epoch": 2, "kind": "redeal"}]))
        world.initial_deal()
        world.step_epoch()
        world.step_epoch()
        assert world.report.rows[2]["events"] == ["redeal:round=2"]
        assert levels == []

    def test_quiet_epoch_scans_no_active_users(self, monkeypatch):
        world = World(scenario())
        world.initial_deal()
        scans = self.count_calls(monkeypatch, "active_users")
        world.step_epoch()
        assert world.report.rows[1]["events"] == []
        assert world.report.rows[1]["secret_intact"]
        assert scans == []

    def count_calls(self, monkeypatch, method):
        """Record each call of a ``HierarchyTree`` method. ``active_users``,
        a sorted scan of every node, lives in the tests only, so it is
        installed for the count: a package call to it would show here."""
        calls = []
        original = getattr(HierarchyTree, method, None) or {"active_users": active_users}[method]

        def counting(tree, *args):
            calls.append(args)
            return original(tree, *args)

        monkeypatch.setattr(HierarchyTree, method, counting, raising=False)
        return calls

    # Users 1-3 at level 1; 1 -> {4, 5}, 2 -> {6, 7}, 6 -> {8}: four
    # sibling groups, under 0, 1, 2 and 6.
    FOUR_GROUPS = spec_dict([[[], []], [[[]], []], []])

    def test_deal_reads_the_group_view(self, monkeypatch):
        active_children = self.count_calls(monkeypatch, "active_children")
        world = World(scenario(tree=self.FOUR_GROUPS))
        world.initial_deal()
        assert world.report.rows[0]["messages"]["reqm"] == 8
        assert active_children == []

    def test_curve_deal_multiplies_only_the_base_point(self, monkeypatch):
        # Group keys and every round key read the base-point table; any
        # other point's multiple (here a group key's) is a Straus pass.
        config = scenario(
            field_mode="curve-order", curve="standard", field_prime=None,
            eval_mode=None, tree=self.FOUR_GROUPS,
        )
        passes = []
        original = curve._straus

        def counting(terms, params):
            passes.append(len(terms))
            return original(terms, params)

        monkeypatch.setattr(curve, "_straus", counting)
        world = World(config)
        world.initial_deal()
        assert len(world.shares) == 8
        assert passes == []
        curve.scalar_mul(3, world.tree.nodes[1].group_key)
        assert passes == [1]

    @pytest.mark.parametrize("curved", [False, True])
    def test_leaves_and_deals_scan_no_active_users(self, monkeypatch, curved):
        # Epoch 1: a leave, then a redeal; epoch 2: a mid-round leave that
        # aborts one round. On a curve every round broadcasts its key.
        overrides = {"field_mode": "curve-order", "curve": "standard",
                     "field_prime": None, "eval_mode": None} if curved else {}
        scans = self.count_calls(monkeypatch, "active_users")
        world = World(scenario(
            tree=self.FOUR_GROUPS, epochs=2, leave_policy="abort", events=[
                {"epoch": 1, "kind": "leave", "user": 5},
                {"epoch": 1, "kind": "redeal"},
                {"epoch": 2, "kind": "leave", "user": 7, "mid_round": True},
            ], **overrides,
        ))
        rows = world.run().rows
        assert [row["messages"].get("leave", 0) for row in rows] == [0, 1, 1]
        assert [row["messages"].get("round-key", 0) for row in rows] == (
            [1, 1, 2] if curved else [0, 0, 0]
        )
        assert [row["messages"]["reqm"] for row in rows] == [8, 7, 6]
        assert scans == []

    def test_one_send_per_batch(self, monkeypatch):
        # Hosts 6 and 2 are occupied from the epoch-0 hop to the epoch-1
        # hop, so the epoch-1 redeal's shares meet them; the renewal that
        # follows sends one batch per message kind, on a curve the
        # commitments first. A renewal epoch of scale-nocurve's 341 groups
        # sends its 1,364 deltas in one call.
        calls = []
        original = World.send

        def recording(world, kind, count=1):
            calls.append((kind, count))
            original(world, kind, count)

        monkeypatch.setattr(World, "send", recording)
        for curved in (False, True):
            overrides = {"field_mode": "curve-order", "curve": "standard",
                         "field_prime": None, "eval_mode": None} if curved else {}
            world = World(scenario(
                tree=self.FOUR_GROUPS, events=[{"epoch": 1, "kind": "redeal"}],
                adversary={"strategy": "scripted", "budget": 2,
                           "script": [{"epoch": 0, "compromise": [6, 2]}]},
                **overrides,
            ))
            calls.clear()
            world.initial_deal()
            deal = ([("round-key", 1)] if curved else []) + [("reqm", 8), ("share", 8)]
            assert calls == deal
            calls.clear()
            row = world.step_epoch()
            renewal = ([("commitments", 4)] if curved else []) + [("renewal-delta", 8)]
            assert calls == deal + renewal
            assert row["messages"] == dict(sorted(deal + renewal))
            assert sorted(world.adversary.stolen_shares[(2, 0)]) == [2, 6]
        world = World(parse_scenario(benchmark_workloads().scale_nocurve(1)))
        world.initial_deal()
        calls.clear()
        world.step_epoch()
        assert calls == [("renewal-delta", 1364)]

    def test_one_group_view_per_epoch(self, monkeypatch):
        """Renewal changes neither the holders nor the membership, so an
        epoch with no event keeps the world's view and builds none. A
        dealing epoch (0, and the epoch-2 redeal) builds only the deal's
        view of every active user, which is its holders' view too. The
        final check reads the kept view."""
        views = self.count_calls(monkeypatch, "groups")
        world = World(scenario(
            tree=self.FOUR_GROUPS, epochs=3, events=[{"epoch": 2, "kind": "redeal"}],
        ))
        per_epoch = []
        for step in [world.initial_deal] + [world.step_epoch] * 3 + [world.finalize]:
            views.clear()
            step()
            per_epoch.append([len(args) for args in views])
        assert per_epoch == [[0], [], [0], [], []]
        assert world.report.rows[2]["events"] == ["redeal:round=2"]
        assert all(row["secret_intact"] for row in world.report.rows)

    @pytest.mark.parametrize("policy, built", [("abort", [0]), ("finish", [0, 1])])
    def test_mid_round_leave_epoch_view(self, monkeypatch, policy, built):
        """An 'abort' leave comes before the deal, so its epoch reuses the
        deal's view. A 'finish' leave of user 7 follows the deal, so its
        epoch builds the holders' view again after the leave: the renewal
        reaches the 7 members left. Either way the report equals a run
        that builds the holders' view in every epoch."""
        config = scenario(tree=self.FOUR_GROUPS, epochs=2, leave_policy=policy, events=[
            {"epoch": 2, "kind": "leave", "user": 7, "mid_round": True},
        ])
        original = World.deal

        def viewless(world, mid_round_leaves=()):
            original(world, mid_round_leaves)
            world.view = None

        monkeypatch.setattr(World, "deal", viewless)
        rebuilt = World(config).run(drop_view_and_form)
        monkeypatch.setattr(World, "deal", original)
        world = World(config)
        world.initial_deal()
        world.step_epoch()
        views = self.count_calls(monkeypatch, "groups")
        row = world.step_epoch()
        assert [len(args) for args in views] == built
        assert row["messages"]["renewal-delta"] == 7
        assert row["secret_intact"]
        world.finalize()
        assert canonical(world.report) == canonical(rebuilt)

    @pytest.mark.parametrize("events, built", [
        ([{"epoch": 1, "kind": "leave", "user": 2}, {"epoch": 2, "kind": "rejoin", "user": 2}], [1]),
        ([{"epoch": 2, "kind": "leave", "user": 7}], [1]),
        ([{"epoch": 2, "kind": "leave", "user": 7, "mid_round": True}], [0, 1]),
    ], ids=["rejoin", "leave", "finish-mid-round-leave"])
    def test_event_epoch_builds_the_view_again(self, monkeypatch, events, built):
        """An epoch-2 event changes who is active or holds a share, so that
        epoch builds its holders' view again (after the deal's, for a
        'finish' leave), and quiet epoch 3 keeps it. The rejoin of 2 brings
        6, 7 and 8 back with their shares. The report equals a run that
        builds the view and the intact form in every epoch."""
        config = scenario(tree=self.FOUR_GROUPS, epochs=3, leave_policy="finish", events=events)
        rebuilt = World(config).run(drop_view_and_form)
        world = World(config)
        world.initial_deal()
        world.step_epoch()
        views = self.count_calls(monkeypatch, "groups")
        per_epoch = []
        for _ in range(2):
            views.clear()
            world.step_epoch()
            per_epoch.append([len(args) for args in views])
        assert per_epoch == [built, []]
        world.finalize()
        assert canonical(world.report) == canonical(rebuilt)

    def test_renewal_epoch_asks_once_per_group(self, monkeypatch):
        world = World(scenario(tree=self.FOUR_GROUPS))
        world.initial_deal()
        active_children = self.count_calls(monkeypatch, "active_children")
        world.step_epoch()
        assert world.report.rows[1]["messages"]["renewal-delta"] == 8
        assert len(active_children) == 0


def world_facts(world):
    """Every attribute of a World, with its tree, dealer, adversary and
    report opened up field by field and its RNG read as its state."""
    facts = {}
    for name, value in vars(world).items():
        if name == "rng":
            value = value.getstate()
        elif name in ("tree", "dealer", "adversary", "report"):
            value = vars(value)
        facts[name] = value
    return facts


def edit_stolen_share(column, value):
    """A snapshot edit setting one column of the first stolen-share row."""
    return lambda body: body["adversary"]["stolen_shares"][0].__setitem__(column, value)


def restored(world, tmp_path):
    path = tmp_path / "w.snapshot"
    save_world(world, path)
    return load_world(path)


class TestRestore:
    """A world restored from a snapshot is the saved world, object by
    object, and runs on exactly as the saved one does."""

    CHURN = scenario(
        field_mode="curve-order",
        curve="toy",
        field_prime=None,
        eval_mode="round-key",
        secret="3",
        tree=spec_dict([[[], []], [], []]),
        epochs=6,
        events=[
            {"epoch": 1, "kind": "leave", "user": 1},
            {"epoch": 3, "kind": "rejoin", "user": 1},
            {"epoch": 4, "kind": "redeal"},
        ],
        adversary={
            "strategy": "scripted",
            "script": [
                {"epoch": 0, "compromise": [4]},
                {"epoch": 2, "compromise": [2]},
                {"epoch": 5, "compromise": [1],
                 "tamper": [{"parent": 1, "children": [4]}]},
            ],
        },
    )

    def test_restored_world_equals_the_saved_one(self, tmp_path):
        straight = World(self.CHURN)
        straight.initial_deal()
        while True:
            resumed = restored(straight, tmp_path)
            assert world_facts(resumed) == world_facts(straight)
            if straight.epoch == straight.config.epochs:
                break
            straight.step_epoch()
            resumed.step_epoch()
            assert world_facts(resumed) == world_facts(straight)
        assert straight.adversary.ever_compromised == {1, 2, 4}
        assert straight.tree.nodes[1].active
        assert straight.finalize() == resumed.finalize()

    def test_restored_run_hooks_only_the_boundaries_after_its_own(self, tmp_path):
        straight = World(self.CHURN).run()
        halted = World(self.CHURN)
        halted.initial_deal()
        halted.step_epoch()
        halted.step_epoch()
        resumed = restored(halted, tmp_path)
        reached = []
        assert resumed.run(lambda world: reached.append(world.epoch)) == straight
        assert reached == [3, 4, 5, 6]

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda body: body.update(epoch="2"), "epoch"),
            (lambda body: body.update(epoch=-1), "epoch"),
            (lambda body: body.update(epoch=6), "epoch"),
            (lambda body: body["shares"][0].update(threshold="2"), r"shares\[0\]\.threshold"),
            (lambda body: body["shares"][0].update(threshold=0), r"shares\[0\]\.threshold"),
            (lambda body: body["shares"][0].update(threshold=4), r"shares\[0\]\.threshold"),
            (lambda body: body["shares"][0].update(epoch="1"), r"shares\[0\]\.epoch"),
            (lambda body: body["shares"][0].update(epoch=3), r"shares\[0\]\.epoch"),
            (lambda body: body["shares"][0]["holders"].append(99), r"shares\[0\]\.holders"),
            (lambda body: body["shares"][0]["holders"].append(True), r"shares\[0\]\.holders"),
            (lambda body: body["shares"][0]["members"].append([99, "1", "1"]), r"shares\[0\]\.members"),
            (lambda body: body["tree"]["nodes"][0].update(deactivated_by="x"),
             r"tree\.nodes\[0\]\.deactivated_by"),
            (lambda body: body["tree"]["nodes"][0].update(deactivated_by=4),
             r"tree\.nodes\[0\]\.deactivated_by"),
            (lambda body: body["tree"]["nodes"][3].update(deactivated_by=2),
             r"tree\.nodes\[3\]\.deactivated_by"),
            (lambda body: body["tree"]["nodes"][5].update(deactivated_by=None),
             r"tree\.nodes\[5\]\.deactivated_by"),
            (lambda body: body["tree"].update(round_count="1"), r"tree\.round_count"),
            (lambda body: body["tree"].update(round_count=-1), r"tree\.round_count"),
            (lambda body: body["report_rows"][-1]["compromised"].append(99),
             r"report_rows\[-1\]\.compromised"),
            (lambda body: body["report_rows"][-1]["compromised"].append("1"),
             r"report_rows\[-1\]\.compromised"),
            (lambda body: body["dealer"]["split"].append(99), r"dealer\.split"),
            (lambda body: body["dealer"]["split"].append("1"), r"dealer\.split"),
        ],
        ids=[
            "epoch-string", "epoch-negative", "epoch-beyond-scenario",
            "threshold-string", "threshold-zero", "threshold-above-group",
            "group-epoch-string", "group-epoch-ahead", "holder-not-a-node",
            "holder-boolean", "member-not-a-node", "blocker-string",
            "blocker-a-descendant", "blocker-not-an-ancestor", "active-below-a-left-parent",
            "round-count-string",
            "round-count-negative", "occupied-not-a-node", "occupied-string",
            "split-not-a-node", "split-not-an-id",
        ],
    )
    def test_mistyped_or_dangling_field_is_refused(self, tmp_path, edit, field):
        """figure2-leave saved at epoch 2 (the server dealt its group to
        users 1-3, so a threshold of 4 is out of range; user 1 heads 4 and
        5, user 2 left with 6 and 7), one field edited and the checksum recomputed: the
        load names the field instead of letting the resumed run die on it
        or go on from a state no run can reach. The adversary's occupied
        hosts are read from the last report row's ``compromised``."""
        world = World(load_bundled_scenario("figure2-leave"))
        world.initial_deal()
        world.step_epoch()
        world.step_epoch()
        body = world_to_dict(world)
        edit(body)
        path = tmp_path / "w.snapshot"
        path.write_text(json.dumps({"body": body, "checksum": _checksum(body)}))
        with pytest.raises(CorruptSnapshot, match=field):
            load_world(path)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (edit_stolen_share(0, 0), r"adversary\.stolen_shares\[0\]\.round"),
            (edit_stolen_share(0, 50), r"adversary\.stolen_shares\[0\]\.round"),
            (edit_stolen_share(1, 3), r"adversary\.stolen_shares\[0\]\.epoch"),
            (edit_stolen_share(2, 99), r"adversary\.stolen_shares\[0\]\.owner"),
            (edit_stolen_share(2, 1), r"adversary\.stolen_shares\[0\]\.owner"),
            (edit_stolen_share(5, "2"), r"adversary\.stolen_shares\[0\]\.threshold"),
            (edit_stolen_share(5, 0), r"adversary\.stolen_shares\[0\]\.threshold"),
            (edit_stolen_share(6, "yes"), r"adversary\.stolen_shares\[0\]\.split"),
            (lambda body: body["adversary"]["stolen_tokens"].update({"99": "1"}),
             r"adversary\.stolen_tokens\['99'\]"),
            (lambda body: body["adversary"]["stolen_tokens"].update({"x": "1"}),
             r"adversary\.stolen_tokens\['x'\]"),
            (lambda body: body["adversary"]["stolen_tokens"].update({"4": "one"}),
             r"adversary\.stolen_tokens\['4'\]"),
            (lambda body: body["adversary"]["stolen_tokens"].update({"1": "9"}),
             r"adversary\.stolen_tokens\['1'\]"),
            (lambda body: body["report_rows"].pop(), r"report_rows"),
            (lambda body: body["report_rows"].append(body["report_rows"][-1]), r"report_rows"),
            (lambda body: body["report_rows"][1].update(epoch=2), r"report_rows\[1\]\.epoch"),
            (lambda body: body["report_rows"][1].update(epoch=True), r"report_rows\[1\]\.epoch"),
        ],
        ids=[
            "round-zero", "round-beyond-the-round-count", "share-epoch-ahead",
            "share-owner-not-a-node", "share-owner-never-compromised", "share-threshold-string",
            "share-threshold-zero", "split-string", "token-owner-not-a-node",
            "token-owner-not-a-decimal", "token-not-a-decimal", "token-owner-never-compromised",
            "report-row-missing", "report-row-extra",
            "report-row-out-of-order", "report-row-epoch-boolean",
        ],
    )
    def test_mistyped_or_dangling_stolen_state_is_refused(self, tmp_path, edit, field):
        """demo-7user saved at epoch 2 (round 1; the adversary holds the
        shares of 4, 5 and 6 and their tokens, and the report three rows),
        one field edited and the checksum recomputed: the load names the
        field instead of resuming from it. Users 1-3 are never compromised,
        so nothing of theirs can have been stolen."""
        world = World(load_bundled_scenario("demo-7user"))
        world.initial_deal()
        world.step_epoch()
        world.step_epoch()
        body = world_to_dict(world)
        edit(body)
        path = tmp_path / "w.snapshot"
        path.write_text(json.dumps({"body": body, "checksum": _checksum(body)}))
        with pytest.raises(CorruptSnapshot, match=field):
            load_world(path)

    @pytest.mark.parametrize(
        "scenario_name, edit, field",
        [
            ("demo-7user", lambda nodes: nodes[0].update(reg_token="0"), r"nodes\[0\]\.reg_token"),
            ("demo-7user", lambda nodes: nodes[0].update(reg_token=None), r"nodes\[0\]\.reg_token"),
            ("demo-7user", lambda nodes: nodes[0].update(reg_token="19"), r"nodes\[0\]\.reg_token"),
            ("figure2-leave", lambda nodes: nodes[1].update(reg_token="5"), r"nodes\[1\]\.reg_token"),
            ("figure2-leave", lambda nodes: nodes[0].update(reg_token=None), r"nodes\[0\]\.reg_token"),
            ("figure2-leave", lambda nodes: nodes[0].update(reg_token="101"), r"nodes\[0\]\.reg_token"),
        ],
        ids=[
            "token-zero", "token-null-with-a-key", "token-the-order",
            "no-curve-token-on-a-vacant-slot", "no-curve-token-null-on-an-occupied-slot",
            "no-curve-token-the-prime",
        ],
    )
    def test_token_or_group_key_that_misfits_its_slot_is_refused(
        self, tmp_path, scenario_name, edit, field
    ):
        """A scenario saved at epoch 2, one node edited and the checksum
        recomputed. demo-7user runs on the toy curve (order 19) with every
        user registered, node 1 holding token 9; figure2-leave has no curve
        (prime 101) and its user 2 left, so slot 2 is vacant. A token must
        be null exactly on a vacant slot and lie in 1..order-1 (1..p-1
        without a curve). No group key is stored: a restore computes each
        as token * G."""
        world = World(load_bundled_scenario(scenario_name))
        world.initial_deal()
        world.step_epoch()
        world.step_epoch()
        body = world_to_dict(world)
        edit(body["tree"]["nodes"])
        path = tmp_path / "w.snapshot"
        path.write_text(json.dumps({"body": body, "checksum": _checksum(body)}))
        with pytest.raises(CorruptSnapshot, match=r"tree\." + field):
            load_world(path)

    def test_siblings_share_one_record_after_renewal_and_restore(self, tmp_path):
        def records(world):
            by_record = {}
            for uid in sorted(world.shares):
                by_record.setdefault(id(world.shares[uid]), []).append(uid)
            return sorted(by_record.values())

        straight = World(self.CHURN)
        straight.initial_deal()
        for _ in range(2):
            straight.step_epoch()
        # 1 left at epoch 1, before renewal, taking 4 and 5 along: 1 keeps
        # the root group's epoch-0 record, 4 and 5 share theirs, and 2 and
        # 3 share the record renewed twice.
        assert records(straight) == [[1], [2, 3], [4, 5]]
        for kids in straight.tree.groups(straight.shares).values():
            assert all(straight.shares[kid] is straight.shares[kids[0]] for kid in kids)
        assert records(restored(straight, tmp_path)) == records(straight)

    def test_snapshot_naming_the_old_eval_mode_resumes(self, tmp_path):
        """Snapshots no longer write ``eval_mode``; one whose embedded
        scenario still names the rule its field mode implies loads and
        runs on as the straight run does."""
        straight = World(self.CHURN)
        straight.run()
        halted = World(self.CHURN)
        halted.initial_deal()
        for _ in range(3):
            halted.step_epoch()
        body = world_to_dict(halted)
        assert "eval_mode" not in body["scenario"]
        body["scenario"]["eval_mode"] = "round-key"
        path = tmp_path / "old.snapshot"
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        checksum = hashlib.sha256(canonical.encode()).hexdigest()
        path.write_text(json.dumps({"checksum": checksum, "body": body}))
        resumed = load_world(path)
        while resumed.epoch < resumed.config.epochs:
            resumed.step_epoch()
        resumed.finalize()
        assert resumed.report == straight.report

    ROTATION = scenario(
        tree=spec_dict([[[], []], [[]], []]),
        epochs=12,
        adversary={"strategy": "passive-stealer", "budget": 3, "targets": [5, 2, 6, 1, 4]},
    )

    def test_rotation_is_a_function_of_the_epoch(self, tmp_path):
        pool = [5, 2, 6, 1, 4]
        expected = [
            sorted(pool[(epoch * 3 + i) % 5] for i in range(3)) for epoch in range(13)
        ]
        straight = World(self.ROTATION)
        straight.run()
        assert [row["compromised"] for row in straight.report.rows] == expected

        halted = World(self.ROTATION)
        halted.initial_deal()
        for _ in range(7):
            halted.step_epoch()
        resumed = restored(halted, tmp_path)
        while resumed.epoch < resumed.config.epochs:
            resumed.step_epoch()
        assert resumed.report.rows == straight.report.rows


def drop_view_and_form(world):
    """Forget the intact form, and the holders' view before the last
    epoch, so each epoch builds both afresh; the final check reads the
    last epoch's view."""
    world.intact_form = None
    if world.epoch < world.config.epochs:
        world.view = None


def every_group_intact(world):
    """``World._reconstruct_all`` over the every-group reference climb on
    a holders' view built afresh, with no form kept: the intact check as
    earlier releases made it."""
    groups = world.tree.groups(world.shares)
    got = every_group_recover(world.tree, world.shares, groups, ROOT_ID, world.dealer.split)
    if isinstance(got, list):
        return False, str(sharing.InsufficientShares(*got[0]))
    return got == world.dealer.secret, ""


def count_calls(monkeypatch, module, name):
    """Record the arguments of each call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestIntactForm:
    """The intact check keeps its reconstruction form per (round, holders'
    view) and reads the used owners' values live each row, so a report
    equals one whose every row interpolates every group afresh, and no
    edit to a used share hides behind the kept form."""

    # 1 -> {4, 5}, 2 -> {6, 7}, 6 -> {8}; at tf 2/3 every group of two or
    # three has threshold 2, the root's too.
    TREE = spec_dict([[[], []], [[[]], []], []])
    QUIET = scenario(
        tree=TREE, field_prime="2305843009213693951", secret="123456789",
        renewal_enabled=False, epochs=3,
    )

    def edited(self, world, uid, point=None, value=None, threshold=None):
        """Replace ``uid``'s group record with one whose ``uid`` entry or
        threshold is changed, for every holder of the record."""
        record = world.shares[uid]
        x, y = record.members[uid]
        new = record._replace(
            members={**record.members, uid: (x if point is None else point, y if value is None else value)},
            threshold=record.threshold if threshold is None else threshold,
        )
        for member in record.members:
            world.shares[member] = new

    @pytest.mark.parametrize("edit", ["value", "point", "threshold"])
    def test_an_edited_used_holder_reads_not_intact(self, edit):
        world = World(self.QUIET)
        world.initial_deal()
        assert world.step_epoch()["secret_intact"]
        # User 1 is used, since the root picks 1 and 2. Its point is its id;
        # 50 collides with no sibling. Renewal is off, so without the
        # re-check a kept form would still read the old point's weights
        # and the old threshold's picks, and the values would fit them.
        assert 1 in world.intact_form.owners
        _x, y = held_share(world, 1)
        change = {
            "value": {"value": (y + 1) % world.config.field.modulus},
            "point": {"point": 50},
            "threshold": {"threshold": 1},
        }
        self.edited(world, 1, **change[edit])
        row = world.step_epoch()
        assert row["secret_intact"] is False
        assert world.finalize()["reconstruction_correct"] is False

    def test_leave_and_rejoin_without_redeal_rows_match_the_reference(self, monkeypatch):
        # A leave of leaf 5 starves group 1, so the root turns to 2 and 3;
        # the rejoined 5 holds no share, so the view stays; the leave of 3
        # starves the root, and the redeal restores it.
        config = scenario(tree=self.TREE, epochs=6, events=[
            {"epoch": 2, "kind": "leave", "user": 5},
            {"epoch": 3, "kind": "rejoin", "user": 5},
            {"epoch": 4, "kind": "leave", "user": 3},
            {"epoch": 6, "kind": "redeal"},
        ])
        builds = count_calls(monkeypatch, simnet, "reconstruction_form")
        kept = World(config).run()
        assert [row["secret_intact"] for row in kept.rows] == [True] * 4 + [False] * 2 + [True]
        # Epoch 0, the leave, then each short row and the redeal; the
        # rejoin and the final check reuse the form.
        assert len(builds) == 1 + 1 + 2 + 1
        monkeypatch.setattr(World, "_reconstruct_all", every_group_intact)
        assert canonical(kept) == canonical(World(config).run())

    def test_one_form_per_round_and_view(self, monkeypatch):
        """A static tree builds one form per run; each deal or change of
        the holders' view adds one."""
        builds = count_calls(monkeypatch, simnet, "reconstruction_form")
        World(scenario(tree=self.TREE, epochs=4)).run()
        assert len(builds) == 1
        builds.clear()
        World(scenario(tree=self.TREE, epochs=4, events=[
            {"epoch": 1, "kind": "redeal"},
            {"epoch": 2, "kind": "leave", "user": 7},
            {"epoch": 3, "kind": "redeal"},
        ])).run()
        assert len(builds) == 4

    @pytest.mark.parametrize(
        "name, builds, weights",
        [("scale-nocurve", 1, 121), ("churn-redeal", 41, 4571)],
    )
    def test_benchmark_runs_interpolate_only_needed_groups(self, monkeypatch, name, builds, weights):
        """scale-nocurve's 1,364-user tree at seed 1 builds its form once:
        its 121 interpolations are the groups on the chosen paths (1 + 3 +
        9 + 27 + 81 of 341, over 363 owners). churn-redeal builds one per
        deal."""
        built = count_calls(monkeypatch, simnet, "reconstruction_form")
        interpolated = count_calls(monkeypatch, sharing, "lagrange_weights")
        world = World(parse_scenario(getattr(benchmark_workloads(), name.replace("-", "_"))(1)))
        world.run()
        assert (len(built), len(interpolated)) == (builds, weights)
        if name == "scale-nocurve":
            assert len(world.intact_form.owners) == 363
        assert world.report.final["reconstruction_correct"]


def all_slices_can_reconstruct(world):
    """Reference adversary check: every (round, epoch) slice of the stolen
    shares judged afresh by the knowledge closure."""
    slices = world.adversary.stolen_shares.values()
    return any(knowledge_closure(world.tree, members) for members in slices)


class TestAdversaryCheck:
    """A row judges again only the stolen slices that gained a copy since
    the last row, and keeps the last row's verdict for the rest."""

    def test_random_scenarios_match_the_all_slices_reference(self):
        rng = random.Random(35)
        verdicts = Counter()
        for _ in range(40):
            epochs = rng.randint(2, 6)
            config = scenario(
                tree=spec_dict(random_tree_spec(rng, max_depth=3, max_fanout=4)),
                tf={"num": rng.randint(1, 3), "den": 3},
                renewal_enabled=rng.random() < 0.5,
                epochs=epochs,
                seed=str(rng.getrandbits(32)),
                events=[{"epoch": e, "kind": "redeal"} for e in range(1, epochs + 1) if rng.random() < 0.3],
                adversary={"strategy": "passive-stealer", "budget": rng.randint(1, 4)},
            )

            def judged(world):
                assert world.grown_slices == set()
                expected = all_slices_can_reconstruct(world)
                assert world.report.rows[-1]["adversary_can_reconstruct"] is expected
                verdicts[expected] += 1

            world = World(config)
            world.run(on_boundary=judged)
            assert world.report.final["secret_recovered_by_adversary"] is all_slices_can_reconstruct(world)
        assert verdicts[True] > 20 and verdicts[False] > 20

    def test_one_closure_per_grown_slice(self, monkeypatch):
        """scale-nocurve at seed 1 steals 8 copies of the epoch's shares per
        row, one new slice each: one closure per row and none at the final
        check, where every one of the 1 + 2 + ... + 41 slices used to be
        judged again (902 calls)."""
        closures = count_calls(monkeypatch, simnet, "knowledge_closure")
        per_row = []

        def judged(world):
            per_row.append(len(closures))
            closures.clear()

        world = World(parse_scenario(benchmark_workloads().scale_nocurve(1)))
        world.run(on_boundary=judged)
        assert per_row == [1] * 41
        assert closures == []

    def test_a_won_slice_stays_won_without_a_closure(self, monkeypatch):
        config = scenario(
            renewal_enabled=False, epochs=3,
            adversary={"strategy": "scripted", "script": [{"epoch": 0, "compromise": [1, 2]},
                                                          {"epoch": 2, "compromise": [3]}]},
        )
        closures = count_calls(monkeypatch, simnet, "knowledge_closure")
        report = World(config).run()
        assert [row["adversary_can_reconstruct"] for row in report.rows] == [True] * 4
        assert len(closures) == 1


class TestSnapshotSize:
    """The compact body (canonical JSON) of two mid-run snapshots, pinned to
    the byte, so any change to what a snapshot stores shows here: bench-63
    on secp256k1, and the benchmark's churn-redeal tree at seed 1."""

    @pytest.mark.parametrize(
        "load, epoch, size",
        [
            (lambda: load_bundled_scenario("bench-63"), 1, 28_085),
            (lambda: parse_scenario(benchmark_workloads().churn_redeal(1)), 20, 384_720),
        ],
        ids=["bench-63-epoch-1", "churn-redeal-midpoint"],
    )
    def test_body_size_is_pinned(self, load, epoch, size):
        world = World(load())
        world.initial_deal()
        while world.epoch < epoch:
            world.step_epoch()
        body = world_to_dict(world)
        assert len(json.dumps(body, sort_keys=True, separators=(",", ":"))) == size


class TestRecords:
    """The per-message, per-share and per-group records are immutable
    named tuples with fixed fields."""

    RECORDS = [
        (RenewalBundle(0, 1, 5, ()), ("sender", "recipient", "delta", "commitments")),
        (HeldShare(3, 7, 2, False), ("eval_point", "value", "threshold", "split")),
        (GroupShares(1, 2, {1: (3, 7)}), ("epoch", "threshold", "members")),
    ]

    @pytest.mark.parametrize(
        "record, fields", RECORDS, ids=[type(record).__name__ for record, _ in RECORDS]
    )
    def test_fields_cannot_be_assigned(self, record, fields):
        assert record._fields == fields
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


class TestDeepTrees:
    @staticmethod
    def chain(depth):
        tree = {"children": []}
        for _ in range(depth):
            tree = {"children": [tree]}
        return tree

    def test_600_deep_chain_runs_and_reconstructs(self):
        depth = 600
        world = World(scenario(tree=self.chain(depth), epochs=2))
        report = world.run()
        assert report.final["reconstruction_correct"] is True
        assert all(row["secret_intact"] for row in report.rows)
        assert minimal_reconstructing_set(world.tree, world.shares) == list(
            range(1, depth + 1)
        )

    def test_600_deep_chain_saves_and_resumes(self, tmp_path):
        straight = World(scenario(tree=self.chain(600), epochs=2))
        straight.run()
        halted = World(scenario(tree=self.chain(600), epochs=2))
        halted.initial_deal()
        halted.step_epoch()
        resumed = restored(halted, tmp_path)
        assert resumed.config == halted.config
        resumed.step_epoch()
        resumed.finalize()
        assert resumed.report == straight.report


class TestStepOrder:
    """``initial_deal`` runs only on a blank world, ``step_epoch`` only on a
    dealt one and only up to the scenario's last epoch, and ``finalize``
    only once on a dealt one; a refused call names itself and its reason and
    leaves the world as it was. ``run`` drives a world on from wherever it
    is, so only a finished world refuses it, through its ``finalize``."""

    def refused(self, world, call="step_epoch"):
        before = world_facts(world)
        with pytest.raises(StepOutOfOrder) as info:
            getattr(world, call)()
        assert isinstance(info.value, HierShareError)
        assert world_facts(world) == before
        return str(info.value)

    def test_step_before_the_deal_is_refused(self):
        world = World(scenario())
        message = self.refused(world)
        assert message.startswith("step_epoch")
        assert "initial_deal" in message
        assert world.epoch == 0 and world.report.rows == [] and world.tree.nodes == {}

    def test_step_past_the_last_epoch_is_refused(self):
        world = World(scenario(epochs=5))
        world.initial_deal()
        for _ in range(5):
            world.step_epoch()
        message = self.refused(world)
        assert message.startswith("step_epoch")
        assert "5 epochs" in message
        assert world.epoch == 5 and len(world.report.rows) == 6

    def test_a_finished_run_takes_no_further_epoch(self):
        world = World(scenario(epochs=2))
        world.run()
        self.refused(world)
        assert world.report.final["epochs_run"] == 2

    @pytest.mark.parametrize("epochs, saved_at", [(3, 1), (1, 0)])
    def test_a_restored_world_counts_as_dealt(self, tmp_path, epochs, saved_at):
        world = World(scenario(epochs=epochs))
        world.initial_deal()
        for _ in range(saved_at):
            world.step_epoch()
        resumed = restored(world, tmp_path)
        assert self.refused(resumed, "initial_deal").startswith("initial_deal")
        while world.epoch < epochs:
            assert resumed.step_epoch() == world.step_epoch()
        self.refused(resumed)

    @pytest.mark.parametrize("name", ["demo-7user", "figure2-leave"])
    def test_a_second_deal_is_refused(self, name):
        world = World(load_bundled_scenario(name))
        world.initial_deal()
        nodes = len(world.tree.nodes)
        assert self.refused(world, "initial_deal") == "initial_deal on a world already dealt"
        assert len(world.tree.nodes) == nodes and len(world.report.rows) == 1

    def test_a_second_run_is_refused(self):
        world = World(scenario(epochs=2))
        world.run()
        assert self.refused(world, "run") == "finalize on a finished world"
        assert len(world.report.rows) == 3

    def test_run_calls_the_hook_at_every_boundary(self):
        world = World(scenario(epochs=3))
        reached = []
        world.run(lambda w: reached.append((w.epoch, len(w.report.rows), bool(w.report.final))))
        assert reached == [(0, 1, False), (1, 2, False), (2, 3, False), (3, 4, False)]
        assert world.report.final["epochs_run"] == 3

    @pytest.mark.parametrize("stepped", [0, 2])
    def test_a_dealt_world_runs_on_to_the_straight_report(self, stepped):
        straight = World(scenario()).run()
        world = World(scenario())
        world.initial_deal()
        for _ in range(stepped):
            world.step_epoch()
        assert world.run() == straight

    @pytest.mark.parametrize("via_run", [True, False], ids=["after-run", "after-finalize"])
    def test_a_second_finalize_is_refused(self, tmp_path, via_run):
        """Snapshots do not store the final result, so a finished world
        restored from one finalizes once more, to the same result."""
        world = World(scenario(epochs=2))
        if via_run:
            world.run()
        else:
            world.initial_deal()
            world.step_epoch()
            world.finalize()
        final = dict(world.report.final)
        assert self.refused(world, "finalize") == "finalize on a finished world"
        assert world.report.final == final
        resumed = restored(world, tmp_path)
        assert resumed.report.final == {} and resumed.finalize() == final

    def test_finalize_before_the_deal_is_refused(self):
        world = World(scenario())
        message = self.refused(world, "finalize")
        assert message.startswith("finalize") and "initial_deal" in message
        assert world.report.final == {}


class TestInvariants:
    """Each rule of ``World._check_invariants`` fails on the one piece of
    corrupted state it guards."""

    def dealt_world(self, **overrides):
        world = World(scenario(**overrides))
        world.initial_deal()
        world._check_invariants()
        return world

    def violated(self, world):
        with pytest.raises(InvariantViolation) as info:
            world._check_invariants()
        return info.value

    def test_single_field_modulus(self):
        world = self.dealt_world()
        p = world.config.field.modulus
        honest = world.shares[1]
        eval_point, value = honest.members[1]
        world.shares[1] = honest._replace(members={**honest.members, 1: (eval_point, p)})
        assert self.violated(world).invariant == "single-field-modulus"
        world.shares[1] = honest._replace(members={**honest.members, 1: (p, value)})
        assert self.violated(world).invariant == "single-field-modulus"

    def test_group_key_x_distinct(self):
        world = self.dealt_world(
            field_mode="curve-order", curve="toy", field_prime=None,
            eval_mode="round-key", secret="3",
        )
        nodes = world.tree.nodes
        nodes[2].group_key = nodes[1].group_key
        assert self.violated(world).invariant == "group-key-x-distinct"

    def test_group_key_x_distinct_refuses_a_negated_key(self):
        """A key and its negation are two points with one x-coordinate."""
        world = self.dealt_world(
            field_mode="curve-order", curve="toy", field_prime=None,
            eval_mode="round-key", secret="3",
        )
        nodes = world.tree.nodes
        nodes[3].group_key = negated(nodes[1].group_key)
        assert nodes[3].group_key != nodes[1].group_key
        assert self.violated(world).invariant == "group-key-x-distinct"

    def test_no_oracle_leakage_tokens(self):
        world = self.dealt_world()
        world.adversary.stolen_tokens[1] = world.tree.nodes[1].reg_token
        violation = self.violated(world)
        assert violation.invariant == "no-oracle-leakage"
        assert "token" in violation.detail

    def test_no_oracle_leakage_shares(self):
        world = self.dealt_world()
        world.adversary.stolen_shares[(world.round_id, 0)] = {1: world._held_share(1)}
        violation = self.violated(world)
        assert violation.invariant == "no-oracle-leakage"
        assert "share" in violation.detail
