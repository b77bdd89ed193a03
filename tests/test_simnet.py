"""World stepping, adversary strategies, and report determinism."""

import json
from dataclasses import replace

import pytest
from conftest import minimal_reconstructing_set

from hiershare import algebra, curve
from hiershare.config import parse_scenario
from hiershare.errors import InvariantViolation
from hiershare.hierarchy import HierarchyTree
from hiershare.simnet import World
from hiershare.snapshot import world_from_dict, world_to_dict


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

    def test_different_seed_different_dealing(self):
        w1 = World(scenario())
        w2 = World(scenario(seed="2"))
        w1.initial_deal()
        w2.initial_deal()
        assert [r.value for r in w1.shares.values()] != [
            r.value for r in w2.shares.values()
        ]

    def test_run_leaves_no_envelopes(self):
        world = World(scenario(epochs=4))
        world.run()
        assert world.envelopes == []

    def test_row_counts_and_drains_the_epochs_envelopes(self):
        world = World(scenario(epochs=4))
        world.initial_deal()
        world.send("claim", 1, (0,), None, False)
        row = world.step_epoch()
        # The extra claim plus three sealed renewal deltas.
        assert row["messages"] == {"claim": 1, "renewal-delta": 3}
        assert row["messages_total"] == 4
        assert world.envelopes == []


class TestAdversaryObservation:
    def test_sealed_share_to_honest_node_unlearned(self):
        cfg = scenario(adversary={"strategy": "passive-stealer", "budget": 0})
        world = World(cfg)
        world.initial_deal()
        assert world.adversary.stolen_shares == {}

    def test_sealed_share_to_compromised_node_stolen(self):
        cfg = scenario(
            adversary={
                "strategy": "scripted",
                "script": [{"epoch": 0, "compromise": [2]}],
            }
        )
        world = World(cfg)
        world.initial_deal()
        stolen_owners = {rec.owner for rec in world.adversary.stolen_shares.values()}
        assert stolen_owners == {2}

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

    def test_stolen_tokens_only_from_compromised(self):
        cfg = scenario(adversary={"strategy": "passive-stealer", "budget": 1})
        world = World(cfg)
        world.run()
        assert set(world.adversary.stolen_tokens) <= world.adversary.ever_compromised


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
        cfg = self._curve_cfg(
            tree=spec_dict([[[], [], [], [], []]]),
            tf={"num": 3, "den": 5},
            epochs=1,
            adversary={
                "strategy": "scripted",
                "script": [
                    {"epoch": 1, "compromise": [1],
                     "tamper": [{"parent": 1, "children": [2, 3]}]},
                ],
            },
        )
        report = World(cfg).run()
        row = report.rows[1]
        assert row["verdicts"] == [
            {"accused": 1, "outcome": "claimers-compromised", "claims": 2,
             "claimers": [2, 3]}
        ]
        # The tampered subtree's renewal was discarded for the epoch.
        world = World(cfg)
        world.run()
        assert {world.shares[u].epoch for u in (2, 3, 4, 5, 6)} == {0}
        assert world.shares[1].epoch == 1


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


class TestLoadAndDealCost:
    @pytest.mark.parametrize(
        "overrides, tests_per_load",
        [
            # The field prime, once.
            ({}, 1),
            # validate_curve's p and order, then the field of the order.
            ({"field_mode": "curve-order", "curve": "toy", "field_prime": None, "eval_mode": None}, 3),
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

    def test_one_levels_walk_per_deal(self, monkeypatch):
        calls = []
        original = HierarchyTree.levels

        def counting(tree):
            calls.append(1)
            return original(tree)

        monkeypatch.setattr(HierarchyTree, "levels", counting)
        world = World(scenario(events=[{"epoch": 2, "kind": "redeal"}]))
        world.initial_deal()
        assert len(calls) == 1
        world.step_epoch()
        world.step_epoch()
        assert len(calls) == 2

    def count_calls(self, monkeypatch, method):
        calls = []
        original = getattr(HierarchyTree, method)

        def counting(tree, *args):
            calls.append(args)
            return original(tree, *args)

        monkeypatch.setattr(HierarchyTree, method, counting)
        return calls

    # Users 1-3 at level 1; 1 -> {4, 5}, 2 -> {6, 7}, 6 -> {8}: four
    # sibling groups, under 0, 1, 2 and 6.
    FOUR_GROUPS = spec_dict([[[], []], [[[]], []], []])

    def test_deal_reads_the_group_view(self, monkeypatch):
        active_children = self.count_calls(monkeypatch, "active_children")
        level = self.count_calls(monkeypatch, "level")
        world = World(scenario(tree=self.FOUR_GROUPS))
        world.initial_deal()
        assert world.report.rows[0]["messages"]["reqm"] == 8
        assert active_children == []
        assert level == []

    def test_renewal_epoch_asks_once_per_group(self, monkeypatch):
        world = World(scenario(tree=self.FOUR_GROUPS))
        world.initial_deal()
        active_children = self.count_calls(monkeypatch, "active_children")
        world.step_epoch()
        assert world.report.rows[1]["messages"]["renewal-delta"] == 8
        assert len(active_children) <= 4


class TestDeepTrees:
    def test_600_deep_chain_runs_and_reconstructs(self):
        depth = 600
        tree = {"children": []}
        for _ in range(depth):
            tree = {"children": [tree]}
        world = World(scenario(tree=tree, epochs=2))
        report = world.run()
        assert report.final["reconstruction_correct"] is True
        assert all(row["secret_intact"] for row in report.rows)
        assert minimal_reconstructing_set(world.tree, world.shares) == list(
            range(1, depth + 1)
        )


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

    def test_single_share_per_user(self):
        world = self.dealt_world()
        world.shares[2] = world.shares[1]
        assert self.violated(world).invariant == "single-share-per-user"

    def test_single_field_modulus(self):
        world = self.dealt_world()
        p = world.config.field.modulus
        honest = world.shares[1]
        world.shares[1] = replace(honest, value=p)
        assert self.violated(world).invariant == "single-field-modulus"
        world.shares[1] = replace(honest, eval_point=p)
        assert self.violated(world).invariant == "single-field-modulus"

    def test_group_key_x_distinct(self):
        world = self.dealt_world(
            field_mode="curve-order", curve="toy", field_prime=None,
            eval_mode="round-key", secret="3",
        )
        nodes = world.tree.nodes
        nodes[2].group_key = nodes[1].group_key
        assert self.violated(world).invariant == "group-key-x-distinct"

    def test_no_oracle_leakage_tokens(self):
        world = self.dealt_world()
        world.adversary.stolen_tokens[1] = world.tree.nodes[1].reg_token
        violation = self.violated(world)
        assert violation.invariant == "no-oracle-leakage"
        assert "token" in violation.detail

    def test_no_oracle_leakage_shares(self):
        world = self.dealt_world()
        record = world.shares[1]
        world.adversary.stolen_shares[(record.round_id, record.epoch, 1)] = record
        violation = self.violated(world)
        assert violation.invariant == "no-oracle-leakage"
        assert "share" in violation.detail
