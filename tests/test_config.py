"""Scenario parsing, validation diagnostics, and round trips."""

import json
import random

import pytest
from conftest import benchmark_workloads, random_tree_spec

from hiershare import config as config_module
from hiershare.config import (
    ConfigError,
    bundled_scenario_names,
    expand_tree,
    load_bundled_scenario,
    load_scenario,
    parse_scenario,
    _zero_x_pairs,
    serialize_scenario,
    tree_spec,
)
from hiershare.curve import STANDARD_CURVE, TOY_CURVE, CurveParams
from hiershare.simnet import World


def base_scenario(**overrides):
    data = {
        "schema_version": 1,
        "name": "cfg-test",
        "field_mode": "no-curve",
        "field_prime": "1009",
        "tf": {"num": 2, "den": 3},
        "tree": {"children": [{"children": []}, {"children": []}]},
        "secret": "5",
        "epochs": 3,
        "seed": "9",
    }
    data.update(overrides)
    return {k: v for k, v in data.items() if v is not None}


class TestParsing:
    def test_round_trip_equality(self):
        config = parse_scenario(base_scenario())
        assert parse_scenario(serialize_scenario(config)) == config

    def test_bundled_scenarios_round_trip(self):
        for name in bundled_scenario_names():
            config = load_bundled_scenario(name)
            assert parse_scenario(serialize_scenario(config)) == config

    @pytest.mark.parametrize("curved", [False, True])
    def test_serialized_scenario_names_no_eval_mode(self, curved):
        overrides = {"field_mode": "curve-order", "curve": "toy", "field_prime": None, "secret": "3"}
        config = parse_scenario(base_scenario(**overrides) if curved else base_scenario())
        data = serialize_scenario(config)
        assert "eval_mode" not in data
        assert parse_scenario(data) == config

    def test_bundled_names(self):
        assert bundled_scenario_names() == ["bench-63", "demo-7user", "figure2-leave"]

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_scenario(base_scenario(bogus=1))

    def test_unknown_tree_field(self):
        bad = base_scenario(tree={"children": [], "color": "red"})
        with pytest.raises(ConfigError, match="color"):
            parse_scenario(bad)

    @pytest.mark.parametrize("removed", ["ticks_per_epoch", "redact_secrets"])
    def test_removed_fields_are_unknown(self, removed):
        with pytest.raises(ConfigError, match=f"unknown field.*{removed}"):
            parse_scenario(base_scenario(**{removed: 4}))

    def test_first_bad_tree_node_in_document_order_named(self):
        tree = {"children": [{"children": [{"color": 1}]}, {"shade": 2}]}
        with pytest.raises(ConfigError, match=r"tree\.children\[0\]\.children\[0\]: .*color"):
            parse_scenario(base_scenario(tree=tree))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (7, "expected an object with a 'children' list"),
            ({"children": {"0": {}}}, "'children' must be a list"),
            ({"children": [], "colour": 1}, "unknown field(s) ['colour']"),
        ],
        ids=["non-object-child", "non-list-children", "unknown-field"],
    )
    def test_refused_node_three_levels_deep_names_its_exact_path(self, bad, message):
        """Only the refused node's path is spelled out; it must still name
        every index on the way down, after valid siblings at each level."""
        leaf = {"children": []}
        tree = {"children": [leaf, {"children": [{"children": [leaf, leaf, bad]}, leaf]}]}
        with pytest.raises(ConfigError) as refused:
            parse_scenario(base_scenario(tree=tree), "s.json")
        assert str(refused.value) == f"s.json.tree.children[1].children[0].children[2]: {message}"

    def test_first_bad_node_in_document_order_though_breadth_first_meets_another(self):
        """The numbering walk is breadth first and meets the level-1
        ``{"kids": []}`` first; the error still names the node earlier in
        the file."""
        tree = {"children": [{"children": [{"children": 5}]}, {"kids": []}]}
        with pytest.raises(ConfigError) as refused:
            parse_scenario(base_scenario(tree=tree), "s.json")
        assert str(refused.value) == "s.json.tree.children[0].children[0]: 'children' must be a list"

    def test_refused_root_names_the_tree(self):
        with pytest.raises(ConfigError) as refused:
            parse_scenario(base_scenario(tree={"children": "none"}), "s.json")
        assert str(refused.value) == "s.json.tree: 'children' must be a list"

    def test_decimal_strings_accepted_and_required_form(self):
        config = parse_scenario(base_scenario(secret="17"))
        assert config.secret == 17
        with pytest.raises(ConfigError, match="decimal"):
            parse_scenario(base_scenario(secret="0x11"))


class TestValidation:
    def test_zero_threshold_factor(self):
        with pytest.raises(ConfigError, match=r"TF must be in \(0,1\]"):
            parse_scenario(base_scenario(tf={"num": 0, "den": 1}))

    def test_tf_above_one(self):
        with pytest.raises(ConfigError, match=r"TF must be in \(0,1\]"):
            parse_scenario(base_scenario(tf={"num": 5, "den": 4}))

    def test_no_curve_requires_prime(self):
        with pytest.raises(ConfigError, match="field_prime"):
            parse_scenario(base_scenario(field_prime=None))

    def test_composite_prime_rejected(self):
        with pytest.raises(ConfigError, match="not prime"):
            parse_scenario(base_scenario(field_prime="1000"))

    def test_psi_12_field_prime_rejected(self):
        # 399165290221 * 798330580441 passes Miller-Rabin to the first 12
        # prime bases.
        psi_12 = "318665857834031151167461"
        with pytest.raises(ConfigError, match=rf"\.field_prime: field modulus {psi_12} is not prime$"):
            parse_scenario(base_scenario(field_prime=psi_12))

    def test_round_key_eval_needs_curve(self):
        with pytest.raises(ConfigError, match="round-key"):
            parse_scenario(base_scenario(eval_mode="round-key"))

    @pytest.mark.parametrize("curved, given", [(True, "user-id"), (False, "bogus")])
    def test_eval_mode_other_than_the_field_mode_implies(self, curved, given):
        data = self.toy_tree(3) if curved else base_scenario()
        with pytest.raises(ConfigError, match=rf"\.eval_mode: .*not '{given}'$"):
            parse_scenario({**data, "eval_mode": given})

    def test_unknown_curve_profile(self):
        bad = base_scenario(
            field_mode="curve-order", field_prime=None, curve="nonexistent"
        )
        with pytest.raises(ConfigError, match="unknown profile"):
            parse_scenario(bad)

    def test_inline_curve_with_composite_order(self):
        bad = base_scenario(
            field_mode="curve-order",
            field_prime=None,
            curve={"p": "17", "a": "2", "b": "2", "gx": "5", "gy": "1", "order": "18"},
        )
        with pytest.raises(ConfigError, match="order"):
            parse_scenario(bad)

    def test_inline_curve_over_psi_12_rejected(self):
        psi_12 = "318665857834031151167461"
        bad = base_scenario(
            field_mode="curve-order",
            field_prime=None,
            curve={"p": psi_12, "a": "2", "b": "2", "gx": "5", "gy": "1", "order": "19"},
        )
        with pytest.raises(ConfigError, match=rf"\.curve: field modulus {psi_12} is not prime;"):
            parse_scenario(bad)

    def test_inline_curve_over_zero_modulus_rejected(self):
        bad = base_scenario(
            field_mode="curve-order",
            field_prime=None,
            curve={"p": "0", "a": "2", "b": "2", "gx": "5", "gy": "1", "order": "19"},
        )
        with pytest.raises(ConfigError, match=r"\.curve: field modulus 0 is not prime$"):
            parse_scenario(bad)

    def test_inline_curve_order_refused_only_for_primality(self):
        # 38 * G is the identity on the toy curve, so only the primality test
        # of the order can refuse it.
        bad = base_scenario(
            field_mode="curve-order",
            field_prime=None,
            curve={"p": "17", "a": "2", "b": "2", "gx": "5", "gy": "1", "order": "38"},
        )
        with pytest.raises(ConfigError, match="order: field modulus 38 is not prime"):
            parse_scenario(bad)

    def test_inline_curve_of_order_two_is_config_error(self):
        # (1, 0) on y^2 = x^3 + 16 over F_17 has order 2, too small a field.
        bad = base_scenario(
            field_mode="curve-order",
            field_prime=None,
            curve={"p": "17", "a": "0", "b": "16", "gx": "1", "gy": "0", "order": "2"},
        )
        with pytest.raises(ConfigError, match="order: field modulus must exceed 2"):
            parse_scenario(bad)

    def test_inline_small_subgroup_curve_refused_before_counting(self, monkeypatch):
        # Order 3 on secp256k1's field: counting its zero-x pairs would walk
        # range(0, p, 3), so validation must refuse it first.
        def unbounded(curve):
            raise AssertionError(f"counted zero-x pairs for order {curve.order}")

        monkeypatch.setattr("hiershare.config._zero_x_pairs", unbounded)
        bad = base_scenario(
            field_mode="curve-order",
            field_prime=None,
            curve={"p": str(STANDARD_CURVE.p), "a": "0", "b": "4", "gx": "0", "gy": "2",
                   "order": "3"},
        )
        with pytest.raises(ConfigError, match=r"\.curve: subgroup order 3 .*cofactor above 1"):
            parse_scenario(bad)

    def test_inline_curve_missing_base_point(self):
        bad = base_scenario(
            field_mode="curve-order",
            field_prime=None,
            curve={"p": "17", "a": "2", "b": "2", "order": "19"},
        )
        with pytest.raises(ConfigError, match="gx"):
            parse_scenario(bad)

    @pytest.mark.parametrize("name", ["sub/x", "sub\\x", ".", ".."])
    def test_name_must_be_a_plain_file_name(self, name):
        with pytest.raises(ConfigError, match=r"<scenario>\.name: must be a plain file name"):
            parse_scenario(base_scenario(name=name))

    @pytest.mark.parametrize("name", ["x.y", "..x", "a b"])
    def test_name_with_dots_or_spaces_accepted(self, name):
        assert parse_scenario(base_scenario(name=name)).name == name

    def test_1000_deep_tree_file_is_config_error(self, tmp_path):
        # Each tree level nests an object and a list, so json gives up
        # long before the tree parser (iterative) would.
        deep = '{"children": [' * 1000 + "{}" + "]}" * 1000
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(base_scenario(tree="TREE")).replace('"TREE"', deep))
        with pytest.raises(ConfigError, match=r"deep\.json: JSON nested too deeply to read"):
            load_scenario(str(path))

    def test_secret_out_of_field(self):
        with pytest.raises(ConfigError, match="secret"):
            parse_scenario(base_scenario(secret="1009"))

    def test_too_many_users_for_user_id_mode(self):
        tree = {"children": [{"children": []} for _ in range(31)]}
        with pytest.raises(ConfigError, match="fewer than"):
            parse_scenario(base_scenario(field_prime="31", tree=tree))

    def toy_tree(self, users):
        return base_scenario(
            field_mode="curve-order", field_prime=None, curve="toy", secret="3",
            tree={"children": [{"children": []} for _ in range(users)]},
        )

    def test_curve_tree_beyond_its_group_key_x_coordinates(self):
        """The toy curve (order 19) has (19 - 1) / 2 = 9 distinct group-key
        x-coordinates, so a tenth user could never register; the round-key
        bound of 8 refuses it first."""
        with pytest.raises(ConfigError, match=r"tree: 10 users .*'toy' has 8$"):
            parse_scenario(self.toy_tree(10))

    def test_round_key_tree_needs_x_coordinates_nonzero_mod_the_order(self):
        """The 9 x-coordinates of the toy curve include x = 0 ((0, 6) is on
        the curve). The 9 round keys of a 9-user tree would take all 9, so
        every round would draw evaluation point zero."""
        with pytest.raises(ConfigError, match=r"tree: 9 users .*'toy' has 8$"):
            parse_scenario(self.toy_tree(9))

    def test_round_key_tree_at_its_nonzero_x_coordinates_runs(self):
        world = World(parse_scenario(self.toy_tree(8)))
        world.run()
        assert len(world.report.rows) == 4

    def test_point_pairs_on_an_x_that_is_zero_mod_the_order(self):
        """The candidates are the multiples of n below p. On the toy curve
        that is x = 0 alone; on secp256k1, x = 0 (x^3 + 7 is a non-square
        mod p) and x = n (a square), so one pair is lost there too."""
        assert _zero_x_pairs(TOY_CURVE) == 1
        assert _zero_x_pairs(STANDARD_CURVE) == 1
        assert _zero_x_pairs(CurveParams("order-7", 13, 0, 6, 2, 1, 7)) == 0

    def test_empty_tree_rejected(self):
        with pytest.raises(ConfigError, match="at least one user"):
            parse_scenario(base_scenario(tree={"children": []}))


class TestEvents:
    def test_unknown_event_user(self):
        bad = base_scenario(events=[{"epoch": 1, "kind": "leave", "user": 9}])
        with pytest.raises(ConfigError, match="unknown user"):
            parse_scenario(bad)

    def test_redeal_takes_no_user(self):
        bad = base_scenario(events=[{"epoch": 1, "kind": "redeal", "user": 1}])
        with pytest.raises(ConfigError, match="no user"):
            parse_scenario(bad)

    def test_event_beyond_epochs(self):
        bad = base_scenario(events=[{"epoch": 9, "kind": "redeal"}])
        with pytest.raises(ConfigError, match="beyond scenario epochs"):
            parse_scenario(bad)


class TestAdversaryValidation:
    def test_script_requires_scripted_strategy(self):
        bad = base_scenario(
            adversary={
                "strategy": "passive-stealer",
                "script": [{"epoch": 1, "compromise": [1]}],
            }
        )
        with pytest.raises(ConfigError, match="scripted"):
            parse_scenario(bad)

    def test_tamper_parent_must_be_compromised(self):
        bad = base_scenario(
            adversary={
                "strategy": "scripted",
                "script": [
                    {"epoch": 1, "compromise": [],
                     "tamper": [{"parent": 1, "children": []}]},
                ],
            }
        )
        with pytest.raises(ConfigError, match="not compromised"):
            parse_scenario(bad)

    def test_false_claimer_must_be_child_of_accused(self):
        bad = base_scenario(
            adversary={
                "strategy": "scripted",
                "script": [
                    {"epoch": 1, "compromise": [1],
                     "false_claims": [{"accused": 2, "claimers": [1]}]},
                ],
            }
        )
        with pytest.raises(ConfigError, match="not a child"):
            parse_scenario(bad)

    def test_script_exceeding_budget(self):
        bad = base_scenario(
            adversary={
                "strategy": "scripted",
                "budget": 1,
                "script": [{"epoch": 1, "compromise": [1, 2]}],
            }
        )
        with pytest.raises(ConfigError, match="budget"):
            parse_scenario(bad)

    def test_script_epoch_exceeding_budget_across_entries(self):
        # Each entry fits the budget, but epoch 1 occupies both hosts.
        bad = base_scenario(
            adversary={
                "strategy": "scripted",
                "budget": 1,
                "script": [
                    {"epoch": 1, "compromise": [1]},
                    {"epoch": 1, "compromise": [2]},
                ],
            }
        )
        with pytest.raises(ConfigError, match=r"adversary\.script\[1\]\.compromise: exceeds budget"):
            parse_scenario(bad)

    # User 3 is user 1's only child.
    CHAIN_TREE = {"children": [{"children": [{"children": []}]}, {"children": []}]}

    @pytest.mark.parametrize(
        "compromise, dependent, effect",
        [
            # No-curve children cannot check their delta: a tampered one
            # breaks the secret. A false claim is counted.
            ([1], {"tamper": [{"parent": 1}]}, ("secret_intact", False)),
            ([3], {"false_claims": [{"accused": 1, "claimers": [3]}]}, ("claims", 1)),
        ],
        ids=["tamper", "false_claims"],
    )
    def test_script_entries_of_one_epoch_in_any_order(self, compromise, dependent, effect):
        entries = [{"epoch": 1, "compromise": compromise}, {"epoch": 1, **dependent}]
        rows = []
        for script in (entries, entries[::-1]):
            config = parse_scenario(
                base_scenario(
                    tree=self.CHAIN_TREE,
                    adversary={"strategy": "scripted", "script": script},
                )
            )
            rows.append(World(config).run().rows)
        assert rows[0] == rows[1]
        key, value = effect
        assert rows[0][1][key] == value

    @pytest.mark.parametrize(
        "script, where, message",
        [
            (
                [
                    {"epoch": 2, "compromise": [1]},
                    {"epoch": 1, "compromise": [2],
                     "tamper": [{"parent": 2}, {"parent": 1}]},
                ],
                r"adversary\.script\[1\]\.tamper\[1\]",
                "tampering parent 1 is not compromised that epoch",
            ),
            (
                [
                    {"epoch": 1, "compromise": [2]},
                    {"epoch": 2, "compromise": [3]},
                    {"epoch": 1, "false_claims": [{"accused": 1, "claimers": [3]}]},
                ],
                r"adversary\.script\[2\]\.false_claims\[0\]",
                "false claimer 3 is not compromised that epoch",
            ),
        ],
        ids=["tamper", "false_claims"],
    )
    def test_uncompromised_in_every_entry_of_its_epoch(self, script, where, message):
        bad = base_scenario(
            tree=self.CHAIN_TREE, adversary={"strategy": "scripted", "script": script}
        )
        with pytest.raises(ConfigError, match=f"{where}: {message}"):
            parse_scenario(bad)

    def test_unknown_target(self):
        bad = base_scenario(adversary={"strategy": "passive-stealer", "targets": [40]})
        with pytest.raises(ConfigError, match="unknown user"):
            parse_scenario(bad)


def events(*entries):
    return {"events": list(entries)}


def script(*entries):
    return {"adversary": {"strategy": "scripted", "budget": 2, "script": list(entries)}}


class TestEntryDiagnostics:
    """Each event and script entry is checked with its fields named relative
    to it, and a message is built only for the check that fails: the texts
    are the ones the checks always gave. Users 1 and 2 at level 1, 1 -> {3,
    4}."""

    TREE = {"children": [{"children": [{}, {}]}, {"children": []}]}

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (events({"epoch": 1, "kind": "redeal"}, {"epoch": 1, "kind": "leave", "user": 1, "color": 1, "age": 2}),
             "events[1]: unknown field(s) ['age', 'color']"),
            (events({"epoch": 1}), "events[0]: missing required field 'kind'"),
            (events({"epoch": 1, "kind": "join"}),
             "events[0].kind: must be one of ('leave', 'rejoin', 'redeal')"),
            (events({"epoch": 4, "kind": "redeal"}), "events[0].epoch: beyond scenario epochs (3)"),
            (events({"epoch": 1, "kind": "rejoin"}), "events[0]: rejoin event needs a user"),
            (events({"epoch": 1, "kind": "leave", "user": 9}), "events[0].user: unknown user 9"),
            (events({"epoch": 1, "kind": "redeal", "user": 1}), "events[0]: redeal events take no user"),
            (events({"epoch": 1, "kind": "redeal", "mid_round": True}),
             "events[0]: redeal events take no mid_round flag"),
            (script({"epoch": 1, "compromise": [1], "color": 0}),
             "adversary.script[0]: unknown field(s) ['color']"),
            (script({"epoch": 4}), "adversary.script[0].epoch: beyond scenario epochs (3)"),
            (script({"epoch": 1, "compromise": [1, 9]}), "adversary.script[0].compromise: unknown user 9"),
            (script({"epoch": 1, "compromise": [1, 2]}, {"epoch": 1, "compromise": [3]}),
             "adversary.script[1].compromise: exceeds budget"),
            (script({"epoch": 1, "compromise": [1], "tamper": [{"parent": 1}, {"parent": 1, "children": [3, 5]}]}),
             "adversary.script[0].tamper[1]: 5 is not a child of 1"),
            (script({"epoch": 1, "compromise": [3], "false_claims": [{"accused": 1, "claimers": [3, 4]}]}),
             "adversary.script[0].false_claims[0]: false claimer 4 is not compromised that epoch"),
            (script({"epoch": 1, "compromise": [3], "false_claims": [{"accused": 1, "claimers": [3], "why": 0}]}),
             "adversary.script[0].false_claims[0]: unknown field(s) ['why']"),
        ],
    )
    def test_message_names_the_entry(self, overrides, message):
        with pytest.raises(ConfigError) as refused:
            parse_scenario(base_scenario(tree=self.TREE, **overrides))
        assert str(refused.value) == f"<scenario>.{message}"

    def test_valid_entries_sort_no_unknown_fields(self, monkeypatch):
        """``_take`` sorts the unknown fields only to name them, so 100
        valid events and script entries sort nothing but the compromised
        hosts."""
        sorts = []
        monkeypatch.setattr(config_module, "sorted", lambda *a, **k: sorts.append(a) or sorted(*a, **k), raising=False)
        kinds = [{"kind": "leave", "user": 3, "mid_round": True}, {"kind": "rejoin", "user": 3}, {"kind": "redeal"}]
        parse_scenario(base_scenario(
            tree=self.TREE, epochs=100,
            events=[{"epoch": e, **kinds[e % 3]} for e in range(100)],
            adversary={"strategy": "scripted", "script": [{"epoch": e, "compromise": [1]} for e in range(100)]},
        ))
        assert sorts == [([1],)] * 100


def scripted(entry):
    """An adversary of one epoch-1 script entry on the base tree."""
    return {"adversary": {"strategy": "scripted", "script": [{"epoch": 1, **entry}]}}


def leave_event(**fields):
    return {"events": [{"epoch": 1, "kind": "leave", "user": 1, **fields}]}


class TestMalformedFields:
    """A wrongly typed field is a ConfigError naming it, never a bare
    TypeError; a boolean is no user id, and a flag must be a boolean."""

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"adversary": {"targets": 5}}, r"adversary\.targets"),
            ({"adversary": {"targets": [[1]]}}, r"adversary\.targets"),
            ({"adversary": {"targets": [True]}}, r"adversary\.targets"),
            (leave_event(user=[1]), r"events\[0\]\.user"),
            (leave_event(user=True), r"events\[0\]\.user"),
            (scripted({"compromise": 5}), r"adversary\.script\[0\]\.compromise"),
            (scripted({"compromise": [[1]]}), r"adversary\.script\[0\]\.compromise"),
            (scripted({"compromise": [True]}), r"adversary\.script\[0\]\.compromise"),
            (scripted({"compromise": [1], "tamper": 5}), r"adversary\.script\[0\]\.tamper"),
            (
                scripted({"compromise": [1], "tamper": [{"parent": [1]}]}),
                r"adversary\.script\[0\]\.tamper\[0\]\.parent",
            ),
            (
                scripted({"compromise": [1], "tamper": [{"parent": 1, "children": 5}]}),
                r"adversary\.script\[0\]\.tamper\[0\]\.children",
            ),
            (
                scripted({"compromise": [1], "false_claims": 5}),
                r"adversary\.script\[0\]\.false_claims",
            ),
            (
                scripted({"compromise": [1], "false_claims": [{"accused": 0, "claimers": 5}]}),
                r"adversary\.script\[0\]\.false_claims\[0\]\.claimers",
            ),
            ({"renewal_enabled": "no"}, r"renewal_enabled"),
            ({"renewal_enabled": 0}, r"renewal_enabled"),
            (leave_event(mid_round="no"), r"events\[0\]\.mid_round"),
        ],
        ids=[
            "targets-int", "targets-nested", "targets-bool", "event-user-list",
            "event-user-bool", "compromise-int", "compromise-nested", "compromise-bool",
            "tamper-int", "tamper-parent-list", "tamper-children-int", "false-claims-int",
            "claimers-int", "renewal-enabled-str", "renewal-enabled-int", "mid-round-str",
        ],
    )
    def test_wrong_type_names_the_field(self, overrides, where):
        with pytest.raises(ConfigError, match=f"^<scenario>\\.{where}: "):
            parse_scenario(base_scenario(**overrides))

    @pytest.mark.parametrize("flag", [False, True])
    def test_boolean_flags_parse(self, flag):
        config = parse_scenario(base_scenario(renewal_enabled=flag, **leave_event(mid_round=flag)))
        assert config.renewal_enabled is flag
        assert config.events[0]["mid_round"] is flag


class TestExpandTree:
    def test_bfs_numbering(self):
        tree = {
            "children": [
                {"children": [{"children": []}, {"children": []}]},
                {"children": [{"children": []}]},
            ]
        }
        assert expand_tree(tree) == [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)]

    @staticmethod
    def random_spec(rng, users):
        """A random nested spec with ``users`` nodes below the root, a
        ``children`` list at every node."""
        nodes = [{"children": []}]
        for _ in range(users):
            child = {"children": []}
            rng.choice(nodes)["children"].append(child)
            nodes.append(child)
        return nodes[0]

    @staticmethod
    def same_spec(a, b):
        """Iterative ``a == b`` for specs, which ``==`` on a deep chain
        cannot compare within the interpreter's recursion limit."""
        pending = [(a, b)]
        while pending:
            x, y = pending.pop()
            if x.keys() != y.keys() or len(x["children"]) != len(y["children"]):
                return False
            pending.extend(zip(x["children"], y["children"]))
        return True

    @pytest.mark.parametrize("seed", range(8))
    def test_spec_parents_spec_round_trip(self, seed):
        rng = random.Random(seed)
        spec = self.random_spec(rng, rng.randrange(1, 200))
        config = parse_scenario(base_scenario(tree=spec))
        assert config.parents == tuple(parent for _uid, parent in expand_tree(spec))
        assert tree_spec(config.parents) == spec
        assert serialize_scenario(config)["tree"] == spec

    @pytest.mark.parametrize("seed", range(8))
    def test_checking_walk_numbers_like_expand_tree(self, seed):
        """The walk that checks and numbers the spec in ``parse_scenario``
        gives ``expand_tree``'s pairs; leaves come with and without their
        empty ``children``."""
        rng = random.Random(seed)

        def spec(shape):
            return {"children": [spec(child) for child in shape]} if shape or rng.random() < 0.5 else {}

        tree = spec(random_tree_spec(rng))
        parents = config_module._tree_parents(tree, "tree")
        assert list(enumerate(parents, start=1)) == expand_tree(tree)

    def test_valid_specs_never_take_the_error_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(config_module, "_parse_tree", lambda *args: calls.append(args))
        for name in bundled_scenario_names():
            load_bundled_scenario(name)
        rng = random.Random(5)
        for users in (1, 60, 400):
            parse_scenario(base_scenario(tree=self.random_spec(rng, users)))
        assert calls == []

    def test_600_deep_chain_round_trips(self):
        spec = {"children": []}
        for _ in range(600):
            spec = {"children": [spec]}
        config = parse_scenario(base_scenario(tree=spec))
        assert config.parents == tuple(range(600))
        assert self.same_spec(serialize_scenario(config)["tree"], spec)
        assert not self.same_spec(tree_spec(tuple(range(599))), spec)

    def test_leaves_written_without_children_come_back_with_them(self):
        config = parse_scenario(base_scenario(tree={"children": [{}, {"children": [{}]}]}))
        assert config.parents == (0, 0, 2)
        assert serialize_scenario(config)["tree"] == {
            "children": [{"children": []}, {"children": [{"children": []}]}]
        }

    @pytest.mark.parametrize("parents", [(1,), (0, 2), (0, 0, 2, 1), (-1,), (0, 3)])
    def test_non_breadth_first_parents_refused(self, parents):
        with pytest.raises(ValueError, match="breadth-first"):
            tree_spec(parents)


class TestBenchmarkInputs:
    """The benchmark runs the scenarios ``perfbench/workloads.py``
    generates, and the bundled ones, through ``parse_scenario``; the
    generator module is loaded by path, so the parser must keep accepting
    what it sends without the benchmark changing."""

    def test_benchmark_and_bundled_scenarios_round_trip(self):
        workloads = benchmark_workloads()
        assert sorted(workloads.WORKLOADS) == ["churn-redeal", "renew-secp", "scale-nocurve"]
        configs = [load_bundled_scenario(name) for name in bundled_scenario_names()]
        for name, (generate, _check, _reload) in sorted(workloads.WORKLOADS.items()):
            for seed in (1, 13):
                configs.append(parse_scenario(generate(seed), source=f"{name}@{seed}"))
        for config in configs:
            assert parse_scenario(serialize_scenario(config)) == config
