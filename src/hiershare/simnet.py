"""Deterministic simulated network and mobile adversary.

Messages are counted, not stored: ``World.send`` counts a batch of one
kind, and a renewal round returns its traffic as one count per kind.
Sealed messages reach only their addressee (the secure channel is
axiomatic); broadcasts, requests, claims and commitment multicasts are
public, and each kind fixes its sender and audience. Delivery is reliable
and immediate: the deal lets the adversary read a dealt share as it is
sent when it occupies the addressee's host, so every message lands
within its sending epoch, which is what the per-subtree synchronization
assumption demands of the transport.
``World.envelopes`` counts the current epoch's messages by kind; the
epoch's report row reads its ``messages`` from it and resets it.

``World.shares`` maps each share holder to its sibling group's record,
shared with its siblings; a departed host keeps its last record until a
rejoin or redeal. ``World.view`` is the holders' view, the tree's
``groups(shares)``: a committed renewal moves the group's active members
to a new record and adds no holder, so the view is kept until a deal
replaces it, or a leave or a rejoin drops it and the epoch builds it again.

Every epoch, epoch 0 included, runs its events (at epoch 0 they end in
the deal) before the adversary moves to its plan's hosts
(``config.adversary_plan``), so a redeal's mail still reaches the
previous epoch's occupants. A plan holds at most the per-epoch budget of
nodes. On an occupied node the adversary reads all local state (its copy
of its share and its registration token; a round key is not kept state)
and controls outgoing protocol messages: the plan's tampered bundles, and
its false claims from hosts that are active and hold a share. It cannot
break the sealed channel toward anyone else.
Renewal counts as completing within the period, so an occupation exposes
the occupied epoch's share value, never an earlier one. Hardness of the
curve discrete log is not simulated: secrecy assertions are structural
(what the adversary state holds), not computational.

The world is a single state machine advanced by one logical thread;
independent scenarios can run in parallel with no shared state. Every run
is a pure function of (scenario, seed).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter, getitem, itemgetter, mul
from typing import Callable, Mapping, NamedTuple

from .config import ScenarioConfig, adversary_plan
from .errors import HierShareError, InvariantViolation
from .hierarchy import ROOT_ID, HierarchyTree
from .proactive import RenewalBundle, file_claim, renewal_round
from .sharing import (
    DealerState,
    EvalPointCollision,
    GroupShares,
    HeldShare,
    InsufficientShares,
    distribute,
    knowledge_closure,
    reconstruction_form,
)


class StepOutOfOrder(HierShareError):
    """A ``World`` call out of order: ``initial_deal`` on a dealt world,
    ``step_epoch`` or ``finalize`` before the deal, ``step_epoch`` past
    the last epoch, or ``finalize`` on a finished world."""


# Toy-curve rounds collide often (9 usable x-coordinates, two of them on
# x = 0), so the retry budget is generous; each retry is one fresh round.
_DEAL_ATTEMPTS = 128


@dataclass
class AdversaryState:
    """Mobile adversary: its occupation and accumulated knowledge. Where it
    goes and what it does each epoch is ``config.adversary_plan``. Stolen
    knowledge persists across cleanses (what was copied stays copied);
    tokens and shares may only ever belong to nodes in
    ``ever_compromised``, which the run asserts every epoch. Stolen shares
    are the hosts' own copies, kept per (round, epoch) slice, the unit the
    knowledge closure judges, and keyed by owner within it; each keeps the
    threshold and split of its round.
    """

    occupied: set[int] = field(default_factory=set)
    ever_compromised: set[int] = field(default_factory=set)
    stolen_shares: dict[tuple[int, int], dict[int, HeldShare]] = field(default_factory=dict)
    stolen_tokens: dict[int, int] = field(default_factory=dict)


def adversary_act(tree: HierarchyTree, shares: dict[int, GroupShares], plan: dict):
    """The epoch plan's protocol perturbations: a tamper hook for renewal
    bundles (None when the plan tampers with nothing) and its false claims.
    A claim is filed only by an active host that holds a share, since the
    administrator hears claims from members alone. Every tamper parent is
    among the plan's ``compromise`` hosts (``parse_scenario`` refuses a
    script entry that tampers from any other), so the hook checks no
    occupancy."""
    tampered_pairs = {
        (tam["parent"], child)
        for tam in plan["tamper"]
        for child in tam["children"] or tree.active_children(tam["parent"])
    }
    claims = [
        file_claim(tree, claimer, fc["accused"])
        for fc in plan["false_claims"]
        for claimer in fc["claimers"]
        if tree.nodes[claimer].active and claimer in shares
    ]

    def perturb(bundle: RenewalBundle) -> RenewalBundle:
        if (bundle.sender, bundle.recipient) not in tampered_pairs:
            return bundle
        return bundle._replace(delta=(bundle.delta + 1) % tree.field.modulus)

    return (perturb if tampered_pairs else None), claims


class IntactForm(NamedTuple):
    """The intact check's ``reconstruction_form`` of the root secret for one
    round and holders' view, with each owner's evaluation point and group
    threshold as it was built from them."""

    round_id: int
    view: dict[int, list[int]]
    owners: list[int]
    points: list[int]
    thresholds: list[int]
    weights: list[int]

    @classmethod
    def build(cls, world: World) -> IntactForm:
        """The form over ``world``'s shares and holders' view; raises
        InsufficientShares."""
        shares, view = world.shares, world.view
        owners, weights = reconstruction_form(world.tree, shares, view, ROOT_ID, world.dealer.split)
        points = [shares[uid].members[uid][0] for uid in owners]
        thresholds = [shares[uid].threshold for uid in owners]
        return cls(world.round_id, view, owners, points, thresholds, weights)

    def value(self, shares: Mapping[int, GroupShares]) -> int | None:
        """The weights' dot product with the owners' kept values, read live
        and not reduced; None when an owner's evaluation point or group
        threshold is not the one the form was built from."""
        records = list(map(shares.__getitem__, self.owners))
        pairs = list(map(getitem, map(attrgetter("members"), records), self.owners))
        if (
            list(map(itemgetter(0), pairs)) != self.points
            or list(map(attrgetter("threshold"), records)) != self.thresholds
        ):
            return None
        return sum(map(mul, self.weights, map(itemgetter(1), pairs)))


@dataclass
class SimReport:
    """Per-epoch accounting plus the final outcome; a pure function of
    (scenario, seed)."""

    scenario: str
    seed: int
    rows: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "report_schema": 1,
            "scenario": self.scenario,
            "seed": str(self.seed),
            "rows": self.rows,
            "final": self.final,
        }


class World:
    """The whole simulation: tree, dealer, shares and their holders' view,
    adversary, the current epoch's message counts, and the report."""

    def __init__(self, config: ScenarioConfig):
        """The blank world: no user registered yet, nothing dealt."""
        self.config = config
        self.rng = random.Random(config.seed)
        self.tree = HierarchyTree(config.curve, config.field)
        self.dealer = DealerState(secret=config.secret % config.field.modulus)
        self.shares: dict[int, GroupShares] = {}
        # The holders' view, tree.groups(shares); None once a leave or a
        # rejoin changes who is active, until the epoch builds it again.
        self.view: dict[int, list[int]] | None = None
        self.epoch = 0
        self.envelopes: Counter[str] = Counter()
        self.report = SimReport(scenario=config.name, seed=config.seed)
        self.adversary = AdversaryState()
        # The (round, epoch) slices of stolen shares that gained a copy
        # since the last report row; empty at every epoch boundary.
        self.grown_slices: set[tuple[int, int]] = set()
        self.intact_form: IntactForm | None = None

    @property
    def round_id(self) -> int:
        """The live distribution round: the tree's round count."""
        return self.tree.round_count

    # -- messaging ----------------------------------------------------------

    def send(self, kind: str, count: int = 1) -> None:
        """Count a batch of ``count`` messages of one kind."""
        self.envelopes[kind] += count

    # -- dealing ------------------------------------------------------------

    def _begin_round(self) -> int | None:
        """Start a round; on a curve its public key is broadcast."""
        secret = self.tree.begin_round(self.rng)
        if secret is not None:
            self.send("round-key")
        return secret

    def _leave(self, uid: int) -> set[int]:
        self.send("leave")
        self.view = None
        return self.tree.leave(uid)

    def deal(self, mid_round_leaves: tuple[int, ...] = ()) -> None:
        """One full distribution round, including the mid-round leave
        policy: 'abort' applies the leave and restarts cleanly, 'finish'
        completes dealing to the pre-leave membership first."""
        pending = list(mid_round_leaves)
        if pending and self.config.leave_policy == "abort":
            # The aborted partial round still produced traffic.
            self._begin_round()
            for uid in pending:
                self._leave(uid)
            pending = []
        self._deal_once()
        for uid in pending:
            self._leave(uid)

    def _deal_once(self) -> None:
        """Deal to every active user, whose group view is then the holders'
        view. A dealt share is the one message the adversary keeps, and
        only when it occupies the addressee's host: it stores each such
        host's copy at epoch 0 of the live round, in ascending id order.
        Public messages yield nothing (commitments are points, not
        coefficients)."""
        last_error: Exception | None = None
        groups = self.tree.groups()
        members = sum(map(len, groups.values()))
        for _ in range(_DEAL_ATTEMPTS):
            round_secret = self._begin_round()
            # Each member's request names its parent and child count.
            self.send("reqm", members)
            try:
                shares = distribute(self.tree, groups, self.dealer, self.config.tf, self.rng, round_secret)
            except EvalPointCollision as exc:
                last_error = exc
                continue
            self.shares, self.view = shares, groups
            self.send("share", len(shares))
            for uid in sorted(self.adversary.occupied.intersection(shares)):
                self._steal_share(uid, 0)
            return
        raise last_error

    # -- epoch stepping -------------------------------------------------------

    def _process_events(self, epoch: int) -> list[str]:
        """Run the epoch's events; returns their notes."""
        notes = []
        redeal = epoch == 0
        mid_round: list[int] = []
        for event in self.config.events:
            if event["epoch"] != epoch:
                continue
            if event["kind"] == "leave":
                if event.get("mid_round"):
                    mid_round.append(event["user"])
                    notes.append(f"leave:{event['user']}:mid-round")
                else:
                    gone = self._leave(event["user"])
                    notes.append(f"leave:{event['user']}:deactivated={len(gone)}")
            elif event["kind"] == "rejoin":
                self.tree.rejoin(event["user"], self.rng)
                # The fresh member holds no share until the next deal.
                self.shares.pop(event["user"], None)
                self.view = None
                notes.append(f"rejoin:{event['user']}")
            elif event["kind"] == "redeal":
                redeal = True
        if redeal or mid_round:
            self.deal(mid_round_leaves=tuple(mid_round))
            notes.append(f"{'redeal' if epoch else 'deal'}:round={self.round_id}")
        return notes

    def adversary_can_reconstruct(self) -> bool:
        """Whether any single-(round, epoch) slice of the stolen shares
        reaches the secret via the knowledge closure. A slice only grows
        and the closure is monotone, so a slice that gained no copy since
        the last report row keeps its verdict: only ``grown_slices`` are
        judged again, and the others answer with the last row's value."""
        if self.report.rows and self.report.rows[-1]["adversary_can_reconstruct"]:
            return True
        stolen = self.adversary.stolen_shares
        return any(knowledge_closure(self.tree, stolen[key]) for key in sorted(self.grown_slices))

    def step_epoch(self) -> dict:
        """Advance to the next epoch and run it (on a dealt world, see
        ``initial_deal``)."""
        if not self.report.rows:
            raise StepOutOfOrder("step_epoch before initial_deal: nothing is dealt yet")
        if self.epoch >= self.config.epochs:
            raise StepOutOfOrder(
                f"step_epoch past the last epoch: the scenario has {self.config.epochs} epochs"
            )
        self.epoch += 1
        return self._run_epoch()

    def _run_epoch(self) -> dict:
        """Every epoch's step, epoch 0 included: events (at epoch 0 ending
        in the deal), the adversary's move, the holders' view (built only
        when an event dropped it), from epoch 1 on renewal and claim
        resolution, then steal, cleanse, invariants, report row."""
        notes = self._process_events(self.epoch)
        plan = adversary_plan(self.config, self.epoch)
        self.adversary.occupied = set(plan["compromise"])
        self.adversary.ever_compromised.update(plan["compromise"])
        if self.view is None:
            self.view = self.tree.groups(self.shares)

        verdicts, claims = [], 0
        if self.epoch and self.config.renewal_enabled:
            perturb, false_claims = adversary_act(self.tree, self.shares, plan)
            outcome = renewal_round(
                self.tree, self.shares, self.view, self.rng,
                perturb=perturb, extra_claims=false_claims,
            )
            for kind, count in outcome.messages.items():
                self.send(kind, count)
            self.shares = outcome.shares
            claims = len(outcome.claims)
            verdicts = list(outcome.verdicts)

        self._steal_state()
        cleansed = self._cleanse(verdicts)
        self._check_invariants()
        return self._write_row(claims, verdicts, cleansed, notes)

    def _write_row(self, claims: int, verdicts, cleansed: list[int], events: list[str]) -> dict:
        """Append the epoch's report row; its ``messages`` are the epoch's
        message counts, which it then resets."""
        messages, self.envelopes = self.envelopes, Counter()
        row = {
            "epoch": self.epoch,
            "messages": dict(sorted(messages.items())),
            "messages_total": sum(messages.values()),
            "compromised": sorted(self.adversary.occupied),
            "claims": claims,
            "verdicts": [
                {
                    "accused": v.accused,
                    "outcome": v.outcome,
                    "claims": len(v.claimers),
                    "claimers": list(v.claimers),
                }
                for v in verdicts
            ],
            "cleansed": cleansed,
            "adversary_can_reconstruct": self.adversary_can_reconstruct(),
            "herzberg_all_pairs": self._herzberg_count(),
            "secret_intact": self._reconstruct_all()[0],
            "events": events,
        }
        self.report.rows.append(row)
        self.grown_slices.clear()
        return row

    def _herzberg_count(self) -> int:
        """All-pairs renewal traffic of the flat baseline on the same
        membership: every node sends every other node a polynomial."""
        n = [node.deactivated_by for node in self.tree.nodes.values()].count(None) + 1
        return n * (n - 1)

    def _reconstruct_all(self) -> tuple[bool, str]:
        """Whether every active share-holder (``view``, the holders' view)
        together recovers the secret, and the reason when they fall short.

        ``intact_form`` is kept while the round and the view stay the same.
        Each call reads every used owner's kept value live, and builds the
        form again when any owner's evaluation point or group threshold is
        not the one the form was built from; a view that falls short keeps
        no form."""
        form = self.intact_form
        if (
            form is None
            or (form.round_id, form.view) != (self.round_id, self.view)
            or (value := form.value(self.shares)) is None
        ):
            try:
                form = IntactForm.build(self)
            except InsufficientShares as exc:
                self.intact_form = None
                return False, str(exc)
            self.intact_form = form
            value = form.value(self.shares)
        return value % self.config.field.modulus == self.dealer.secret, ""

    def _held_share(self, uid: int) -> HeldShare:
        """The host's own copy of the share it holds in the live round."""
        return self.shares[uid].held_by(uid, uid in self.dealer.split)

    def _steal_state(self) -> None:
        for uid in sorted(self.adversary.occupied):
            node = self.tree.nodes[uid]
            if node.reg_token is not None:
                self.adversary.stolen_tokens[uid] = node.reg_token
            if uid in self.shares:
                self._steal_share(uid, self.shares[uid].epoch)

    def _steal_share(self, uid: int, epoch: int) -> None:
        """Copy ``uid``'s share of the live round at ``epoch``; a new copy
        grows its slice."""
        key = (self.round_id, epoch)
        copies = self.adversary.stolen_shares.setdefault(key, {})
        if uid not in copies:
            self.grown_slices.add(key)
        copies[uid] = self._held_share(uid)

    def _cleanse(self, verdicts) -> list[int]:
        cleansed = []
        for verdict in verdicts:
            if verdict.outcome == "accused-compromised":
                suspects = [verdict.accused]
            else:
                suspects = list(verdict.claimers)
            for uid in suspects:
                if uid in self.adversary.occupied:
                    self.adversary.occupied.discard(uid)
                    cleansed.append(uid)
        return sorted(cleansed)

    # -- invariants ------------------------------------------------------------

    def _check_invariants(self) -> None:
        p = self.config.field.modulus
        for uid, group in self.shares.items():
            eval_point, value = group.members[uid]
            if not (0 <= value < p and 0 < eval_point < p):
                raise InvariantViolation(
                    "single-field-modulus", f"share of {uid} outside the field"
                )
        if self.tree.curve is not None:
            xs = [n.group_key.x for n in self.tree.nodes.values() if n.group_key is not None]
            if len(xs) != len(set(xs)):
                raise InvariantViolation("group-key-x-distinct")
        ever = self.adversary.ever_compromised
        if not set(self.adversary.stolen_tokens) <= ever:
            raise InvariantViolation(
                "no-oracle-leakage", "token of a never-compromised node"
            )
        for copies in self.adversary.stolen_shares.values():
            if not copies.keys() <= ever:
                raise InvariantViolation(
                    "no-oracle-leakage", "share of a never-compromised node"
                )

    # -- orchestration -----------------------------------------------------------

    def initial_deal(self) -> None:
        """Registration, then epoch 0: registration is out of band, dealing
        is not. Epoch 0 runs its events, ending in the deal, then the
        adversary's first hop, which copies what its hosts hold. A world is
        dealt once it has its epoch-0 row, as a restored one has."""
        if self.report.rows:
            raise StepOutOfOrder("initial_deal on a world already dealt")
        self.tree.register(self.config.parents, self.rng)
        self._run_epoch()

    def finalize(self) -> dict:
        """Final reconstruction check and adversary outcome, once per world
        (snapshots do not store it, so a restored world finalizes once)."""
        if not self.report.rows:
            raise StepOutOfOrder("finalize before initial_deal: nothing is dealt yet")
        if self.report.final:
            raise StepOutOfOrder("finalize on a finished world")
        correct, note = self._reconstruct_all()
        self.report.final = {
            "reconstruction_correct": correct,
            "secret_recovered_by_adversary": self.adversary_can_reconstruct(),
            "epochs_run": self.epoch,
            "final_round": self.round_id,
        }
        if note:
            self.report.final["reconstruction_note"] = note
        return self.report.final

    def run(self, on_boundary: Callable[[World], None] | None = None) -> SimReport:
        """The deal if the world is blank, each remaining epoch, then
        ``finalize`` (which refuses a finished world); ``on_boundary(world)``
        runs at each epoch boundary reached, not at the one resumed from."""
        steps = [self.step_epoch] * (self.config.epochs - self.epoch)
        for step in ([] if self.report.rows else [self.initial_deal]) + steps:
            step()
            if on_boundary is not None:
                on_boundary(self)
        self.finalize()
        return self.report
