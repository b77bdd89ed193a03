"""Deterministic simulated network and mobile adversary.

Messages travel as addressed envelopes: sealed payloads reach only their
addressee (the secure channel is axiomatic), broadcasts and commitment
multicasts are public. Delivery is reliable and immediate: ``World.send``
hands each envelope to the adversary's view in the same call, so every
message lands within its sending epoch, which is what the per-subtree
synchronization assumption demands of the transport. ``World.envelopes``
is the current epoch's scratch log; the epoch's report row counts its
``messages`` from it and empties it.

The adversary hops between hosts at epoch boundaries, holding at most its
per-epoch budget of nodes at a time. On an occupied node it reads all
local state (share, registration token, round key) and controls outgoing
protocol messages; it cannot break the sealed channel toward anyone else.
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
from dataclasses import dataclass, field, replace

from .config import AdversaryConfig, ScenarioConfig, expand_tree
from .errors import InvariantViolation
from .hierarchy import ROOT_ID, HierarchyTree, RoundState
from .proactive import ClaimRecord, RenewalBundle, file_claim, renewal_round
from .sharing import (
    DealerState,
    EvalPointCollision,
    InsufficientShares,
    ShareRecord,
    StaleEpoch,
    distribute,
    knowledge_closure,
    reconstruct,
)

# Toy-curve rounds collide often (9 usable x-coordinates, two of them on
# x = 0), so the retry budget is generous; each retry is one fresh round.
_DEAL_ATTEMPTS = 128


@dataclass(frozen=True)
class Envelope:
    """One addressed message of the current epoch; sealed payloads are
    opaque to everyone but the recipients (unless a recipient is currently
    compromised)."""

    kind: str
    sender: int
    recipients: tuple[int, ...]
    payload: object
    sealed: bool


@dataclass
class AdversaryState:
    """Mobile adversary: its configuration (strategy, budget, targets,
    script), occupation, and accumulated knowledge.

    Stolen knowledge persists across cleanses (what was copied stays
    copied); tokens and shares may only ever belong to nodes that were
    compromised at some point, which the run asserts every epoch. Stolen
    shares are keyed by (round, epoch, owner) of the record.
    """

    config: AdversaryConfig
    occupied: set[int] = field(default_factory=set)
    compromise_epochs: dict[int, int] = field(default_factory=dict)
    stolen_shares: dict[tuple[int, int, int], ShareRecord] = field(default_factory=dict)
    stolen_tokens: dict[int, int] = field(default_factory=dict)
    cursor: int = 0

    @property
    def ever_compromised(self) -> set[int]:
        return set(self.compromise_epochs)


def steal_share(adv: AdversaryState, record: ShareRecord) -> None:
    adv.stolen_shares[(record.round_id, record.epoch, record.owner)] = record


def adversary_observe(adv: AdversaryState, envelope: Envelope) -> None:
    """Let the adversary read an envelope: sealed payloads only when the
    addressee is currently occupied, public ones always (but commitments
    yield no coefficients — only the points are seen). A share is the one
    payload it keeps."""
    sealed_share = envelope.sealed and envelope.kind == "share"
    if sealed_share and not adv.occupied.isdisjoint(envelope.recipients):
        steal_share(adv, envelope.payload)


def _script_for_epoch(adv: AdversaryState, epoch: int) -> dict:
    merged: dict = {"compromise": [], "tamper": [], "false_claims": []}
    for entry in adv.config.script:
        if entry["epoch"] != epoch:
            continue
        merged["compromise"].extend(entry.get("compromise", []))
        merged["tamper"].extend(entry.get("tamper", []))
        merged["false_claims"].extend(entry.get("false_claims", []))
    return merged


def adversary_hop(adv: AdversaryState, tree: HierarchyTree, epoch: int) -> None:
    """Pick the occupied set for the epoch: scripted sets verbatim, other
    strategies rotate deterministically through the target list."""
    if adv.config.strategy == "scripted":
        chosen = sorted(set(_script_for_epoch(adv, epoch)["compromise"]))
    else:
        pool = list(adv.config.targets) or sorted(tree.nodes)
        chosen = []
        if adv.config.budget > 0 and pool:
            for _ in range(min(adv.config.budget, len(pool))):
                chosen.append(pool[adv.cursor % len(pool)])
                adv.cursor += 1
    adv.occupied = set(chosen)
    for uid in chosen:
        adv.compromise_epochs.setdefault(uid, epoch)


def adversary_act(
    adv: AdversaryState, tree: HierarchyTree, shares: dict[int, ShareRecord], epoch: int
):
    """Protocol perturbations for the epoch: a tamper hook for renewal
    bundles plus any false claims. Passive strategies perturb nothing."""
    tampered_pairs: set[tuple[int, int]] = set()
    claims: list[ClaimRecord] = []

    if adv.config.strategy == "active-corruptor":
        for parent in adv.occupied:
            tampered_pairs.update((parent, child) for child in tree.active_children(parent))
    elif adv.config.strategy == "false-claimer":
        for uid in sorted(adv.occupied):
            if uid in tree.nodes and tree.nodes[uid].active and uid in shares:
                claims.append(file_claim(tree, uid, tree.nodes[uid].parent, epoch))
    elif adv.config.strategy == "scripted":
        entry = _script_for_epoch(adv, epoch)
        for tam in entry["tamper"]:
            kids = tam["children"] or tree.active_children(tam["parent"])
            for child in kids:
                tampered_pairs.add((tam["parent"], child))
        for fc in entry["false_claims"]:
            for claimer in fc["claimers"]:
                claims.append(file_claim(tree, claimer, fc["accused"], epoch))

    def perturb(bundle: RenewalBundle) -> RenewalBundle:
        if (bundle.sender, bundle.recipient) not in tampered_pairs:
            return bundle
        if bundle.sender not in adv.occupied:
            return bundle
        return replace(bundle, delta=(bundle.delta + 1) % tree.field.modulus)

    return (perturb if tampered_pairs else None), claims


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
    """The whole simulation: tree, dealer, shares, adversary, the current
    epoch's envelopes, and the report."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.tree = HierarchyTree(config.curve, config.field)
        self.dealer = DealerState(secret=config.secret % config.field.modulus)
        self.shares: dict[int, ShareRecord] = {}
        self.epoch = 0
        self.round_id = 0
        self.envelopes: list[Envelope] = []
        self.report = SimReport(scenario=config.name, seed=config.seed)
        self.adversary = AdversaryState(config.adversary)
        self._register_all()

    # -- construction -------------------------------------------------------

    def _register_all(self) -> None:
        for _uid, parent in expand_tree(self.config.tree):
            self.tree.register(parent, self.rng)

    # -- messaging ----------------------------------------------------------

    def send(self, kind: str, sender: int, recipients: tuple[int, ...], payload, sealed: bool) -> None:
        envelope = Envelope(kind, sender, recipients, payload, sealed)
        self.envelopes.append(envelope)
        adversary_observe(self.adversary, envelope)

    # -- dealing ------------------------------------------------------------

    def _broadcast_round(self, round_state: RoundState) -> None:
        if self.config.curve is not None:
            self.send(
                "round-key", ROOT_ID, tuple(self.tree.active_users()),
                round_state.public_key, False,
            )

    def _request_messages(
        self, levels: dict[int, list[int]], groups: dict[int, list[int]]
    ) -> None:
        for level in sorted(levels):
            for uid in levels[level]:
                node = self.tree.nodes[uid]
                self.send(
                    "reqm", uid, (ROOT_ID,),
                    (uid, node.parent, len(groups.get(uid, ()))), False,
                )

    def _leave(self, uid: int) -> set[int]:
        self.send("leave", uid, tuple(self.tree.active_users()), uid, False)
        return self.tree.leave(uid)

    def deal(self, mid_round_leaves: tuple[int, ...] = ()) -> None:
        """One full distribution round, including the mid-round leave
        policy: 'abort' applies the leave and restarts cleanly, 'finish'
        completes dealing to the pre-leave membership first."""
        pending = list(mid_round_leaves)
        if pending and self.config.leave_policy == "abort":
            # The aborted partial round still produced traffic.
            aborted = self.tree.begin_round(self.rng)
            self._broadcast_round(aborted)
            for uid in pending:
                self._leave(uid)
            pending = []
        self._deal_once()
        for uid in pending:
            self._leave(uid)

    def _deal_once(self) -> None:
        last_error: Exception | None = None
        levels = self.tree.levels()
        groups = self.tree.groups()
        for _ in range(_DEAL_ATTEMPTS):
            round_state = self.tree.begin_round(self.rng)
            self._broadcast_round(round_state)
            self.tree.assign_round_keys(round_state)
            self._request_messages(levels, groups)
            try:
                shares = distribute(
                    self.tree, self.dealer, round_state, self.config.tf,
                    self.rng, self.config.eval_mode, levels=levels,
                )
            except EvalPointCollision as exc:
                last_error = exc
                continue
            self.shares = shares
            self.round_id = round_state.round_id
            for record in [shares[uid] for uid in sorted(shares)]:
                self.send("share", ROOT_ID, (record.owner,), record, True)
            return
        raise last_error

    # -- epoch stepping -------------------------------------------------------

    def _process_events(self, epoch: int) -> list[str]:
        notes = []
        redeal = False
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
                notes.append(f"rejoin:{event['user']}")
            elif event["kind"] == "redeal":
                redeal = True
        if redeal or mid_round:
            self.deal(mid_round_leaves=tuple(mid_round))
            notes.append(f"redeal:round={self.round_id}")
        return notes

    def adversary_can_reconstruct(self) -> bool:
        """Whether any single-(round, epoch) slice of the stolen shares
        reaches the secret via the knowledge closure."""
        slices: dict[tuple[int, int], dict[int, ShareRecord]] = {}
        for (round_id, epoch, owner), record in self.adversary.stolen_shares.items():
            slices.setdefault((round_id, epoch), {})[owner] = record
        return any(
            knowledge_closure(self.tree, members)
            for _key, members in sorted(slices.items())
        )

    def step_epoch(self) -> dict:
        """Advance one epoch: events, adversary hop, renewal, claim
        resolution, cleanse, report row."""
        self.epoch += 1
        notes = self._process_events(self.epoch)
        adversary_hop(self.adversary, self.tree, self.epoch)
        perturb, false_claims = adversary_act(
            self.adversary, self.tree, self.shares, self.epoch
        )

        verdicts = []
        claims = []
        if self.config.renewal_enabled:
            outcome = renewal_round(
                self.tree, self.shares, self.epoch, self.rng,
                perturb=perturb, extra_claims=false_claims,
                on_message=self.send,
            )
            self.shares = outcome.shares
            claims = list(outcome.claims)
            verdicts = list(outcome.verdicts)

        self._steal_state()
        cleansed = self._cleanse(verdicts)
        self._check_invariants()
        return self._write_row(len(claims), verdicts, cleansed, notes)

    def _write_row(self, claims: int, verdicts, cleansed: list[int], events: list[str]) -> dict:
        """Append the epoch's report row; its ``messages`` are counted from
        the epoch's envelopes, which it then drains."""
        messages = Counter(env.kind for env in self.envelopes)
        self.envelopes = []
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
                    "claims": v.claim_count,
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
        return row

    def _herzberg_count(self) -> int:
        """All-pairs renewal traffic of the flat baseline on the same
        membership: every node sends every other node a polynomial."""
        n = len(self.tree.active_users()) + 1
        return n * (n - 1)

    def _reconstruct_all(self) -> tuple[bool, str]:
        """Whether every active share-holder together recovers the dealer's
        secret, and the reason when their shares fall short."""
        participants = [uid for uid in self.tree.active_users() if uid in self.shares]
        try:
            value = reconstruct(self.tree, self.shares, participants)
        except (InsufficientShares, StaleEpoch) as exc:
            return False, str(exc)
        return value == self.dealer.secret, ""

    def _steal_state(self) -> None:
        for uid in sorted(self.adversary.occupied):
            if uid not in self.tree.nodes:
                continue
            node = self.tree.nodes[uid]
            if node.reg_token is not None:
                self.adversary.stolen_tokens[uid] = node.reg_token
            record = self.shares.get(uid)
            if record is not None:
                steal_share(self.adversary, record)

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
        owners = [rec.owner for rec in self.shares.values()]
        if len(owners) != len(set(owners)):
            raise InvariantViolation("single-share-per-user")
        p = self.config.field.modulus
        for rec in self.shares.values():
            if not (0 <= rec.value < p and 0 < rec.eval_point < p):
                raise InvariantViolation(
                    "single-field-modulus", f"share of {rec.owner} outside the field"
                )
        xs = [n.group_key.x for n in self.tree.nodes.values() if n.group_key is not None]
        if len(xs) != len(set(xs)):
            raise InvariantViolation("group-key-x-distinct")
        ever = self.adversary.ever_compromised
        if not set(self.adversary.stolen_tokens) <= ever:
            raise InvariantViolation(
                "no-oracle-leakage", "token of a never-compromised node"
            )
        for _round, _epoch, owner in self.adversary.stolen_shares:
            if owner not in ever:
                raise InvariantViolation(
                    "no-oracle-leakage", "share of a never-compromised node"
                )

    # -- orchestration -----------------------------------------------------------

    def initial_deal(self) -> None:
        """Epoch-0 row: registration is out of band, dealing is not. The
        adversary may already sit on hosts and read their sealed mail."""
        adversary_hop(self.adversary, self.tree, 0)
        mid_round = tuple(
            e["user"]
            for e in self.config.events
            if e["epoch"] == 0 and e["kind"] == "leave" and e.get("mid_round")
        )
        for event in self.config.events:
            if event["epoch"] == 0 and event["kind"] == "leave" and not event.get("mid_round"):
                self._leave(event["user"])
        self.deal(mid_round_leaves=mid_round)
        self._steal_state()
        self._check_invariants()
        self._write_row(0, [], [], [f"deal:round={self.round_id}"])

    def finalize(self) -> dict:
        """Final reconstruction check and adversary outcome."""
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

    def run(self) -> SimReport:
        self.initial_deal()
        for _ in range(self.config.epochs):
            self.step_epoch()
        self.finalize()
        return self.report
