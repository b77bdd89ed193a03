"""Epoch-based share renewal with curve-commitment verification.

Each 2-leveled subtree (a parent with its direct children; the server
counts as the parent of the level-1 group) renews its children's shares
once per epoch: the subtree root samples a polynomial with free
coefficient zero and the group's dealt degree, sends each child its
evaluation over a sealed channel, and multicasts curve commitments to the
nonzero coefficients so every child can check its value without learning
the polynomial. Old shares become useless, the group's jointly-held value
never changes.

Renewal rounds are deterministic: every subtree draws from its own
sub-generator derived from (round entropy, subtree root), so a group's
renewal does not depend on which other groups renew or in what order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .algebra import poly_eval, sample_polynomial
from .curve import CurveParams, CurvePoint, multi_scalar_mul, scalar_mul
from .errors import HierShareError
from .hierarchy import ROOT_ID, HierarchyTree
from .sharing import ShareRecord, StaleEpoch


class NoChildren(HierShareError):
    """Renewal requested for a subtree root with no dealt children."""


class EpochSkew(HierShareError):
    """A bundle's epoch does not directly follow the share's epoch."""


class MixedAccused(HierShareError):
    """Claims for different accused nodes or epochs were resolved together."""


ACCUSED_COMPROMISED = "accused-compromised"
CLAIMERS_COMPROMISED = "claimers-compromised"


@dataclass(frozen=True)
class RenewalBundle:
    """One child's renewal delivery for one epoch.

    ``delta`` is sealed to the recipient; ``commitments`` are the multicast
    curve points for coefficients 1..k (empty in no-curve mode and for
    degree-0 groups). The generating polynomial always has free
    coefficient zero.
    """

    sender: int
    recipient: int
    epoch: int
    delta: int
    commitments: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class ClaimRecord:
    claimer: int
    accused: int
    epoch: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of the (n - k) rule for one accused node in one epoch."""

    epoch: int
    accused: int
    outcome: str
    claim_count: int
    claimers: tuple[int, ...]


def generate_renewal(
    tree: HierarchyTree,
    shares: dict[int, ShareRecord],
    root_id: int,
    epoch: int,
    rng: random.Random,
) -> list[RenewalBundle]:
    """Produce the renewal bundles a subtree root sends its children.

    The polynomial degree equals the group's dealt degree (threshold - 1),
    so a single-child threshold-1 group gets the zero polynomial and an
    empty commitment list.
    """
    kids = [c for c in tree.active_children(root_id) if c in shares]
    if not kids:
        raise NoChildren(f"subtree root {root_id} has no dealt active children")
    records = [shares[c] for c in kids]
    epochs = {rec.epoch for rec in records}
    if epochs != {epoch}:
        raise EpochSkew(
            f"subtree {root_id} asked to renew epoch {epoch}, "
            f"children sit at {sorted(epochs)}"
        )
    thresholds = {rec.threshold for rec in records}
    if len(thresholds) > 1:
        raise ValueError(f"inconsistent thresholds under {root_id}")
    degree = thresholds.pop() - 1

    p = tree.field.modulus
    delta_poly = sample_polynomial(rng, degree, 0, p)
    if tree.curve is not None:
        commitments = tuple(
            scalar_mul(coeff, tree.curve.base_point)
            for coeff in delta_poly.coefficients[1:]
        )
    else:
        commitments = ()
    return [
        RenewalBundle(
            sender=root_id,
            recipient=rec.owner,
            epoch=epoch + 1,
            delta=poly_eval(delta_poly, rec.eval_point, p),
            commitments=commitments,
        )
        for rec in records
    ]


def verify_renewal(
    bundle: RenewalBundle, eval_point: int, curve: CurveParams
) -> bool:
    """Check delta*G against the committed polynomial evaluated in the group.

    Complete (honest bundles always pass) and sound at the recorded degree:
    any mismatch between delta and the committed coefficients, including a
    smuggled nonzero free coefficient, shifts the left side off the right.
    """
    lhs = scalar_mul(bundle.delta, curve.base_point)
    rhs = multi_scalar_mul(
        (
            (pow(eval_point, h, curve.order), commitment)
            for h, commitment in enumerate(bundle.commitments, start=1)
        ),
        curve,
    )
    return lhs == rhs


def accepts_renewal(
    bundle: RenewalBundle, share: ShareRecord, curve: CurveParams
) -> bool:
    """A child's check of its bundle: one commitment per nonzero
    coefficient of the group's dealt degree (threshold - 1), and a delta
    that matches them. A longer commitment vector would verify a
    degree-raising polynomial and break the group's reconstruction."""
    return len(bundle.commitments) == share.threshold - 1 and verify_renewal(
        bundle, share.eval_point, curve
    )


def apply_renewal(share: ShareRecord, bundle: RenewalBundle, p: int) -> ShareRecord:
    """Fold a renewal delta into a share mod p; the epoch advances by one
    and the evaluation point is untouched. The caller has already checked
    the bundle (``accepts_renewal``) in curve mode."""
    if bundle.recipient != share.owner:
        raise ValueError(
            f"bundle addressed to {bundle.recipient}, share owned by {share.owner}"
        )
    if bundle.epoch != share.epoch + 1:
        raise EpochSkew(
            f"bundle epoch {bundle.epoch} does not follow share epoch {share.epoch}"
        )
    return ShareRecord(
        owner=share.owner,
        eval_point=share.eval_point,
        value=(share.value + bundle.delta) % p,
        threshold=share.threshold,
        round_id=share.round_id,
        epoch=bundle.epoch,
        split=share.split,
    )


def file_claim(
    tree: HierarchyTree, claimer: int, accused: int, epoch: int
) -> ClaimRecord:
    """Record a compromise claim with the administrator role; only a child
    may accuse its own parent."""
    if tree.node(claimer).parent != accused:
        raise ValueError(f"user {claimer} is not a child of {accused}")
    return ClaimRecord(claimer=claimer, accused=accused, epoch=epoch)


def resolve_claims(
    claims: Sequence[ClaimRecord], n_children: int, k: int
) -> Verdict | None:
    """The (n - k) rule: with at least n - k claims the accused is judged
    compromised, with fewer the claimers are. No claims, no verdict."""
    if not claims:
        return None
    accused = {c.accused for c in claims}
    epochs = {c.epoch for c in claims}
    if len(accused) > 1 or len(epochs) > 1:
        raise MixedAccused(
            f"claims span accused {sorted(accused)} / epochs {sorted(epochs)}"
        )
    count = len(claims)
    outcome = ACCUSED_COMPROMISED if count >= n_children - k else CLAIMERS_COMPROMISED
    return Verdict(
        epoch=epochs.pop(),
        accused=accused.pop(),
        outcome=outcome,
        claim_count=count,
        claimers=tuple(sorted(c.claimer for c in claims)),
    )


@dataclass
class RenewalOutcome:
    """Everything one renewal round produced."""

    shares: dict[int, ShareRecord]
    claims: tuple[ClaimRecord, ...]
    verdicts: tuple[Verdict, ...]


MessageHook = Callable[[str, int, tuple[int, ...], object, bool], None]
PerturbHook = Callable[[RenewalBundle], RenewalBundle]


def renewal_round(
    tree: HierarchyTree,
    shares: dict[int, ShareRecord],
    epoch: int,
    rng: random.Random,
    *,
    perturb: PerturbHook | None = None,
    extra_claims: Iterable[ClaimRecord] = (),
    on_message: MessageHook | None = None,
) -> RenewalOutcome:
    """Run one renewal epoch across every 2-leveled subtree: each parent
    with at least one dealt active child, in id order.

    ``epoch`` is the round index claims and verdicts are tagged with;
    normally all groups sit at epoch-1 and move to epoch, but a subtree
    whose previous renewal was discarded renews from wherever it lags.

    A subtree commits only if none of its children's verifications failed;
    a genuine failure means tampering somewhere, so the whole subtree's
    renewal is discarded for the epoch (keeping the group epoch-consistent)
    and the refusing children's claims go to the administrator. Verdicts
    are returned for the caller to act on (cleansing is the simulation's
    job, since it owns the adversary).

    Traffic goes through ``on_message``: one sealed delta per dealt child
    plus, in curve mode, one commitment multicast per subtree root.

    With no subtree to renew the round is empty: the shares come back
    unchanged with no claims (``extra_claims`` included), no traffic, and
    nothing drawn from ``rng``.
    """
    groups = tree.groups(shares)
    if not groups:
        return RenewalOutcome(shares=dict(shares), claims=(), verdicts=())

    entropy = rng.getrandbits(64)
    new_shares = dict(shares)
    claims: list[ClaimRecord] = list(extra_claims)

    for root, kids in groups.items():
        group_epochs = {shares[c].epoch for c in kids}
        if len(group_epochs) > 1:
            raise StaleEpoch(
                f"subtree {root} children span epochs {sorted(group_epochs)}"
            )
        subtree_rng = random.Random((entropy << 32) | (root & 0xFFFFFFFF))
        bundles = generate_renewal(tree, shares, root, group_epochs.pop(), subtree_rng)

        if tree.curve is not None and on_message is not None:
            on_message("commitments", root, tuple(kids), bundles[0].commitments, False)

        delivered: list[tuple[ShareRecord, RenewalBundle, bool]] = []
        for bundle in bundles:
            if perturb is not None:
                bundle = perturb(bundle)
            if on_message is not None:
                on_message(
                    "renewal-delta", root, (bundle.recipient,), bundle, True
                )
            rec = shares[bundle.recipient]
            ok = tree.curve is None or accepts_renewal(bundle, rec, tree.curve)
            delivered.append((rec, bundle, ok))

        refused = [rec.owner for rec, _, ok in delivered if not ok]
        if refused:
            claims.extend(file_claim(tree, child, root, epoch) for child in refused)
            if on_message is not None:
                for child in refused:
                    on_message("claim", child, (ROOT_ID,), (child, root, epoch), False)
            continue
        for rec, bundle, _ in delivered:
            new_shares[rec.owner] = apply_renewal(rec, bundle, tree.field.modulus)

    if on_message is not None:
        for claim in extra_claims:
            on_message(
                "claim", claim.claimer, (ROOT_ID,),
                (claim.claimer, claim.accused, claim.epoch), False,
            )

    verdicts: list[Verdict] = []
    by_accused: dict[int, list[ClaimRecord]] = {}
    for claim in claims:
        by_accused.setdefault(claim.accused, []).append(claim)
    for accused in sorted(by_accused):
        group = groups.get(accused, [])
        threshold = shares[group[0]].threshold if group else 1
        verdict = resolve_claims(by_accused[accused], len(group), threshold - 1)
        if verdict is not None:
            verdicts.append(verdict)

    return RenewalOutcome(
        shares=new_shares,
        claims=tuple(claims),
        verdicts=tuple(verdicts),
    )
