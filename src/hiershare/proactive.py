"""Epoch-based share renewal with curve-commitment verification.

Each 2-leveled subtree (a parent with its direct children; the server
counts as the parent of the level-1 group) renews its children's shares
once per epoch: the subtree root samples a polynomial with free
coefficient zero and the group's dealt degree, sends each child its
evaluation over a sealed channel, and multicasts curve commitments to the
nonzero coefficients so every child can check its value without learning
the polynomial. Old shares become useless, the group's jointly-held value
never changes.

Renewal rounds are deterministic: a round takes 64 bits of entropy from
its caller's generator, and each subtree root's polynomial is read from
one SHAKE-256 digest keyed by (round entropy, subtree root)
(``keyed_polynomial``), so a group's renewal does not depend on which
other groups renew or in what order. A group's commitments are computed
only where something reads a point (``Commitments``), and bundles only
where a tamper hook or the curve check reads them. A round returns its
traffic as one count per message kind, which the caller sends as one
batch each, and counts the points committed and the children's checks.

In the protocol each child checks its own bundle: δ_j·G = Σ_h x_j^h·C_h.
The simulator reaches the same verdicts by comparing each child's bundle
with the one its parent generated (``refuses_renewal``).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .algebra import keyed_polynomial, poly_eval
from .curve import CurveParams, CurvePoint, base_mul_equals, base_muls, scalar_mul
from .errors import HierShareError
from .hierarchy import HierarchyTree
from .sharing import GroupShares

# ``scalar_mul`` is re-exported, uncalled: the benchmark tracer patches it here too.
__all__ = ["NoChildren", "ACCUSED_COMPROMISED", "CLAIMERS_COMPROMISED", "Commitments", "RenewalBundle",
           "ClaimRecord", "Verdict", "generate_renewal", "verify_renewal", "accepts_renewal",
           "refuses_renewal", "apply_renewal", "file_claim", "resolve_claims",
           "RenewalOutcome", "renewal_key", "PerturbHook", "renewal_round", "scalar_mul"]


class NoChildren(HierShareError):
    """Renewal requested for a subtree root with no dealt children."""


ACCUSED_COMPROMISED = "accused-compromised"
CLAIMERS_COMPROMISED = "claimers-compromised"


class Commitments(Sequence):
    """The points f_1·G, ..., f_k·G a subtree root multicasts, kept as the
    coefficients f_1..f_k mod n. The first read of a point (iteration,
    indexing, or comparison with a tuple) computes all k in one
    ``base_muls`` call. Two ``Commitments`` compare by their coefficients,
    as G has prime order n (``validate_curve``)."""

    def __init__(self, coefficients: Sequence[int], curve: CurveParams):
        self.coefficients, self.curve = tuple(c % curve.order for c in coefficients), curve

    @functools.cached_property
    def points(self) -> tuple[CurvePoint, ...]:
        return tuple(base_muls(self.coefficients, self.curve))

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, index):
        return self.points[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Commitments):
            return (self.curve, self.coefficients) == (other.curve, other.coefficients)
        return self.points == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.points)


class RenewalBundle(NamedTuple):
    """One child's renewal delivery for one epoch.

    ``delta`` is sealed to the recipient; ``commitments`` are the multicast
    curve points for coefficients 1..k (empty in no-curve mode, and a
    ``Commitments`` as the parent generates them). The generating
    polynomial always has free coefficient zero.
    """

    sender: int
    recipient: int
    delta: int
    commitments: Sequence[CurvePoint]


@dataclass(frozen=True)
class ClaimRecord:
    claimer: int
    accused: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of the (n - k) rule for one accused node in one epoch."""

    accused: int
    outcome: str
    claimers: tuple[int, ...]


def generate_renewal(
    tree: HierarchyTree,
    group: GroupShares,
    owners: Sequence[int],
    delta_poly: Sequence[int],
) -> list[RenewalBundle]:
    """The renewal bundles ``group``'s parent (its members' tree parent)
    sends the members ``owners`` (its active ones, in id order) for the
    polynomial ``delta_poly``: free coefficient zero and the group's dealt
    degree (threshold - 1), so a single-child threshold-1 group gets the
    zero polynomial and an empty commitment list. In curve mode every
    bundle carries one ``Commitments`` of the k coefficients."""
    sender = tree.nodes[next(iter(group.members))].parent
    if not owners:
        raise NoChildren(f"subtree root {sender} has no dealt active children")
    p = tree.p
    commitments = () if tree.curve is None else Commitments(delta_poly[1:], tree.curve)
    return [
        RenewalBundle(sender, owner, poly_eval(delta_poly, group.members[owner][0], p), commitments)
        for owner in owners
    ]


def verify_renewal(bundle: RenewalBundle, eval_point: int, curve: CurveParams) -> bool:
    """Check delta*G against the committed polynomial at eval_point, in one
    Straus pass (``base_mul_equals``).

    Complete (honest bundles always pass) and sound at the recorded degree:
    any mismatch between delta and the committed coefficients, including a
    smuggled nonzero free coefficient, shifts the left side off the right.
    """
    n = curve.order
    pairs = ((pow(eval_point, h, n), C) for h, C in enumerate(bundle.commitments, start=1))
    return base_mul_equals(bundle.delta, pairs, curve)


def accepts_renewal(bundle: RenewalBundle, group: GroupShares, curve: CurveParams) -> bool:
    """A child's check of its bundle: one commitment per nonzero
    coefficient of the group's dealt degree (threshold - 1), and a delta
    that matches them at the child's point. A longer commitment vector
    would verify a degree-raising polynomial and break the group's
    reconstruction."""
    eval_point = group.members[bundle.recipient][0]
    return len(bundle.commitments) == group.threshold - 1 and verify_renewal(
        bundle, eval_point, curve
    )


def refuses_renewal(
    sent: RenewalBundle, got: RenewalBundle, group: GroupShares, curve: CurveParams
) -> bool:
    """Whether the recipient of ``got`` refuses it, ``sent`` being the
    bundle the parent generated in its place. ``sent`` passes its own check
    (k = threshold - 1 commitments f_i·G, δ = f(x) mod n, as the tree's
    field is the curve order's), so an unchanged bundle is accepted; one
    changed only in its delta is refused iff the delta moved mod n, as G
    has prime order n (``validate_curve``); any other change goes to
    ``accepts_renewal``. A bundle that keeps the parent's ``Commitments``
    (as ``_replace`` of the delta does) is judged computing no point."""
    if got == sent:
        return False
    if got._replace(delta=sent.delta) == sent:
        return (got.delta - sent.delta) % curve.order != 0
    return not accepts_renewal(got, group, curve)


def apply_renewal(
    group: GroupShares, delivered: Sequence[RenewalBundle], p: int
) -> GroupShares:
    """The group's record one epoch on: each recipient's value plus its
    delta mod p, evaluation points untouched. Members with no bundle (those
    who left) are not in it. The caller has already checked the bundles
    (``refuses_renewal``) in curve mode."""
    old = group.members
    members = {uid: (old[uid][0], (old[uid][1] + delta) % p) for _, uid, delta, _ in delivered}
    return GroupShares(group.epoch + 1, group.threshold, members)


def file_claim(tree: HierarchyTree, claimer: int, accused: int) -> ClaimRecord:
    """Record a compromise claim with the administrator role; only a child
    may accuse its own parent."""
    if tree.node(claimer).parent != accused:
        raise ValueError(f"user {claimer} is not a child of {accused}")
    return ClaimRecord(claimer=claimer, accused=accused)


def resolve_claims(
    claims: Iterable[ClaimRecord],
    groups: Mapping[int, Sequence[int]],
    shares: Mapping[int, GroupShares],
) -> tuple[Verdict, ...]:
    """The (n - k) rule over one epoch's claims: one verdict per accused,
    in id order. n is the number of children the accused renews (its entry
    in ``groups``, the tree's ``groups(shares)``) and k that group's dealt
    degree, both 0 when it renews no group. With at least n - k claims,
    a repeated claimer counting each time, the accused is judged
    compromised; with fewer, its claimers are."""
    by_accused: dict[int, list[int]] = {}
    for claim in claims:
        by_accused.setdefault(claim.accused, []).append(claim.claimer)
    verdicts = []
    for accused, claimers in sorted(by_accused.items()):
        kids = groups.get(accused, ())
        k = shares[kids[0]].threshold - 1 if kids else 0
        outcome = ACCUSED_COMPROMISED if len(claimers) >= len(kids) - k else CLAIMERS_COMPROMISED
        verdicts.append(Verdict(accused, outcome, tuple(sorted(claimers))))
    return tuple(verdicts)


@dataclass
class RenewalOutcome:
    """Everything one renewal round produced, its traffic as one count per
    message kind, and in curve mode the points committed (threshold - 1
    per group) and the child checks (one per dealt child), computed or not."""

    shares: dict[int, GroupShares]
    claims: tuple[ClaimRecord, ...]
    verdicts: tuple[Verdict, ...]
    messages: dict[str, int]
    committed_points: int = 0
    child_checks: int = 0


def renewal_key(entropy: int, root: int) -> bytes:
    """The key of the renewal polynomial of the group under ``root`` in a
    round of 64-bit ``entropy``: the entropy in 8 little-endian bytes, then
    the root's decimal digits. The entropy's fixed width makes the key
    one-to-one in (entropy, root)."""
    return entropy.to_bytes(8, "little") + b"%d" % root


PerturbHook = Callable[[RenewalBundle], RenewalBundle]


def renewal_round(
    tree: HierarchyTree,
    shares: dict[int, GroupShares],
    groups: Mapping[int, Sequence[int]],
    rng: random.Random,
    *,
    perturb: PerturbHook | None = None,
    extra_claims: Iterable[ClaimRecord] = (),
) -> RenewalOutcome:
    """Run one renewal epoch across every 2-leveled subtree: each parent
    with at least one dealt active child, in id order.

    ``shares`` maps each holder to its group's record, as ``distribute``
    returns it; ``groups`` is ``tree.groups(shares)``, which the round leaves valid.
    Each group moves one epoch on from its own record's, so a subtree
    whose previous renewal was discarded renews from wherever it lags.
    The round takes one ``getrandbits(64)`` from ``rng``, its entropy e,
    and the group under root r draws its polynomial (free coefficient
    zero, the group's dealt degree) by ``keyed_polynomial`` under
    ``renewal_key(e, r)``. Bundles are built only where they are read,
    when ``perturb`` is set (it then gets every bundle) or the tree has a
    curve; otherwise each child's value gains f(x) mod p directly.

    A subtree commits only if none of its children refuses its bundle
    (``refuses_renewal``, against the bundle the parent generated); its
    active children then hold one new record, and members who left keep
    the old one. A genuine failure means tampering somewhere, so the whole
    subtree's renewal is discarded for the epoch and the refusing
    children's claims go to the administrator.
    One ``resolve_claims`` pass then judges all of the epoch's claims,
    ``extra_claims`` included, against the groups as they stood before the
    round. Verdicts are returned for the caller to act on (cleansing is the
    simulation's job, since it owns the adversary).

    The outcome's ``messages`` count the round's traffic per kind: in
    curve mode one ``commitments`` multicast per subtree root, one sealed
    ``renewal-delta`` per dealt child, and one ``claim`` per claim,
    ``extra_claims`` included, when there are any.

    With no subtree to renew the round is empty: the shares come back
    unchanged with no claims (``extra_claims`` included), no traffic, and
    nothing drawn from ``rng``.
    """
    if not groups:
        return RenewalOutcome(shares=dict(shares), claims=(), verdicts=(), messages={})

    entropy = rng.getrandbits(64)
    new_shares = dict(shares)
    claims: list[ClaimRecord] = list(extra_claims)
    p = tree.p
    polys = {
        root: keyed_polynomial(renewal_key(entropy, root), shares[kids[0]].threshold - 1, 0, p)
        for root, kids in groups.items()
    }

    for root, kids in groups.items():
        group = shares[kids[0]]
        if perturb is None and tree.curve is None:
            # Nothing reads the bundles: add f(x), by Horner reduced once.
            old, members, top_first = group.members, {}, polys[root][::-1]
            for kid in kids:
                x, value = old[kid]
                acc = 0
                for coeff in top_first:
                    acc = acc * x + coeff
                members[kid] = (x, (value + acc) % p)
            renewed = GroupShares(group.epoch + 1, group.threshold, members)
        else:
            bundles = generate_renewal(tree, group, kids, polys[root])
            delivered = bundles if perturb is None else [perturb(bundle) for bundle in bundles]
            refused = [] if tree.curve is None else [
                got.recipient for sent, got in zip(bundles, delivered)
                if refuses_renewal(sent, got, group, tree.curve)
            ]
            if refused:
                claims.extend(file_claim(tree, child, root) for child in refused)
                continue
            renewed = apply_renewal(group, delivered, p)
        for kid in kids:
            new_shares[kid] = renewed

    messages = {} if tree.curve is None else {"commitments": len(groups)}
    messages["renewal-delta"] = sum(map(len, groups.values()))
    if claims:
        messages["claim"] = len(claims)
    return RenewalOutcome(
        shares=new_shares,
        claims=tuple(claims),
        verdicts=resolve_claims(claims, groups, shares),
        messages=messages,
        committed_points=0 if tree.curve is None else sum(len(f) - 1 for f in polys.values()),
        child_checks=0 if tree.curve is None else messages["renewal-delta"],
    )
