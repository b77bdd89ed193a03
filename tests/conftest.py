import importlib.util
import random
import shutil
import tempfile
from pathlib import Path
from typing import Sequence
from unittest import mock

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from hiershare import algebra, sharing
from hiershare.algebra import (
    DuplicateAbscissa,
    Polynomial,
    lagrange_at_zero,
    sample_polynomial,
)
from hiershare.curve import TOY_CURVE, CurvePoint
from hiershare.hierarchy import ROOT_ID, HierarchyTree
from hiershare.proactive import generate_renewal
from hiershare.sharing import (
    DealerState,
    EvalPointCollision,
    ThresholdFactor,
    distribute,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    """Hypothesis keeps its storage (the example database and the literals
    it collects from source modules) in a temporary directory for the
    session, so a test run writes nothing under the checkout."""
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)


def benchmark_workloads():
    """``perfbench/workloads.py``, the benchmark's scenario generators,
    loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def interpolate(points: Sequence[tuple[int, int]], p: int) -> Polynomial:
    """Monomial coefficients mod p of the polynomial of degree below
    len(points) through the given points, whose abscissas must be distinct
    mod p (zero is allowed). Like ``lagrange_at_zero`` it sums the terms as
    one running fraction, so the whole interpolation costs one inversion.
    The package needs only the free coefficient (``lagrange_at_zero``);
    the tests use the whole polynomial as a reference."""
    if not points:
        raise ValueError("interpolation needs at least one point")
    xs = [x % p for x, _ in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa(f"abscissas {xs} are not distinct")
    product = [1]  # Π (x - x_j), ascending powers
    for x_j in xs:
        product = [(lo - x_j * hi) % p for lo, hi in zip([0] + product, product + [0])]
    total, total_den = [0] * len(xs), 1
    for x_i, (_, y_i) in zip(xs, points):
        # basis = product / (x - x_i) by synthetic division, den = basis(x_i)
        basis, carry, den = [0] * len(xs), 0, 0
        for h in reversed(range(len(xs))):
            carry = basis[h] = (product[h + 1] + x_i * carry) % p
            den = (den * x_i + carry) % p
        total = [(t * den + y_i * total_den * b) % p for t, b in zip(total, basis)]
        total_den = total_den * den % p
    inverse = algebra.field_inverse(total_den, p)
    return tuple(c * inverse % p for c in total)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def toy():
    return TOY_CURVE


def tree_for_curve(curve):
    """An empty tree whose share field is the curve's group order."""
    return HierarchyTree(curve)


def negated(point):
    """-P: the identity is its own negation, else (x, -y)."""
    if point.is_identity:
        return point
    return CurvePoint(point.curve, point.x, -point.y % point.curve.p)


def active_users(tree):
    """The ids of the tree's active users, ascending."""
    return sorted(n.id for n in tree.nodes.values() if n.active)


def make_tree(spec, rng, curve=None, prime=None):
    """Build a tree from a nested-list shape ([[], [[]]] = two level-1
    users, the second with one child), registered in one batch in BFS
    order so ids match the scenario-file numbering."""
    if curve is not None:
        tree = tree_for_curve(curve)
    else:
        tree = HierarchyTree(prime)
    queue = [(child, ROOT_ID) for child in spec]
    for uid, (children, _parent) in enumerate(queue, start=1):
        queue.extend((grand, uid) for grand in children)
    tree.register([parent for _children, parent in queue], rng)
    return tree


def random_tree_spec(rng, max_depth=4, max_fanout=6):
    """Random nested-list shape: at least one level-1 user, every internal
    node keeps at least one child."""

    def gen(depth):
        if depth >= max_depth:
            return []
        n = rng.randint(0, max_fanout)
        return [gen(depth + 1) for _ in range(n)]

    top = rng.randint(1, max_fanout)
    return [gen(1) for _ in range(top)]


def deal(tree, secret, tf, rng, max_attempts=128):
    """begin_round + distribute, retrying fresh rounds on
    evaluation-point collisions (the upstream resolution)."""
    dealer = DealerState(secret=secret)
    last = None
    for _ in range(max_attempts):
        round_secret = tree.begin_round(rng)
        try:
            shares = distribute(tree, tree.groups(), dealer, tf, rng, round_secret)
        except EvalPointCollision as exc:
            last = exc
            continue
        return dealer, round_secret, shares
    raise last


def deal_recorded(tree, secret, tf, rng):
    """``deal``, also returning the dealing polynomials the server drew,
    keyed by their group's parent. ``distribute`` forgets them once a
    group is dealt, so a wrapper around ``sharing.sample_polynomial``
    records each draw: the root's first, then each split member's as its
    parent's group is dealt (groups in parent order, members in id order).
    A failed attempt fails before it draws any."""
    drawn = []

    def recording(*args):
        drawn.append(sample_polynomial(*args))
        return drawn[-1]

    with mock.patch.object(sharing, "sample_polynomial", recording):
        dealer, _round_secret, shares = deal(tree, secret, tf, rng)
    parents = [ROOT_ID] + [
        uid for kids in tree.groups().values() for uid in kids if uid in dealer.split
    ]
    assert len(drawn) == len(parents)
    return dealer, shares, dict(zip(parents, drawn))


def tf(num, den):
    return ThresholdFactor(num, den)


def renewal_bundles(tree, group, owners, rng):
    """One group's renewal on its own, as ``renewal_round`` makes it inside
    an epoch: a polynomial of the group's dealt degree with free
    coefficient zero drawn from ``rng``, then ``generate_renewal``."""
    poly = sample_polynomial(rng, group.threshold - 1, 0, tree.p)
    return generate_renewal(tree, group, owners, poly)


def root_group(tree, shares):
    """The server's group record and its active members, in id order: the
    first arguments ``renewal_bundles`` takes after the tree."""
    kids = tree.groups(shares)[ROOT_ID]
    return shares[kids[0]], kids


def eval_point(shares, uid):
    """The evaluation point of ``uid``'s share."""
    return shares[uid].members[uid][0]


def kept(shares, uid):
    """The kept value of ``uid``'s share."""
    return shares[uid].members[uid][1]


def held_copies(shares, dealer):
    """Each holder's own copy of its share, as an adversary would steal it."""
    return {
        uid: group.held_by(uid, uid in dealer.split) for uid, group in shares.items()
    }


def minimal_reconstructing_set(tree, shares):
    """A cheapest participant set that reconstructs the secret: per group,
    the threshold-many children with the smallest subtree quorum cost.
    Deterministic (ties break by id). A child's id exceeds its parent's, so
    groups in descending parent order come children first, and a child is
    split exactly when it heads a group already priced."""
    quorum = {}
    for gid, kids in reversed(tree.groups(shares).items()):
        priced = sorted(
            (1 + quorum[kid][0], [kid] + quorum[kid][1]) if kid in quorum else (1, [kid])
            for kid in kids
        )
        need = shares[kids[0]].threshold
        quorum[gid] = (
            sum(total for total, _ in priced[:need]),
            [uid for _, chosen in priced[:need] for uid in chosen],
        )
    return sorted(quorum[ROOT_ID][1])


def every_group_recover(tree, shares, groups, parent_id, split):
    """Reference reconstruction, the one-pass climb of earlier releases:
    children first, it interpolates every group hanging from ``parent_id``
    through participating split members, needed or not, from its first
    threshold-many contributions, and notes each group that falls short.
    Returns the value, or those groups' (group parent, have, need) in the
    order the climb finishes them; a split member with no participating
    child heads an empty group of threshold 1."""
    order, pending = [], [parent_id]
    while pending:
        gid = pending.pop()
        kids = groups.get(gid, ())
        order.append((gid, kids))
        pending += [kid for kid in kids if kid in split]
    values, short = {}, []
    for gid, kids in reversed(order):
        need = shares[kids[0]].threshold if kids else 1
        points = []
        for kid in kids:
            x, y = shares[kid].members[kid]
            if kid in split:
                if kid not in values:
                    continue
                y += values[kid]
            points.append((x, y))
            if len(points) == need:
                values[gid] = lagrange_at_zero(points, tree.p)
                break
        else:
            short.append((gid, len(points), need))
    return values[parent_id] if parent_id in values else short
