import random

import pytest

from hiershare.curve import TOY_CURVE
from hiershare.hierarchy import ROOT_ID, HierarchyTree
from hiershare.sharing import (
    EVAL_ROUND_KEY,
    EVAL_USER_ID,
    DealerState,
    EvalPointCollision,
    ThresholdFactor,
    distribute,
)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def toy():
    return TOY_CURVE


def make_tree(spec, rng, curve=None, prime=None):
    """Build a tree from a nested-list shape ([[], [[]]] = two level-1
    users, the second with one child), registering in BFS order so ids
    match the scenario-file numbering."""
    if curve is not None:
        tree = HierarchyTree.for_curve(curve)
    else:
        tree = HierarchyTree.without_curve(prime)
    queue = [(child, ROOT_ID) for child in spec]
    while queue:
        children, parent = queue.pop(0)
        node = tree.register(parent, rng)
        queue.extend((grand, node.id) for grand in children)
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


def deal(tree, secret, tf, rng, eval_mode=None, max_attempts=128):
    """begin_round + round keys + distribute, retrying fresh rounds on
    evaluation-point collisions (the upstream resolution)."""
    if eval_mode is None:
        eval_mode = EVAL_ROUND_KEY if tree.curve is not None else EVAL_USER_ID
    dealer = DealerState(secret=secret)
    last = None
    for _ in range(max_attempts):
        state = tree.begin_round(rng)
        tree.assign_round_keys(state)
        try:
            shares = distribute(tree, dealer, state, tf, rng, eval_mode, levels=tree.levels())
        except EvalPointCollision as exc:
            last = exc
            continue
        return dealer, state, shares
    raise last


def tf(num, den):
    return ThresholdFactor(num, den)


def minimal_reconstructing_set(tree, shares):
    """A cheapest participant set that reconstructs the secret: per group,
    the threshold-many children with the smallest subtree quorum cost.
    Deterministic (ties break by id). A child's id exceeds its parent's, so
    groups in descending parent order come children first."""
    quorum = {}
    for gid, kids in reversed(tree.groups(shares).items()):
        priced = sorted(
            (1 + quorum[kid][0], [kid] + quorum[kid][1]) if shares[kid].split else (1, [kid])
            for kid in kids
        )
        need = shares[kids[0]].threshold
        quorum[gid] = (
            sum(total for total, _ in priced[:need]),
            [uid for _, chosen in priced[:need] for uid in chosen],
        )
    return sorted(quorum[ROOT_ID][1])
