"""Curve group tests, anchored on an independent brute-force enumeration
of the whole toy group (19 elements)."""

import dataclasses
import random

import pytest
from conftest import negated

from hiershare import curve as curve_module
from hiershare.curve import (
    STANDARD_CURVE,
    TOY_CURVE,
    CurveParams,
    CurvePoint,
    OffCurve,
    base_mul_equals,
    base_muls,
    multi_scalar_mul,
    point_add,
    scalar_mul,
    _BASE_WIDTH,
    _base_table,
    validate_curve,
)

# -- independent oracle: naive affine arithmetic on coordinate tuples -------

IDENT = None


def naive_points(curve):
    pts = [IDENT]
    for x in range(curve.p):
        for y in range(curve.p):
            if (y * y - (x**3 + curve.a * x + curve.b)) % curve.p == 0:
                pts.append((x, y))
    return pts


def naive_add(curve, P, Q):
    if P is IDENT:
        return Q
    if Q is IDENT:
        return P
    p = curve.p
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return IDENT
    if P == Q:
        s = (3 * x1 * x1 + curve.a) * pow(2 * y1, -1, p) % p
    else:
        s = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (s * s - x1 - x2) % p
    y3 = (s * (x1 - x3) - y1) % p
    return (x3, y3)


def naive_mul(curve, k, P):
    """Affine double-and-add on coordinate tuples: the reference every
    multiplication path is checked against."""
    if k < 0:
        k, P = -k, (IDENT if P is IDENT else (P[0], -P[1] % curve.p))
    result, addend = IDENT, P
    while k:
        if k & 1:
            result = naive_add(curve, result, addend)
        addend = naive_add(curve, addend, addend)
        k >>= 1
    return result


def as_tuple(point):
    return IDENT if point.is_identity else (point.x, point.y)


def from_tuple(curve, t):
    return curve.identity() if t is IDENT else CurvePoint(curve, t[0], t[1])


class TestToyGroupEnumeration:
    """Confirms the toy profile's parameters by exhaustive enumeration
    before anything else relies on them."""

    def test_group_order_is_19(self, toy):
        assert len(naive_points(toy)) == 19

    def test_exactly_nine_x_coordinates(self, toy):
        xs = {pt[0] for pt in naive_points(toy) if pt is not IDENT}
        assert len(xs) == 9

    def test_base_point_order_19(self, toy):
        current = IDENT
        for k in range(1, 19):
            current = naive_add(toy, current, (toy.gx, toy.gy))
            assert current is not IDENT
        assert naive_add(toy, current, (toy.gx, toy.gy)) is IDENT

    def test_point_add_matches_oracle_exhaustively(self, toy):
        pts = naive_points(toy)
        for P in pts:
            for Q in pts:
                expected = naive_add(toy, P, Q)
                got = point_add(from_tuple(toy, P), from_tuple(toy, Q))
                assert as_tuple(got) == expected

    def test_associativity_exhaustive(self, toy):
        pts = [from_tuple(toy, t) for t in naive_points(toy)]
        for P in pts:
            for Q in pts:
                left = point_add(P, Q)
                for R in pts:
                    assert point_add(left, R) == point_add(P, point_add(Q, R))

    def test_commutativity_exhaustive(self, toy):
        pts = [from_tuple(toy, t) for t in naive_points(toy)]
        for P in pts:
            for Q in pts:
                assert point_add(P, Q) == point_add(Q, P)


class TestPointAdd:
    def test_identity_neutral(self, toy):
        G = toy.base_point
        assert point_add(G, toy.identity()) == G
        assert point_add(toy.identity(), G) == G

    def test_inverse_gives_identity(self, toy):
        G = toy.base_point
        assert point_add(G, negated(G)).is_identity

    def test_doubling_frozen_value(self, toy):
        doubled = point_add(toy.base_point, toy.base_point)
        assert (doubled.x, doubled.y) == (6, 3)

    def test_off_curve_rejected(self, toy):
        with pytest.raises(OffCurve):
            CurvePoint(toy, 2, 2)

    def test_mixed_curves_rejected(self, toy):
        with pytest.raises(OffCurve):
            point_add(toy.base_point, STANDARD_CURVE.base_point)


class TestScalarMul:
    def test_zero_gives_identity(self, toy):
        assert scalar_mul(0, toy.base_point).is_identity

    def test_order_gives_identity(self, toy):
        assert scalar_mul(toy.order, toy.base_point).is_identity

    def test_seventh_multiple_matches_repeated_addition(self, toy):
        expected = IDENT
        for _ in range(7):
            expected = naive_add(toy, expected, (toy.gx, toy.gy))
        assert as_tuple(scalar_mul(7, toy.base_point)) == expected
        assert expected == (0, 6)

    def test_all_multiples_match_repeated_addition(self, toy):
        running = IDENT
        for k in range(1, 24):
            running = naive_add(toy, running, (toy.gx, toy.gy))
            assert as_tuple(scalar_mul(k, toy.base_point)) == running

    def test_negative_scalar(self, toy):
        G = toy.base_point
        assert scalar_mul(-1, G) == negated(G)

    def test_composition_random_pairs(self, toy):
        rng = random.Random(7)
        G = toy.base_point
        for _ in range(100):
            s, t = rng.randrange(1, 19), rng.randrange(1, 19)
            assert scalar_mul(s * t % 19, G) == scalar_mul(s, scalar_mul(t, G))

    def test_every_point_and_small_scalar_matches_repeated_addition(self, toy):
        for P in [from_tuple(toy, t) for t in naive_points(toy)]:
            running = toy.identity()
            for k in range(0, 41):
                assert scalar_mul(k, P) == running
                assert scalar_mul(-k, P) == negated(running)
                running = point_add(running, P)

    def test_builds_one_point_per_call(self, monkeypatch):
        """Every intermediate sum stays a coordinate tuple; only the result
        is built (and checked against the curve equation)."""
        G = STANDARD_CURVE.base_point
        P = scalar_mul(5, G)
        scalar_mul(7, G)  # the base-point table is built before counting
        built = []
        check = CurvePoint.__post_init__

        def counting(point):
            built.append(point)
            check(point)

        monkeypatch.setattr(CurvePoint, "__post_init__", counting)
        for k in (3, STANDARD_CURVE.order - 1, -9, 2**300):
            for base in (G, P):
                built.clear()
                result = scalar_mul(k, base)
                assert built == [result]

    def test_distributivity_random_pairs(self, toy):
        # (s + t)G = sG + tG: the same chain the commitment check rides on.
        rng = random.Random(8)
        G = toy.base_point
        for _ in range(100):
            s, t = rng.randrange(19), rng.randrange(19)
            assert scalar_mul((s + t) % 19, G) == point_add(
                scalar_mul(s, G), scalar_mul(t, G)
            )


_ORDER = STANDARD_CURVE.order
_RNG = random.Random(11)
# Seeded scalars; the edges of a width-5 Straus window and of a width-8
# base-table digit (2^w - 1, 2^w, 2^w + 1), and of its largest positive
# digit 2^7; both sides of the 64-bit switch between bit-by-bit and
# windowed Straus terms; the edges around the order; 2^256 - 1, 2^256 + 3,
# 2^258 - 1, 2^259 + 3 and 2^263 - 1, which the base-point table still
# covers; 2^264 + 3, past its capacity; and negative scalars.
STANDARD_EDGES = {
    "0": 0, "1": 1, "2": 2,
    "2^5-1": 2**5 - 1, "2^5": 2**5, "2^5+1": 2**5 + 1,
    "2^7-1": 2**7 - 1, "2^7": 2**7, "2^7+1": 2**7 + 1,
    "2^8-1": 2**8 - 1, "2^8": 2**8, "2^8+1": 2**8 + 1,
    "2^64-1": 2**64 - 1, "2^64": 2**64, "2^64+1": 2**64 + 1,
    "order-1": _ORDER - 1, "order": _ORDER, "order+1": _ORDER + 1,
    "2^256-1": 2**256 - 1, "2^256+3": 2**256 + 3, "2^258-1": 2**258 - 1,
    "2^259+3": 2**259 + 3, "2^263-1": 2**263 - 1, "2^264+3": 2**264 + 3,
    "-5": -5, "-(2^64+1)": -(2**64 + 1), "-(order-1)": -(_ORDER - 1),
    "-(2^259+3)": -(2**259 + 3), "-(2^264+3)": -(2**264 + 3),
}
STANDARD_SCALARS = list(STANDARD_EDGES.values()) + [_RNG.randrange(_ORDER) for _ in range(6)]
STANDARD_IDS = list(STANDARD_EDGES) + [f"seeded{i}" for i in range(6)]
STANDARD_G = (STANDARD_CURVE.gx, STANDARD_CURVE.gy)

# Curves small enough to check every entry and every point. Their table
# entries and window multiples hit the identity, and the last one's G has
# Y = 0.
SMALL_CURVES = [
    TOY_CURVE,
    # G = (2, 1) has order 7: d * G is the identity for every d divisible by 7.
    CurveParams("order-7", 13, 0, 6, 2, 1, 7),
    # G = (1, 0) has order 2 but claims the prime 17, as a curve does on
    # its way to failing validation: every even multiple is the identity.
    CurveParams("order-2-claims-17", 17, 0, 16, 1, 0, 17),
]
# Scalars for the small curves: every bit-by-bit one up to 40 and its
# negation, and windowed ones past 64 bits.
SMALL_SCALARS = list(range(-40, 41)) + [
    2**64 - 1, 2**64, 2**64 + 1, 2**70 + 12345, 2**130 - 3, -(2**80 + 7)
]


class TestStandardCurvePaths:
    """secp256k1 multiples of G (the base-point table, or Straus past its
    capacity) and of another point (Straus) against the affine reference
    above."""

    @pytest.mark.parametrize("k", STANDARD_SCALARS, ids=STANDARD_IDS)
    def test_base_point(self, k):
        expected = naive_mul(STANDARD_CURVE, k, STANDARD_G)
        assert as_tuple(scalar_mul(k, STANDARD_CURVE.base_point)) == expected

    @pytest.mark.parametrize("k", STANDARD_SCALARS, ids=STANDARD_IDS)
    def test_other_point(self, k):
        P = naive_mul(STANDARD_CURVE, 0xC0FFEE, STANDARD_G)
        expected = naive_mul(STANDARD_CURVE, k, P)
        assert as_tuple(scalar_mul(k, from_tuple(STANDARD_CURVE, P))) == expected

    @pytest.mark.parametrize(
        "k, passes",
        [(2**258 - 1, 0), (-(2**258 - 1), 0), (2**259 + 3, 0), (-(2**259 + 3), 0),
         (2**263 - 1, 0), (-(2**263 - 1), 0), (2**264 + 3, 1), (-(2**264 + 3), 1)],
    )
    def test_base_point_falls_back_to_straus_past_the_table(self, k, passes, monkeypatch):
        """The table has (256 + 8) // 8 = 33 rows, and every width-8 signed
        digit is at most 2^7, so it reads |k| up to 2^7 * (256^33 - 1) / 255,
        just above 2^263: 2^263 - 1 and below take no Straus pass, and
        2^264 + 3, whose recoding has a 34th digit, takes one."""
        straus = []
        original = curve_module._straus
        monkeypatch.setattr(
            curve_module, "_straus", lambda *args: straus.append(1) or original(*args)
        )
        scalar_mul(k, STANDARD_CURVE.base_point)
        assert len(straus) == passes


class TestSmallCurveKernels:
    """Both multiplication kernels on curves where table entries and window
    multiples are the identity or have Y = 0, against the affine
    reference."""

    @pytest.mark.parametrize("curve", SMALL_CURVES, ids=lambda c: c.name)
    def test_scalar_mul_of_every_point(self, curve):
        for t in naive_points(curve):
            P = from_tuple(curve, t)
            for k in SMALL_SCALARS:
                assert as_tuple(scalar_mul(k, P)) == naive_mul(curve, k, t), (t, k)

    @pytest.mark.parametrize("curve", SMALL_CURVES, ids=lambda c: c.name)
    def test_multi_scalar_mul_mixes_short_and_windowed_terms(self, curve):
        rng = random.Random(31)
        points = naive_points(curve)
        for _ in range(200):
            pairs = [
                (rng.choice(SMALL_SCALARS), rng.choice(points))
                for _ in range(rng.randrange(0, 5))
            ]
            expected = IDENT
            for s, t in pairs:
                expected = naive_add(curve, expected, naive_mul(curve, s, t))
            got = multi_scalar_mul([(s, from_tuple(curve, t)) for s, t in pairs], curve)
            assert as_tuple(got) == expected, pairs


HALF = 1 << (_BASE_WIDTH - 1)  # the largest base-table digit


def table_rows(curve):
    """Rows for every base-width digit of a scalar below 2^order.bit_length()."""
    return (curve.order.bit_length() + _BASE_WIDTH) // _BASE_WIDTH


class TestBaseMuls:
    """``base_muls`` against ``scalar_mul`` one scalar at a time and the
    affine reference, on batches that mix zero, negative scalars,
    multiples of the order (identity results among the others in one
    conversion) and scalars past the base-point table. However many
    levels of affine additions a batch's sum takes, its Jacobian results
    are converted once."""

    @pytest.mark.parametrize("curve", [STANDARD_CURVE] + SMALL_CURVES, ids=lambda c: c.name)
    def test_matches_one_at_a_time_and_the_reference(self, curve, monkeypatch):
        rng = random.Random(47)
        n, G = curve.order, (curve.gx, curve.gy)
        edges = [0, 1, -1, n, -n, 3 * n, n - 1, -(n + 1), 2**264 + 3, -(2**300 + 5)]
        base_muls([1], curve)  # the base-point table is built before counting
        conversions = []
        convert = curve_module._to_affine
        monkeypatch.setattr(
            curve_module, "_to_affine", lambda points, p: conversions.append(1) or convert(points, p)
        )
        batches = [[], [5], edges, rng.sample(edges, 4) + [rng.randrange(-n, n) for _ in range(4)]]
        for scalars in batches:
            conversions.clear()
            got = base_muls(scalars, curve)
            assert conversions == [1]
            assert got == [scalar_mul(s, curve.base_point) for s in scalars]
            assert [as_tuple(P) for P in got] == [naive_mul(curve, s, G) for s in scalars]


def wide(curve):
    """``curve`` claiming a 127-bit order. The order is read only for its
    bit length, so the base-point table gets 16 rows over the same small
    group, and a scalar below about 2^127 names up to 16 table points:
    enough for ``base_muls`` to sum a batch in levels."""
    return dataclasses.replace(curve, name=curve.name + "-wide", order=2**127 - 1)


WIDE_CURVES = [wide(curve) for curve in SMALL_CURVES]
WIDE_TOY = WIDE_CURVES[0]
# 16 nonzero digits of 1, so 16 table points 256^i * G: 8 pairs, a level.
SIXTEEN = sum(256**i for i in range(16))


def recorded_levels(monkeypatch, curve):
    """The pairs of every ``_add_batch`` call, one list per call, from
    after ``curve``'s base-point table is built."""
    _base_table(curve)
    levels = []
    add = curve_module._add_batch
    monkeypatch.setattr(
        curve_module, "_add_batch", lambda pairs, a, p: levels.append(pairs) or add(pairs, a, p)
    )
    return levels


def assert_reference(curve, scalars):
    G = (curve.gx, curve.gy)
    assert [as_tuple(P) for P in base_muls(scalars, curve)] == [
        naive_mul(curve, s, G) for s in scalars
    ]


class TestBaseMulsTreeSum:
    """``base_muls`` sums a batch's table points pairwise, one batched
    level at a time while a level holds at least 8 pairs, on small groups
    where table entries are the identity and a level's pairs repeat or
    cancel a point, against the affine reference."""

    @pytest.mark.parametrize("curve", WIDE_CURVES, ids=lambda c: c.name)
    def test_random_batches(self, curve):
        rng = random.Random(53)
        for size in (0, 1, 2, 3, 8, 17):
            scalars = [rng.randrange(-(2**126), 2**126) for _ in range(size)]
            assert_reference(curve, scalars + [0, curve.order, -SIXTEEN])

    def test_empty_batch(self, monkeypatch):
        levels = recorded_levels(monkeypatch, WIDE_TOY)
        assert base_muls([], WIDE_TOY) == []
        assert levels == []

    def test_levels_stop_below_eight_pairs(self, monkeypatch):
        """16 points make one level of 8 pairs and stop at 4; 14 points
        (7 pairs) make none."""
        levels = recorded_levels(monkeypatch, WIDE_TOY)
        assert_reference(WIDE_TOY, [SIXTEEN])
        assert [len(pairs) for pairs in levels] == [8]
        levels.clear()
        assert_reference(WIDE_TOY, [SIXTEEN % 256**14])
        assert levels == []

    def test_identity_entries_name_no_point(self, monkeypatch):
        """Every digit 19 on the toy curve (G has order 19) reads an
        identity entry: the scalar adds no pair, and its result is the
        identity."""
        levels = recorded_levels(monkeypatch, WIDE_TOY)
        nineteens = 19 * SIXTEEN
        assert_reference(WIDE_TOY, [nineteens, SIXTEEN, -nineteens])
        assert [len(pairs) for pairs in levels] == [8]
        assert all(P is not None and Q is not None for P, Q in levels[0])

    def test_cancelling_and_equal_pairs_inside_one_level(self, monkeypatch):
        """On the toy curve 256 * G = 9 * G, so 1 + 2 * 256 names G and
        18 * G = -G, and 9 + 256 names 9 * G twice; their negations name
        the negated pairs. With 8 more pairs the four pairs fall inside a
        level."""
        G = (TOY_CURVE.gx, TOY_CURVE.gy)
        nine_G = naive_mul(TOY_CURVE, 9, G)
        levels = recorded_levels(monkeypatch, WIDE_TOY)
        neg = lambda P: (P[0], -P[1] % TOY_CURVE.p)  # noqa: E731
        assert_reference(WIDE_TOY, [513, -513, 265, -265, SIXTEEN])
        assert [len(pairs) for pairs in levels] == [12]
        assert levels[0][:4] == [(G, neg(G)), (neg(G), G), (nine_G, nine_G), (neg(nine_G),) * 2]

    def test_odd_point_carries_to_the_next_level(self, monkeypatch):
        """A scalar naming 3 points pairs two of them in the first level
        and carries the third, leaving 2; one naming 17 carries one point
        from each of the two levels, leaving 9 and then 5 (8 + 1 + 8 = 17
        pairs, then 4 + 1 + 4 = 9, then 2 + 0 + 2 = 4, below 8)."""
        wider = dataclasses.replace(WIDE_TOY, order=2**135 - 1)
        levels = recorded_levels(monkeypatch, wider)
        three = 1 + 256 + 256**2
        seventeen = SIXTEEN + 256**16
        assert_reference(wider, [seventeen, three, -seventeen])
        assert [len(pairs) for pairs in levels] == [17, 9]

    @pytest.mark.parametrize("curve", WIDE_CURVES, ids=lambda c: c.name)
    def test_past_capacity_scalars_share_the_batch(self, curve, monkeypatch):
        """Scalars past the 16-row table go to Straus, one pass each, and
        take their place among the levels' results."""
        straus = []
        original = curve_module._straus
        monkeypatch.setattr(
            curve_module, "_straus", lambda *args: straus.append(1) or original(*args)
        )
        assert_reference(curve, [SIXTEEN, 2**130 + 3, -SIXTEEN, -(2**140 + 5), 513])
        assert len(straus) == 2


def table_entry_by_point_add(curve, i, d):
    """d * 2^(w*i) * G for the base width w, by w*i doublings and d
    additions through ``point_add``."""
    P = curve.base_point
    for _ in range(_BASE_WIDTH * i):
        P = point_add(P, P)
    total = curve.identity()
    for _ in range(d):
        total = point_add(total, P)
    return as_tuple(total)


class TestBaseTable:
    """Row i of the base-point table holds d * 2^(w*i) * G for d = 1..2^(w-1)
    and the base width w (a signed digit reads an entry or its negation),
    the identity as None, with a row for every digit of a scalar below
    2^order.bit_length(). The batched builder's identity, P + (-P) and
    y = 0 cases are checked here against ``point_add``."""

    @pytest.mark.parametrize("curve", SMALL_CURVES, ids=lambda c: c.name)
    def test_every_entry_of_a_small_curve(self, curve):
        table = _base_table(curve)
        assert len(table) == table_rows(curve) == 1
        for i, row in enumerate(table):
            assert list(row) == [table_entry_by_point_add(curve, i, d) for d in range(1, HALF + 1)]

    def test_some_entries_identity(self):
        order_7 = _base_table(SMALL_CURVES[1])[0]
        assert [d for d in range(1, HALF + 1) if order_7[d - 1] is None] == list(range(7, HALF + 1, 7))
        order_2 = _base_table(SMALL_CURVES[2])[0]
        assert [d for d in range(1, HALF + 1) if order_2[d - 1] is None] == list(range(2, HALF + 1, 2))

    def test_rows_past_the_identity(self):
        """G of order 2 claiming the 8-bit prime 131 takes two rows; 2^w * G
        is the identity, so all of row 1 is."""
        curve = CurveParams("order-2-claims-131", 17, 0, 16, 1, 0, 131)
        table = _base_table(curve)
        assert len(table) == table_rows(curve) == 2
        assert list(table[0]) == [table_entry_by_point_add(curve, 0, d) for d in range(1, HALF + 1)]
        assert table[1] == (None,) * HALF

    def test_sampled_standard_entries(self):
        table, rows = _base_table(STANDARD_CURVE), table_rows(STANDARD_CURVE)
        assert [len(row) for row in table] == [HALF] * rows
        rng = random.Random(43)
        sampled = [(0, 1), (0, HALF), (1, 1), (rows - 1, HALF)]
        sampled += [(rng.randrange(rows), rng.randrange(1, HALF + 1)) for _ in range(4)]
        for i, d in sampled:
            assert table[i][d - 1] == table_entry_by_point_add(STANDARD_CURVE, i, d)


class TestMultiScalarMul:
    def test_matches_sum_of_single_multiplications(self, toy):
        rng = random.Random(12)
        pts = [from_tuple(toy, t) for t in naive_points(toy)]
        for _ in range(300):
            pairs = [
                (rng.choice([0, rng.randrange(-40, 41)]), rng.choice(pts))
                for _ in range(rng.randrange(0, 5))
            ]
            expected = toy.identity()
            for s, P in pairs:
                expected = point_add(expected, scalar_mul(s, P))
            assert multi_scalar_mul(pairs, toy) == expected

    def test_standard_curve_against_reference(self):
        rng = random.Random(13)
        curve, G = STANDARD_CURVE, STANDARD_G
        pairs = [(rng.randrange(curve.order), naive_mul(curve, rng.randrange(1, 99), G))
                 for _ in range(3)] + [(7, IDENT), (0, G), (-2, G)]
        expected = IDENT
        for s, P in pairs:
            expected = naive_add(curve, expected, naive_mul(curve, s, P))
        got = multi_scalar_mul([(s, from_tuple(curve, P)) for s, P in pairs], curve)
        assert as_tuple(got) == expected

    def test_mixed_curves_rejected(self):
        with pytest.raises(OffCurve):
            multi_scalar_mul([(1, TOY_CURVE.base_point)], STANDARD_CURVE)


class TestBaseMulEquals:
    """``base_mul_equals(s, pairs)`` compares s * G with the pairs' sum in
    Jacobian form; it must agree with comparing the affine results."""

    def test_toy_agrees_with_affine_comparison(self, toy):
        rng = random.Random(14)
        pts = [from_tuple(toy, t) for t in naive_points(toy)]
        multiples = [scalar_mul(t, toy.base_point) for t in range(toy.order)]
        for _ in range(200):
            pairs = [
                (rng.choice([0, rng.randrange(-40, 41)]), rng.choice(pts))
                for _ in range(rng.randrange(0, 4))
            ]
            total = multi_scalar_mul(pairs, toy)
            log = multiples.index(total)
            # -log shares log's x-coordinate; log + order is the same point.
            for s in (log, log + toy.order, -log, log + 1, rng.randrange(-40, 41)):
                expected = scalar_mul(s, toy.base_point) == total
                assert base_mul_equals(s, pairs, toy) is expected, (s, pairs)

    def test_standard_child_check(self):
        rng = random.Random(15)
        curve, n = STANDARD_CURVE, STANDARD_CURVE.order
        coeffs = [rng.randrange(1, n) for _ in range(2)]
        x = rng.randrange(2, n)
        pairs = [(pow(x, h, n), scalar_mul(c, curve.base_point)) for h, c in enumerate(coeffs, 1)]
        delta = sum(c * pow(x, h, n) for h, c in enumerate(coeffs, 1)) % n
        assert base_mul_equals(delta, pairs, curve)
        assert base_mul_equals(delta + n, pairs, curve)
        assert not base_mul_equals(-delta, pairs, curve)
        assert not base_mul_equals(delta + 1, pairs, curve)
        assert not base_mul_equals(0, pairs, curve)
        cancelling = [(1, curve.base_point), (-1, curve.base_point)]
        assert base_mul_equals(0, cancelling, curve)
        assert not base_mul_equals(1, cancelling, curve)

    def test_mixed_curves_rejected(self):
        with pytest.raises(OffCurve):
            base_mul_equals(1, [(1, TOY_CURVE.base_point)], STANDARD_CURVE)


class TestValidateCurve:
    def test_toy_valid(self, toy):
        assert validate_curve(toy).ok

    def test_standard_valid(self):
        assert validate_curve(STANDARD_CURVE).ok

    def test_base_point_off_curve(self, toy):
        broken = CurveParams("broken", toy.p, toy.a, 3, toy.gx, toy.gy, toy.order)
        report = validate_curve(broken)
        assert not report.ok
        assert any("base point" in f for f in report.failures)

    def test_wrong_order(self, toy):
        broken = CurveParams("broken", toy.p, toy.a, toy.b, toy.gx, toy.gy, 18)
        report = validate_curve(broken)
        assert not report.ok
        assert any("order" in f for f in report.failures)

    def test_prime_wrong_order_fails_only_the_group_walk(self, toy):
        # 17 is prime, so only multiplying G by it unreduced can tell.
        broken = CurveParams("broken", toy.p, toy.a, toy.b, toy.gx, toy.gy, 17)
        assert validate_curve(broken).failures == ["order * G is not the identity"]

    def test_singular_curve_flagged(self):
        # y^2 = x^3 over F_17 has zero discriminant.
        broken = CurveParams("singular", 17, 0, 0, 1, 1, 19)
        report = validate_curve(broken)
        assert any("singular" in f for f in report.failures)

    def test_small_subgroup_refused_by_hasse_bound(self):
        # On y^2 = x^3 + 4 over secp256k1's field, (0, 2) has order 3: an
        # inflection point far below the Hasse interval around p + 1.
        small = CurveParams("small", STANDARD_CURVE.p, 0, 4, 0, 2, 3)
        assert validate_curve(small).failures == [
            "subgroup order 3 is below Hasse's bound for p: cofactor above 1"
        ]

    def test_composite_modulus_flagged(self, toy):
        broken = CurveParams("composite", 15, toy.a, toy.b, toy.gx, toy.gy, toy.order)
        report = validate_curve(broken)
        assert any("not prime" in f for f in report.failures)

    def test_psi_12_modulus_flagged(self, toy):
        # A composite that passes Miller-Rabin to the first 12 prime bases.
        psi_12 = 318665857834031151167461
        broken = CurveParams("psi-12", psi_12, toy.a, toy.b, toy.gx, toy.gy, toy.order)
        assert f"field modulus {psi_12} is not prime" in validate_curve(broken).failures

    def test_zero_modulus_reported_without_reducing_by_it(self, toy):
        # Every check that reduces mod p would divide by zero.
        broken = CurveParams("zero", 0, toy.a, toy.b, toy.gx, toy.gy, toy.order)
        assert validate_curve(broken).failures == ["field modulus 0 is not prime"]
