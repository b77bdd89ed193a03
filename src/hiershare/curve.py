"""Short-Weierstrass elliptic-curve group over a prime field.

Supplies the group behind user keys, round keys, and renewal commitments.
Points are affine with an explicit identity, and every ``CurvePoint`` is
checked against the curve equation when it is built. Multiplications run
inside on Jacobian (X, Y, Z) integer tuples (Cohen, Miyaji and Ono 1998)
and convert back to affine at the end, with one inversion per batch of
results (Montgomery 1987): ``base_muls`` sums a batch's table points in
levels of affine additions, one inversion per level, and converts its
results at once; ``base_mul_equals`` compares in Jacobian form and
converts nothing. Both kernels read a scalar in signed-digit windows, so a
negative digit costs only the negation of a table point: a multiple of the
base point adds one entry per digit of a precomputed table of d · 256^i · G
(fixed-base windowing; Brickell, Gordon, McCurley and Wilson 1992), and
``multi_scalar_mul`` interleaves the windows of any other points over one
shared doubling chain (Straus; Möller 2001). Both tables are built by
batched affine additions, one inversion per batch. Written for simulation
fidelity at desk scale, deliberately not side-channel hardened: running
time depends on the scalar.

Points and parameters are immutable; all operations are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

from .algebra import FieldParams, is_prime
from .errors import HierShareError


class OffCurve(HierShareError):
    """A point that does not satisfy the curve equation (or a mix of
    points from different curves) was fed to a group operation."""


@dataclass(frozen=True)
class CurveParams:
    """y^2 = x^3 + a*x + b over F_p, with a base point of prime order."""

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    order: int

    def contains(self, x: int, y: int) -> bool:
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    @functools.cached_property
    def base_point(self) -> "CurvePoint":
        return CurvePoint(self, self.gx, self.gy)

    def identity(self) -> "CurvePoint":
        return CurvePoint(self, None, None)


@dataclass(frozen=True)
class CurvePoint:
    """Affine point, or the point at infinity when both coordinates are None."""

    curve: CurveParams
    x: int | None
    y: int | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise OffCurve("half-specified point")
        if self.x is not None:
            if not (0 <= self.x < self.curve.p and 0 <= self.y < self.curve.p):
                raise OffCurve(f"coordinates ({self.x}, {self.y}) outside F_{self.curve.p}")
            if not self.curve.contains(self.x, self.y):
                raise OffCurve(f"({self.x}, {self.y}) not on curve {self.curve.name!r}")

    @property
    def is_identity(self) -> bool:
        return self.x is None


def point_add(P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Group law. The identity is neutral and P + (-P) is the identity."""
    if P.curve != Q.curve:
        raise OffCurve("points on different curves")
    if P.is_identity:
        return Q
    if Q.is_identity:
        return P
    p = P.curve.p
    if P.x == Q.x and (P.y + Q.y) % p == 0:
        return P.curve.identity()
    if P == Q:
        slope = (3 * P.x * P.x + P.curve.a) * pow(2 * P.y, -1, p) % p
    else:
        slope = (Q.y - P.y) * pow(Q.x - P.x, -1, p) % p
    x3 = (slope * slope - P.x - Q.x) % p
    y3 = (slope * (P.x - x3) - P.y) % p
    return CurvePoint(P.curve, x3, y3)


# Jacobian (X, Y, Z) stands for the affine point (X/Z^2, Y/Z^3); any Z = 0
# is the identity. Affine points inside the multiplications are (x, y)
# tuples, or None for the identity.
_JACOBIAN_IDENTITY = (1, 1, 0)

# Window widths of the signed-digit recoding. The base-point table holds
# d * 256^i * G for d = 1..128: 33 rows of 128 points on secp256k1. A Straus
# term of more than 64 bits reads a table of its 16 first multiples; a
# shorter one (every toy-curve scalar) goes bit by bit and builds none.
_BASE_WIDTH = 8
_STRAUS_WIDTH = 5
_SHORT_BITS = 64
# ``base_muls`` adds a level of pairs in one batch only if it holds this
# many: below it, the inversion costs more than the mixed additions saved.
_LEVEL_PAIRS = 8

_Affine = tuple[int, int] | None
_Table = tuple[tuple[_Affine, ...], ...]


def _signed_digits(k: int, width: int) -> list[int]:
    """Digits d_i, lowest first, with k = Σ d_i * 2^(width*i) and
    -2^(width-1) < d_i <= 2^(width-1), for k >= 0 and width >= 2."""
    full, half = 1 << width, 1 << (width - 1)
    digits = []
    while k:
        d = k & (full - 1)
        if d > half:
            d -= full
        digits.append(d)
        k = (k - d) >> width
    return digits


def _double(P: tuple[int, int, int], a: int, p: int) -> tuple[int, int, int]:
    """2P for any curve coefficient a, skipping the a*Z^4 term when a = 0.
    A point with Y = 0 (order 2) and the identity both come out with
    Z = 0."""
    X, Y, Z = P
    YY = Y * Y % p
    S = 4 * X * YY % p
    if a:
        ZZ = Z * Z % p
        M = (3 * X * X + a * ZZ * ZZ) % p
    else:
        M = 3 * X * X % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p


def _add_affine(
    P: tuple[int, int, int], x2: int, y2: int, a: int, p: int
) -> tuple[int, int, int]:
    """P + (x2, y2) for a Jacobian P and an affine, non-identity second
    point, doubling when they are equal."""
    X1, Y1, Z1 = P
    if Z1 == 0:
        return x2, y2, 1
    Z1Z1 = Z1 * Z1 % p
    H = (x2 * Z1Z1 - X1) % p
    R = (y2 * Z1 * Z1Z1 - Y1) % p
    if H == 0:
        return _double(P, a, p) if R == 0 else _JACOBIAN_IDENTITY
    HH = H * H % p
    HHH = H * HH % p
    V = X1 * HH % p
    X3 = (R * R - HHH - 2 * V) % p
    return X3, (R * (V - X3) - Y1 * HHH) % p, Z1 * H % p


def _inverses(values: list[int], p: int) -> list[int]:
    """The inverse mod p of each value in 0..p-1, and 0 for 0, with one
    inversion for all of them (Montgomery's trick). The prefix products
    are overwritten by the inverses, so the batch holds one list."""
    out, product = [], 1
    for v in values:
        out.append(product if v else 0)
        product = product * (v or 1) % p
    inverse = pow(product, -1, p)
    for i in reversed(range(len(values))):
        if values[i]:
            out[i] = inverse * out[i] % p
            inverse = inverse * values[i] % p
    return out


def _to_affine(points: list[tuple[int, int, int]], p: int) -> list[_Affine]:
    """Affine forms of Jacobian points, None for the identity, with one
    inversion for all of them."""
    out: list[_Affine] = []
    for (X, Y, Z), z_inv in zip(points, _inverses([Z for _, _, Z in points], p)):
        zz_inv = z_inv * z_inv % p
        out.append((X * zz_inv % p, Y * zz_inv * z_inv % p) if Z else None)
    return out


def _add_batch(pairs: list[tuple[_Affine, _Affine]], a: int, p: int) -> list[_Affine]:
    """P + Q for each pair of affine points (None for the identity) by the
    affine group law, with one inversion for the whole batch. The slope's
    denominator is x_Q - x_P, or 2y for P + P; it is 0 exactly when the
    sum needs no slope: with the identity as a term (the sum is the other
    term), or for P + (-P) and 2P with y = 0 (the sum is the identity)."""
    denominators = [
        0 if P is None or Q is None else (2 * P[1] if P == Q else Q[0] - P[0]) % p
        for P, Q in pairs
    ]
    out: list[_Affine] = _inverses(denominators, p)
    for i, (P, Q) in enumerate(pairs):
        if not out[i]:
            out[i] = Q if P is None else P if Q is None else None
            continue
        m = (3 * P[0] * P[0] + a if P == Q else Q[1] - P[1]) * out[i] % p
        x3 = (m * m - P[0] - Q[0]) % p
        out[i] = (x3, (m * (P[0] - x3) - P[1]) % p)
    return out


def _multiple_rows(points: list[_Affine], count: int, a: int, p: int) -> list[list[_Affine]]:
    """Row j holds d * points[j] for d = 1..count, a power of two, affine.
    Each step adds m * P to each of 1..m * P for every point at once: one
    batch, so one inversion, per doubling of m."""
    rows, m = [[P] for P in points], 1
    while m < count:
        sums = _add_batch([(row[-1], P) for row in rows for P in row], a, p)
        for j, row in enumerate(rows):
            row += sums[j * m : (j + 1) * m]
        m *= 2
    return rows


@functools.lru_cache(maxsize=8)
def _base_table(curve: CurveParams) -> _Table:
    """Row i holds d * 256^i * G for d = 1..128, so a signed digit reads its
    point or the point's negation. There is a row for every digit of a
    scalar below 2^order.bit_length() (the order is read only for its bit
    length, never used to reduce). Built by the group law alone: the row
    bases 256^i * G by Jacobian doubling, converted with one inversion, then
    every row's multiples by seven batched affine additions."""
    a, p = curve.a, curve.p
    bases, base = [], (curve.gx, curve.gy, 1)
    for _ in range((curve.order.bit_length() + _BASE_WIDTH) // _BASE_WIDTH):
        bases.append(base)
        for _ in range(_BASE_WIDTH):
            base = _double(base, a, p)
    return tuple(map(tuple, _multiple_rows(_to_affine(bases, p), 1 << (_BASE_WIDTH - 1), a, p)))


def _mul_base(digits: list[int], table: _Table, curve: CurveParams) -> tuple[int, int, int]:
    """Σ d_i * 256^i * G over signed base-width digits, one per row of the
    base-point table: one mixed addition per nonzero digit, no doublings."""
    acc, a, p = _JACOBIAN_IDENTITY, curve.a, curve.p
    for row, d in zip(table, digits):
        point = row[abs(d) - 1] if d else None
        if point is not None:
            x, y = point
            acc = _add_affine(acc, x, y if d > 0 else -y % p, a, p)
    return acc


def _straus(pairs: Iterable[tuple[int, CurvePoint]], curve: CurveParams) -> tuple[int, int, int]:
    """Σ s_i * P_i over (scalar, point) pairs, interleaving signed windows
    (Möller 2001); zero scalars and identity points add nothing, negative
    scalars use the group inverse. A scalar of more than 64 bits is read
    in width-5 digits from a table of its point's first 16 multiples (the
    tables of all such terms take four batched additions together); a
    shorter one is tested bit by bit, with no table. One doubling per bit
    of the widest scalar, shared by all terms, and one mixed addition per
    nonzero digit or set bit."""
    a, p = curve.a, curve.p
    short, windowed, due, top = [], [], {}, 0  # due: bit -> window points to add there
    for s, P in pairs:
        if P.curve != curve:
            raise OffCurve("points on different curves")
        if not s or P.is_identity:
            continue
        x, y, s = P.x, P.y if s > 0 else -P.y % p, abs(s)
        bits = s.bit_length()
        if bits <= _SHORT_BITS:
            short.append((s, x, y))
            top = max(top, bits)
        else:
            windowed.append((s, (x, y)))
    tables = []
    if windowed:
        tables = _multiple_rows([P for _, P in windowed], 1 << (_STRAUS_WIDTH - 1), a, p)
    for (s, _), table in zip(windowed, tables):
        for i, d in enumerate(_signed_digits(s, _STRAUS_WIDTH)):
            point = table[abs(d) - 1] if d else None
            if point is not None:
                due.setdefault(_STRAUS_WIDTH * i, []).append(
                    point if d > 0 else (point[0], -point[1] % p)
                )
    if due:
        top = max(top, max(due) + 1)
    acc = _JACOBIAN_IDENTITY
    for bit in reversed(range(top)):
        if acc[2]:  # doubling the identity is the identity
            acc = _double(acc, a, p)
        for s, x, y in short:
            if s >> bit & 1:
                acc = _add_affine(acc, x, y, a, p)
        for x, y in due.get(bit, ()) if due else ():
            acc = _add_affine(acc, x, y, a, p)
    return acc


def _points(curve: CurveParams, points: list[tuple[int, int, int]]) -> list[CurvePoint]:
    """Jacobian points as ``CurvePoint``s, with one inversion for all."""
    return [
        curve.identity() if affine is None else CurvePoint(curve, *affine)
        for affine in _to_affine(points, curve.p)
    ]


def base_muls(scalars: Iterable[int], curve: CurveParams) -> list[CurvePoint]:
    """``[scalar_mul(s, curve.base_point) for s in scalars]``: the batch's
    table points (negated where digit and scalar signs differ) summed in
    pairs, one ``_add_batch`` per level with odd points carried, while a
    level holds ``_LEVEL_PAIRS`` pairs, then by mixed additions, with one
    conversion. Past the table (about 2^263 on secp256k1), Straus."""
    table, a, p = _base_table(curve), curve.a, curve.p
    jacobian, terms = [], []
    for s in scalars:
        digits = _signed_digits(abs(s), _BASE_WIDTH)
        past = len(digits) > len(table)
        jacobian.append(_straus([(s, curve.base_point)], curve) if past else _JACOBIAN_IDENTITY)
        points = [] if past else [(row[abs(d) - 1], d * s > 0) for row, d in zip(table, digits) if d]
        terms.append([P if keep else (P[0], -P[1] % p) for P, keep in points if P is not None])
    while sum(len(t) // 2 for t in terms) >= _LEVEL_PAIRS:
        sums = iter(_add_batch([(t[i - 1], t[i]) for t in terms for i in range(1, len(t), 2)], a, p))
        terms = [
            [S for S in islice(sums, len(t) // 2) if S is not None] + t[len(t) & ~1 :] for t in terms
        ]
    for i, t in enumerate(terms):
        for x, y in t:
            jacobian[i] = _add_affine(jacobian[i], x, y, a, p)
    return _points(curve, jacobian)


def scalar_mul(s: int, P: CurvePoint) -> CurvePoint:
    """s-fold group sum; 0*P is the identity. The result is the only
    ``CurvePoint`` built.

    Nonnegative integers are multiplied as-is (so order*G genuinely walks
    the whole subgroup rather than being reduced away); negative ones use
    the group inverse, (-s)*P = -(s*P). A multiple of the base point is
    ``base_muls``'s one-element case.
    """
    if (P.x, P.y) == (P.curve.gx, P.curve.gy):
        return base_muls([s], P.curve)[0]
    return multi_scalar_mul([(s, P)], P.curve)


def multi_scalar_mul(
    pairs: Iterable[tuple[int, CurvePoint]], curve: CurveParams
) -> CurvePoint:
    """Σ s_i * P_i over (scalar, point) pairs in one Straus pass; zero
    scalars and identity points add nothing, negative scalars use the group
    inverse. Every point must lie on ``curve``."""
    return _points(curve, [_straus(pairs, curve)])[0]


def base_mul_equals(
    s: int, pairs: Iterable[tuple[int, CurvePoint]], curve: CurveParams
) -> bool:
    """Whether s * G = ``multi_scalar_mul(pairs, curve)`` for a base point
    of order ``curve.order``. Both sides stay Jacobian: X1·Z2² = X2·Z1² and
    Y1·Z2³ = Y2·Z1³, with no inversion."""
    digits = _signed_digits(s % curve.order, _BASE_WIDTH)
    X1, Y1, Z1 = _mul_base(digits, _base_table(curve), curve)
    X2, Y2, Z2 = _straus(pairs, curve)
    if not (Z1 and Z2):
        return not (Z1 or Z2)
    ZZ1, ZZ2 = Z1 * Z1, Z2 * Z2
    p = curve.p
    return (X1 * ZZ2 - X2 * ZZ1) % p == 0 and (Y1 * ZZ2 * Z2 - Y2 * ZZ1 * Z1) % p == 0


@dataclass
class CurveValidation:
    """Itemized validation outcome; empty failure list means valid.
    ``field_params`` is the share field of the order, when the order is a
    prime above 2."""

    failures: list[str] = field(default_factory=list)
    field_params: FieldParams | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_curve(params: CurveParams) -> CurveValidation:
    """Check primality, discriminant, base-point membership and subgroup
    order, and that an order at most p is the whole group's: by Hasse's
    bound, one with (p + 1 - order)^2 > 4p leaves a cofactor above 1. The
    checks that reduce mod p run only over a prime p (p = 0 has no
    remainders). Returns itemized failures instead of raising."""
    report = CurveValidation()
    p_prime = is_prime(params.p)
    if not p_prime:
        report.failures.append(f"field modulus {params.p} is not prime")
    elif (4 * params.a**3 + 27 * params.b**2) % params.p == 0:
        report.failures.append("singular curve: 4a^3 + 27b^2 = 0 mod p")
    on_curve = p_prime and params.contains(params.gx, params.gy)
    if p_prime and not on_curve:
        report.failures.append("base point not on curve")
    try:
        report.field_params = FieldParams(params.order)
    except ValueError as exc:
        report.failures.append(f"subgroup order: {exc}")
    if on_curve:
        if not scalar_mul(params.order, params.base_point).is_identity:
            report.failures.append("order * G is not the identity")
    if params.order <= params.p and (params.p + 1 - params.order) ** 2 > 4 * params.p:
        report.failures.append(
            f"subgroup order {params.order} is below Hasse's bound for p: cofactor above 1"
        )
    return report


# Textbook toy curve: 19 points total (prime), so every point generates the
# whole group and only 9 distinct x-coordinates exist. Confirmed by the
# exhaustive enumeration in the test suite before use.
TOY_CURVE = CurveParams(name="toy", p=17, a=2, b=2, gx=5, gy=1, order=19)

# secp256k1: prime order, cofactor 1, standard full-size parameters.
STANDARD_CURVE = CurveParams(
    name="standard",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
    a=0,
    b=7,
    gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    order=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
)

PROFILES = {"toy": TOY_CURVE, "standard": STANDARD_CURVE}
