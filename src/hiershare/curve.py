"""Short-Weierstrass elliptic-curve group over a prime field.

Supplies the group behind user keys, round keys, and renewal commitments.
Points are affine with an explicit identity, and every ``CurvePoint`` is
checked against the curve equation when it is built. Multiplications run
inside on Jacobian (X, Y, Z) integer tuples (Cohen, Miyaji and Ono 1998)
and convert back to affine once, for the result: multiples of the base
point read a table of its multiples, other points use double-and-add, and
``multi_scalar_mul`` sums several multiples with one shared doubling chain
(Straus). Written for simulation fidelity at desk scale, deliberately not
side-channel hardened.

Points and parameters are immutable; all operations are pure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable

from .algebra import is_prime
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

    @property
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

    def __add__(self, other: "CurvePoint") -> "CurvePoint":
        return point_add(self, other)

    def __neg__(self) -> "CurvePoint":
        if self.is_identity:
            return self
        return CurvePoint(self.curve, self.x, (-self.y) % self.curve.p)


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

# The base-point table holds d * 16^i * G for every 4-bit digit d > 0 and
# every digit position i of a scalar below 2^order.bit_length(): 64 rows of
# 15 points on secp256k1.
_WINDOW_BITS = 4


def _double(P: tuple[int, int, int], a: int, p: int) -> tuple[int, int, int]:
    """2P for any curve coefficient a. A point with Y = 0 (order 2) and the
    identity both come out with Z = 0."""
    X, Y, Z = P
    YY = Y * Y % p
    S = 4 * X * YY % p
    ZZ = Z * Z % p
    M = (3 * X * X + a * ZZ * ZZ) % p
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


def _to_affine(P: tuple[int, int, int], p: int) -> tuple[int, int] | None:
    X, Y, Z = P
    if Z == 0:
        return None
    z_inv = pow(Z, -1, p)
    zz_inv = z_inv * z_inv % p
    return X * zz_inv % p, Y * zz_inv * z_inv % p


@functools.lru_cache(maxsize=8)
def _base_table(curve: CurveParams) -> tuple[tuple[tuple[int, int] | None, ...], ...]:
    """Row i holds d * 16^i * G for d = 1..15, built by the group law alone
    (the order is read only for its bit length, never used to reduce)."""
    rows = []
    base = (curve.gx, curve.gy)  # 16^i * G
    for _ in range((curve.order.bit_length() + _WINDOW_BITS - 1) // _WINDOW_BITS):
        row: list[tuple[int, int] | None] = []
        acc = _JACOBIAN_IDENTITY
        for _multiple in range(1 << _WINDOW_BITS):
            if base is not None:
                acc = _add_affine(acc, *base, curve.a, curve.p)
            row.append(_to_affine(acc, curve.p))
        base = row.pop()  # 16 * base heads the next row
        rows.append(tuple(row))
    return tuple(rows)


def _mul_base(s: int, curve: CurveParams) -> tuple[int, int, int]:
    """s * G for 0 <= s < 16^len(table): one mixed addition per nonzero
    digit, no doublings."""
    acc = _JACOBIAN_IDENTITY
    mask = (1 << _WINDOW_BITS) - 1
    for row in _base_table(curve):
        if not s:
            break
        digit = s & mask
        s >>= _WINDOW_BITS
        if digit and row[digit - 1] is not None:
            acc = _add_affine(acc, *row[digit - 1], curve.a, curve.p)
    return acc


def _straus(terms: list[tuple[int, int, int]], curve: CurveParams) -> tuple[int, int, int]:
    """Σ s_i * (x_i, y_i) for nonnegative s_i and affine non-identity
    points: one doubling per bit of the widest scalar, shared by all
    terms, and one mixed addition per set bit."""
    acc = _JACOBIAN_IDENTITY
    a, p = curve.a, curve.p
    for bit in reversed(range(max((s.bit_length() for s, _, _ in terms), default=0))):
        acc = _double(acc, a, p)
        for s, x, y in terms:
            if s >> bit & 1:
                acc = _add_affine(acc, x, y, a, p)
    return acc


def _result(curve: CurveParams, P: tuple[int, int, int]) -> "CurvePoint":
    affine = _to_affine(P, curve.p)
    if affine is None:
        return curve.identity()
    return CurvePoint(curve, *affine)


def scalar_mul(s: int, P: CurvePoint) -> CurvePoint:
    """s-fold group sum; 0*P is the identity. The result is the only
    ``CurvePoint`` built.

    Nonnegative integers are multiplied as-is (so order*G genuinely walks
    the whole subgroup rather than being reduced away); negative ones use
    the group inverse, (-s)*P = -(s*P).
    """
    curve = P.curve
    if P.is_identity or s == 0:
        return curve.identity()
    k = abs(s)
    is_base = (P.x, P.y) == (curve.gx, curve.gy)
    if is_base and k.bit_length() <= _WINDOW_BITS * len(_base_table(curve)):
        X, Y, Z = _mul_base(k, curve)
    else:
        X, Y, Z = _straus([(k, P.x, P.y)], curve)
    return _result(curve, (X, Y if s > 0 else -Y, Z))


def multi_scalar_mul(
    pairs: Iterable[tuple[int, CurvePoint]], curve: CurveParams
) -> CurvePoint:
    """Σ s_i * P_i over (scalar, point) pairs in one Straus pass; zero
    scalars and identity points add nothing, negative scalars use the group
    inverse. Every point must lie on ``curve``."""
    terms = []
    for s, P in pairs:
        if P.curve != curve:
            raise OffCurve("points on different curves")
        if s and not P.is_identity:
            terms.append((abs(s), P.x, P.y if s > 0 else -P.y % curve.p))
    return _result(curve, _straus(terms, curve))


@dataclass
class CurveValidation:
    """Itemized validation outcome; empty failure list means valid."""

    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_curve(params: CurveParams) -> CurveValidation:
    """Check discriminant, base-point membership, subgroup order, and
    primality. Returns itemized failures instead of raising."""
    report = CurveValidation()
    p_prime = is_prime(params.p)
    if not p_prime:
        report.failures.append(f"field modulus {params.p} is not prime")
    if (4 * params.a**3 + 27 * params.b**2) % params.p == 0:
        report.failures.append("singular curve: 4a^3 + 27b^2 = 0 mod p")
    on_curve = params.contains(params.gx, params.gy)
    if not on_curve:
        report.failures.append("base point not on curve")
    if params.order < 2 or not is_prime(params.order):
        report.failures.append(f"subgroup order {params.order} is not prime")
    if p_prime and on_curve:
        if not scalar_mul(params.order, params.base_point).is_identity:
            report.failures.append("order * G is not the identity")
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
