"""Short-Weierstrass elliptic-curve group over a prime field.

Supplies the group behind user keys, round keys, and renewal commitments.
Affine coordinates with an explicit identity point; scalar multiplication by
double-and-add. Written for simulation fidelity at desk scale, deliberately
not side-channel hardened or projective-optimized.

Points and parameters are immutable; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    @property
    def base_point(self) -> "CurvePoint":
        return CurvePoint(self, self.gx, self.gy)

    def identity(self) -> "CurvePoint":
        return CurvePoint(self, None, None)

    def scalar_field(self) -> FieldParams:
        """The field shares live in: integers mod the base point's order."""
        return FieldParams(self.order)


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

    def __rmul__(self, scalar: int) -> "CurvePoint":
        return scalar_mul(scalar, self)


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


def scalar_mul(s: int, P: CurvePoint) -> CurvePoint:
    """s-fold group sum by double-and-add; 0*P is the identity.

    Nonnegative integers are multiplied as-is (so order*G genuinely walks
    the whole subgroup rather than being reduced away); negative ones use
    the group inverse.
    """
    if s < 0:
        return scalar_mul(-s, -P)
    result = P.curve.identity()
    addend = P
    while s:
        if s & 1:
            result = point_add(result, addend)
        addend = point_add(addend, addend)
        s >>= 1
    return result


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
