"""Prime-field arithmetic, polynomials, and Lagrange interpolation.

All share and renewal math lives in a single prime field: the order of the
curve's base-point subgroup in curve mode, or a standalone small prime in
"no-curve" test mode (which enables exhaustive secrecy checks). Each is
proven prime once, where it enters: the order by ``curve.validate_curve``,
the prime by ``config.parse_scenario``. ``is_prime`` is exact below psi_13
(about 3.3e24), and above it Baillie-PSW, which no known composite passes.

Field values are plain ints in [0, p); every function takes the modulus p
explicitly and returns reduced values. A polynomial is its coefficient
tuple in ascending powers: q[h] multiplies x^h, q[0] is the free
coefficient and len(q) is the degree plus one. All operations are pure
functions, so everything here is safe to share across threads.
Interpolation at zero keeps one cache: the Lagrange weights of each
recent abscissa set, which depend on the abscissas and the modulus alone
(``lagrange_weights``).
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import random
from typing import Sequence

from .errors import HierShareError


class ZeroInverse(HierShareError):
    """Multiplicative inverse of zero requested."""


class DuplicateAbscissa(HierShareError):
    """Two interpolation points share an x-coordinate."""


class ZeroAbscissa(HierShareError):
    """x = 0 used as an evaluation point; it would expose the free
    coefficient directly and is always a hard error, never skipped."""


def _small_primes(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return tuple(i for i in range(limit) if sieve[i])


_TRIAL_PRIMES = _small_primes(1000)

# The first 13 primes as Miller-Rabin bases are proven deterministic for all
# n < psi_13 = 3_317_044_064_679_887_385_961_981 (Sorenson & Webster 2017).
# The first 12 alone are not: psi_12 = 318_665_857_834_031_151_167_461
# = 399165290221 * 798330580441 passes bases 2..37 (Jiang & Deng 2014).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Trial division below 997^2, then Baillie-PSW: a strong probable-prime
    test to base 2 and a strong Lucas test with Selfridge's parameters
    (Baillie & Wagstaff 1980). Below psi_13 the first test takes the first
    13 prime bases, which is a proof. Above it no composite is known to pass;
    for any fixed Miller-Rabin base set, passing ones can be built (Arnault
    1995)."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_PRIMES[-1] ** 2:
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES if n < _MR_DETERMINISTIC_BOUND else (2,):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas test of odd n with no small factor: D the first of 5, -7,
    9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4 (Selfridge). A square
    has no such D, so it is refused first. Uses no modular exponentiation."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2^s, d odd
    # U_k, V_k and Q^k from k = 1 by doubling and adding one, down d's bits.
    U, V, Qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) % n, (D * U + V) % n, Qk * Q % n
            U = (U if U % 2 == 0 else U + n) // 2
            V = (V if V % 2 == 0 else V + n) // 2
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def modulus_refusal(n: int) -> str | None:
    """Why ``n`` cannot be a share field's modulus, or None if it can: it
    must be a prime above 2."""
    if n <= 2:
        return f"field modulus must exceed 2, got {n}"
    return None if is_prime(n) else f"field modulus {n} is not prime"


def field_inverse(a: int, p: int) -> int:
    """Multiplicative inverse mod the prime p (extended Euclid through
    ``pow(a, -1, p)``, the same value as Fermat's a^(p-2)). Raises on zero."""
    if a % p == 0:
        raise ZeroInverse("zero has no multiplicative inverse")
    return pow(a, -1, p)


Polynomial = tuple[int, ...]


def poly_eval(q: Polynomial, x: int, p: int) -> int:
    """Horner evaluation of q at x mod p; poly_eval(q, 0, p) is the free
    coefficient."""
    acc = 0
    for coeff in reversed(q):
        acc = (acc * x + coeff) % p
    return acc


def randbelow(rng: random.Random, n: int) -> int:
    """The first ``rng.getrandbits(n.bit_length())`` below n >= 1: the value
    and generator state of ``randrange(n)``, as ``1 + randbelow(rng, n - 1)``
    is ``randrange(1, n)``. Every bounded draw in the package is one."""
    bits = n.bit_length()
    draw = rng.getrandbits(bits)
    while draw >= n:
        draw = rng.getrandbits(bits)
    return draw


def sample_polynomial(rng: random.Random, degree: int, free: int, p: int) -> Polynomial:
    """Random polynomial mod p with the given free coefficient and exact
    degree. Each coefficient, from the lowest power up, is ``randbelow(rng,
    p)``, its loop inlined on one ``getrandbits``. A zero leading
    coefficient would silently lower the effective threshold, so for
    degree >= 1 the top one is drawn again until nonzero.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    getrandbits, bits = rng.getrandbits, p.bit_length()
    coeffs = [free]
    while len(coeffs) <= degree:
        draw = getrandbits(bits)
        if draw < p and (draw or len(coeffs) < degree):
            coeffs.append(draw)
    return tuple(coeffs)


def keyed_polynomial(key: bytes, degree: int, free: int, p: int) -> Polynomial:
    """The polynomial mod p with the given free coefficient and exact degree
    drawn from ``shake_256(key)``: each coefficient, from the lowest power
    up, is the next ceil(bits/8) little-endian bytes of the digest masked to
    bits = p.bit_length() bits; a draw >= p is rejected, and so is 0 for
    the top coefficient. A digest that runs out is taken again at twice the
    length, which it extends (SHAKE is an XOF), so the draws depend on the
    key alone. Degree 0 draws nothing."""
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    bits = p.bit_length()
    width, mask = (bits + 7) // 8, (1 << bits) - 1
    coeffs = [free]
    if degree:
        xof = hashlib.shake_256(key)
        stream, start = xof.digest(2 * width * degree), 0
        while len(coeffs) <= degree:
            if start + width > len(stream):
                stream = xof.digest(2 * len(stream))
            draw = int.from_bytes(stream[start : start + width], "little") & mask
            start += width
            if draw < p and (draw or len(coeffs) < degree):
                coeffs.append(draw)
    return tuple(coeffs)


# Abscissa sets whose Lagrange weights ``lagrange_weights`` keeps. The
# intact check interpolates once per round and holders' view, and only the
# groups the root needs (121 of a 1,364-user tree's 341). A no-curve
# group's points are its members' ids, so after a redeal most sets are
# hits. The bound holds every group of such a tree with room for curve
# rounds, whose evaluation points change with each deal.
WEIGHT_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def lagrange_weights(xs: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The weights w_i = prod_{j != i} x_j / (x_j - x_i) mod p that take the
    values at the abscissas ``xs`` (reduced mod p) to the value at zero.

    The abscissas must be distinct and nonzero (a zero abscissa would be
    the secret itself); a refusal is raised on every call, since only
    results are cached. The denominators are inverted together
    (Montgomery's trick), so the weights cost one inversion. Results are
    cached per (xs, p); beyond WEIGHT_CACHE_SIZE sets the least recently
    used is dropped.
    """
    if not xs:
        raise ValueError("interpolation needs at least one point")
    seen: set[int] = set()
    for x in xs:
        if x == 0:
            raise ZeroAbscissa("x = 0 is forbidden as an evaluation point")
        if x in seen:
            raise DuplicateAbscissa(f"abscissa {x} appears twice")
        seen.add(x)

    nums, dens, prefix = [], [], [1]
    for i, x_i in enumerate(xs):
        num, den = 1, 1
        for j, x_j in enumerate(xs):
            if i != j:
                num = num * x_j % p
                den = den * (x_j - x_i) % p
        nums.append(num)
        dens.append(den)
        prefix.append(prefix[-1] * den % p)
    inverse = field_inverse(prefix[-1], p)  # 1 / (den_0 ... den_{k-1})
    weights = [0] * len(xs)
    for i in reversed(range(len(xs))):
        weights[i] = nums[i] * prefix[i] % p * inverse % p
        inverse = inverse * dens[i] % p
    return tuple(weights)


def lagrange_at_zero(points: Sequence[tuple[int, int]], p: int) -> int:
    """Free coefficient mod p of the unique polynomial through the given
    points: the dot product of their values with ``lagrange_weights`` of
    their abscissas reduced mod p.

    All abscissas must be distinct and nonzero mod p. The weights depend
    on the abscissas alone and are cached, so an interpolation over a set
    seen before (a no-curve group, whose abscissas are its members' ids)
    costs no inversion, and a new set costs one.
    """
    weights = lagrange_weights(tuple([x % p for x, _ in points]), p)
    return sum(map(operator.mul, weights, [y for _, y in points])) % p
