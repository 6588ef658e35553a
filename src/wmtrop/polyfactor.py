"""Factorization of univariate polynomials over Q.

Method (desk scale, correctness over speed):

1. run Yun's squarefree decomposition on the primitive integer multiple
   of the input: gcds by the primitive pseudo-remainder sequence, and
   exact integer divisions, since by Gauss' lemma a primitive divisor of
   an integer polynomial leaves an integer quotient;
2. rescale each monic squarefree part to a monic *integer* polynomial via
   x -> y/D with D the lcm of the coefficient denominators;
3. factor the integer polynomial by the classical Zassenhaus route:
   pick a small odd prime p keeping the polynomial squarefree mod p,
   factor mod p (distinct-degree then Cantor-Zassenhaus splitting),
   Hensel-lift the modular factors past twice the Mignotte-style
   coefficient bound, and recombine subsets by exact trial division on
   integer coefficients.

Subset recombination is exponential in the number of modular factors, so
this is intended for degrees up to a few dozen; RECOMBINATION_LIMIT
bounds the subsets it may try.

The weights of a characteristic polynomial need no factoring: monodromy
splits them by real roots and reciprocal gcds.  Within the package this
module factors only the rest that split cannot place, the impure part of
the input, so that a NotPureError names an irreducible factor;
factor_rational is also a library entry point of its own.
"""

from __future__ import annotations

import itertools
import math
import random

from .ratlin import (
    RatPoly,
    _int_derivative,
    _int_exact_div,
    _int_gcd,
    _int_mul,
    _int_sub,
    _power,
    _primitive,
    _trim,
    prime_factors,
)

#: most subsets of modular factors that recombination tries for one
#: squarefree part, checked before each subset size; the 16 factors of the
#: degree-32 Swinnerton-Dyer polynomial modulo 19 need 39202 (every size
#: up to 8), while 32 factors would pass it before size 4
RECOMBINATION_LIMIT = 40000


class RecombinationLimitError(ValueError):
    """Zassenhaus recombination would try more subsets than RECOMBINATION_LIMIT."""


# ---------------------------------------------------------------------------
# arithmetic in (Z/m)[x]; coefficients are ints in [0, m), lowest degree first


def _mx_normalize(a: list[int], m: int) -> list[int]:
    return _trim([c % m for c in a])


def _mx_add(a: list[int], b: list[int], m: int) -> list[int]:
    return _mx_sub(a, [-c for c in b], m)


def _mx_sub(a: list[int], b: list[int], m: int) -> list[int]:
    return _mx_normalize(_int_sub(a, b), m)


def _mx_mul(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([c % m for c in _int_mul(a, b)])


def _mx_divmod_monic(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Division by a monic polynomial; valid over any modulus.  The
    remainder is always reduced mod m, also when `a` has the lower degree."""
    if not b or b[-1] != 1:
        raise ArithmeticError("divisor must be monic")
    rem = list(a)
    db = len(b) - 1
    quo = [0] * (len(rem) - db)
    for k in range(len(rem) - db - 1, -1, -1):
        c = rem[k + db] % m
        quo[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] = (rem[k + j] - c * y) % m
    return _trim(quo), _trim([c % m for c in rem])


def _mx_monic(a: list[int], p: int) -> list[int]:
    # p prime
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _mx_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        _, r = _mx_divmod_monic(a, _mx_monic(b, p), p)
        # account for the unit dropped by forcing the divisor monic
        a, b = b, r
    return _mx_monic(a, p) if a else []


def _mx_xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) with s*a + t*b = g over F_p, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _mx_divmod_monic(r0, _mx_monic(r1, p), p)
        lead_inv = pow(r1[-1], -1, p)
        q = [(c * lead_inv) % p for c in q]
        r0, r1 = r1, r
        s0, s1 = s1, _mx_sub(s0, _mx_mul(q, s1, p), p)
        t0, t1 = t1, _mx_sub(t0, _mx_mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return (
        [(c * inv) % p for c in r0],
        [(c * inv) % p for c in s0],
        [(c * inv) % p for c in t0],
    )


def _mx_powmod(a: list[int], e: int, mod_poly: list[int], p: int) -> list[int]:
    def mulmod(x: list[int], y: list[int]) -> list[int]:
        return _mx_divmod_monic(_mx_mul(x, y, p), mod_poly, p)[1]

    return _power(_mx_divmod_monic(a, mod_poly, p)[1], e, [1], mulmod)


# ---------------------------------------------------------------------------
# factorization over F_p (monic squarefree input)


def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization: [(product of degree-d factors, d)]."""
    out = []
    v = list(f)
    h = [0, 1]
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _mx_powmod(h, p, v, p)
        g = _mx_gcd(_mx_sub(h, [0, 1], p), v, p)
        if len(g) - 1 > 0:
            out.append((g, d))
            v, r = _mx_divmod_monic(v, g, p)
            if r:
                raise ArithmeticError("distinct-degree factor does not divide the polynomial")
            h = _mx_divmod_monic(h, v, p)[1] if len(v) > 1 else []
    if len(v) - 1 > 0:
        out.append((v, len(v) - 1))
    return out


def _edf(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus equal-degree splitting, p odd."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        r = _trim([rng.randrange(p) for _ in range(n)])
        if len(r) - 1 < 1:
            continue
        g = _mx_gcd(r, f, p)
        if 0 < len(g) - 1 < n:
            break
        h = _mx_powmod(r, (p**d - 1) // 2, f, p)
        g = _mx_gcd(_mx_sub(h, [1], p), f, p)
        if 0 < len(g) - 1 < n:
            break
    q, rem = _mx_divmod_monic(f, g, p)
    if rem:
        raise ArithmeticError("equal-degree factor does not divide the polynomial")
    return _edf(g, d, p, rng) + _edf(q, d, p, rng)


def _factor_mod_p(f: list[int], p: int, rng: random.Random) -> list[list[int]]:
    out = []
    for prod, d in _ddf(f, p):
        out.extend(_edf(prod, d, p, rng))
    out.sort(key=lambda g: (len(g), g))
    return out


# ---------------------------------------------------------------------------
# Hensel lifting


def _hensel_step(f, g, h, s, t, m):
    """One quadratic step: lift f = g*h and s*g + t*h = 1 from mod m to mod m^2."""
    m2 = m * m
    e = _mx_sub(_mx_normalize(f, m2), _mx_mul(g, h, m2), m2)
    q, r = _mx_divmod_monic(_mx_mul(s, e, m2), h, m2)
    g1 = _mx_add(_mx_add(g, _mx_mul(t, e, m2), m2), _mx_mul(q, g, m2), m2)
    h1 = _mx_add(h, r, m2)
    b = _mx_sub(_mx_add(_mx_mul(s, g1, m2), _mx_mul(t, h1, m2), m2), [1], m2)
    c, d = _mx_divmod_monic(_mx_mul(s, b, m2), h1, m2)
    s1 = _mx_sub(s, d, m2)
    t1 = _mx_sub(_mx_sub(t, _mx_mul(t, b, m2), m2), _mx_mul(c, g1, m2), m2)
    return g1, h1, s1, t1


def _hensel_pair(f, u, v, p, target):
    """Lift f = u*v from mod p to mod `target` (a 2-power power of p)."""
    g, s, t = _mx_xgcd(u, v, p)
    if g != [1]:
        raise ArithmeticError("lift requires coprime cofactors mod p")
    m = p
    while m < target:
        u, v, s, t = _hensel_step(f, u, v, s, t, m)
        m *= m
    return _mx_normalize(u, target), _mx_normalize(v, target)


def _hensel_lift_all(f, factors, p, target):
    """Lift a mod-p factorization of monic f to mod `target`."""
    if len(factors) == 1:
        return [_mx_normalize(f, target)]
    half = len(factors) // 2
    u = [1]
    for fac in factors[:half]:
        u = _mx_mul(u, fac, p)
    v = [1]
    for fac in factors[half:]:
        v = _mx_mul(v, fac, p)
    u_lift, v_lift = _hensel_pair(_mx_normalize(f, target), u, v, p, target)
    return _hensel_lift_all(u_lift, factors[:half], p, target) + _hensel_lift_all(
        v_lift, factors[half:], p, target
    )


# ---------------------------------------------------------------------------
# Zassenhaus over Z, monic squarefree input


_PRIMES = tuple(p for p in range(3, 150) if prime_factors(p) == (p,))


def _center(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _zassenhaus_monic(g: list[int], rng: random.Random) -> list[list[int]]:
    """Irreducible factors over Z of a monic squarefree integer polynomial
    of degree >= 2.  Being monic, it keeps its degree mod every prime, and
    with one modular factor recombination tries no subset and returns g."""
    n = len(g) - 1
    p = None
    for cand in _PRIMES:
        fp = _mx_normalize(g, cand)
        if _mx_gcd(fp, _mx_normalize(_int_derivative(fp), cand), cand) == [1]:
            p = cand
            break
    if p is None:  # pragma: no cover - squarefree inputs always find a prime here
        raise ArithmeticError("no small prime keeps the polynomial squarefree")
    modular = _factor_mod_p(_mx_normalize(g, p), p, rng)
    bound = 2 * (2**n) * (math.isqrt(sum(c * c for c in g)) + 1) + 1
    target = p
    while target < bound:
        target *= target
    lifted = _hensel_lift_all(g, modular, p, target)

    pool = list(lifted)
    result: list[list[int]] = []
    remaining = list(g)
    size, tried = 1, 0
    while 2 * size <= len(pool):
        if tried + math.comb(len(pool), size) > RECOMBINATION_LIMIT:
            raise RecombinationLimitError(
                f"recombining {len(pool)} modular factors of a degree-{n} factor of the "
                f"characteristic polynomial needs more than {RECOMBINATION_LIMIT} trials, "
                f"the recombination limit"
            )
        hit = None
        for combo in itertools.combinations(range(len(pool)), size):
            tried += 1
            prod = [1]
            for i in combo:
                prod = _mx_mul(prod, pool[i], target)
            cand = [_center(c, target) for c in prod]
            if remaining[0] != 0 and cand[0] != 0 and remaining[0] % cand[0] != 0:
                continue
            quo = _int_exact_div(remaining, cand)
            if quo is not None:
                hit = (combo, cand, quo)
                break
        if hit is None:
            size += 1
            continue
        combo, cand, quo = hit
        result.append(cand)
        remaining = quo
        pool = [f for i, f in enumerate(pool) if i not in set(combo)]
    if len(remaining) - 1 > 0:
        result.append(remaining)
    return result


# ---------------------------------------------------------------------------
# public entry points


def _divide(a: list[int], b: list[int]) -> list[int]:
    quo = _int_exact_div(a, b)
    if quo is None:
        raise ArithmeticError("a primitive divisor left a non-integral quotient")
    return quo


def squarefree_decomposition(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """Yun's algorithm: monic pairwise-coprime squarefree parts with multiplicity.

    It runs on the primitive integer multiple f of p.  Every gcd is
    primitive, so by Gauss' lemma each division by one is exact in Z[x];
    c and d stay the same rational multiple of Yun's c and d for monic p,
    and the parts come back monic.  No multiplicity exceeds the degree, so
    a round past it means a broken invariant, and raises ArithmeticError
    instead of looping for ever.
    """
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    if p.degree < 1:
        return []
    f = _primitive(list(p._num))
    fp = _int_derivative(f)
    g = _int_gcd(f, fp)
    if len(g) == 1:
        return [(p.monic(), 1)]
    c = _divide(f, g)
    d = _int_sub(_divide(fp, g), _int_derivative(c))
    out = []
    i = 1
    while len(c) > 1:
        if i > p.degree:
            raise ArithmeticError(f"Yun's loop reached multiplicity {i} above the degree {p.degree}")
        a = _int_gcd(c, d)
        c = _divide(c, a)
        d = _int_sub(_divide(d, a), _int_derivative(c))
        if len(a) > 1:
            out.append((RatPoly._over(a, a[-1]), i))
        i += 1
    return out


def _factor_squarefree_monic(f: RatPoly) -> list[RatPoly]:
    """Irreducible monic rational factors of a monic squarefree polynomial."""
    n = f.degree
    if n == 1:
        return [f]
    # f = c/den is monic, so c[n] = den and y = den * x turns den^n f into
    # the monic integer polynomial with coefficients c[k] den^(n-k-1)
    c, den = f._num, f._den
    g_int = [x * den ** (n - k - 1) for k, x in enumerate(c[:-1])] + [1]
    rng = random.Random(hash((tuple(g_int), 0x7ea9)))
    out = []
    for h in _zassenhaus_monic(g_int, rng):
        m = len(h) - 1
        out.append(RatPoly._over([x * den**j for j, x in enumerate(h)], den**m))
    return out


def factor_rational(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """Factor p over Q into monic irreducibles with multiplicities.

    The product of the returned factors (with multiplicity) equals
    p.monic().  Factors come back in a canonical order: by degree,
    then lexicographically on coefficients.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    out: list[tuple[RatPoly, int]] = []
    for sq, mult in squarefree_decomposition(p):
        for irr in _factor_squarefree_monic(sq):
            out.append((irr, mult))
    # the coefficients over one common denominator order as the Fractions do
    den = math.lcm(*(g._den for g, _ in out))
    out.sort(key=lambda fm: (fm[0].degree, [x * (den // fm[0]._den) for x in fm[0]._num]))
    return out
