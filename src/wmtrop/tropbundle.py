"""Tropical data of line bundles on totally degenerate abeloid quotients.

A bundle is recorded by its valuation-level shadow: the lattice, an
integer matrix D giving the coordinates of sigma on the dual basis, and
the valuations v_i of the trivialization on the lattice generators.  The
induced symmetric form S = G^T D decides ampleness; the v_i, extended
quadratically over the lattice by chi_valuation, decide which hypercube
models the bundle extends to; and on rank-1 quotients an explicit
piecewise-affine witness f with integer slopes can be constructed and
verified cell by cell.

Only valuations are modeled.  Unit-level data (the actual trivializing
elements, frames, transition units) is discarded.  The abelian part of
a non-degenerate quotient enters solely through the opaque
`abelian_part_ample` flag.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .ratlin import Matrix, _frac, prime_factors, valuation
from .troplattice import CELL_LIMIT, CellWidth, TropicalLattice, check_prime, divides


class ModelUndefinedError(ValueError):
    """The requested cell width does not divide the lattice, so no model exists."""


class NoPLevelError(ValueError):
    """No refinement alpha/p^n works; carries the offending prime factors."""

    def __init__(self, offending_primes: tuple[int, ...]):
        self.offending_primes = offending_primes
        primes = ", ".join(str(p) for p in offending_primes)
        super().__init__(
            f"valuation denominators contain primes coprime to p ({primes}); "
            "choose a finer base width"
        )


class BundleData(
    NamedTuple(
        "BundleData",
        [
            ("lattice", TropicalLattice),
            ("sigma", Matrix),
            ("chi_vals", tuple[Fraction, ...]),
            ("abelian_part_ample", bool),
        ],
    )
):
    """(sigma matrix, trivialization valuations) over a fixed lattice basis.

    `sigma` holds the integer coordinates of sigma(m_j) on the dual
    basis; `chi_vals[i]` is the valuation of the trivialization at the
    i-th generator.  The induced form S = G^T sigma must be symmetric,
    which is checked at construction.
    """

    __slots__ = ()

    def __new__(cls, lattice, sigma, chi_vals, abelian_part_ample=True):
        r = lattice.rank
        if not (sigma.is_square() and sigma.rows == r):
            raise ValueError("sigma must be square of the lattice rank")
        if not sigma.is_integral():
            raise ValueError("sigma must have integer entries")
        chi = tuple(_frac(x) for x in chi_vals)
        if len(chi) != r:
            raise ValueError("one trivialization valuation per generator required")
        form = lattice.generators.transpose() * sigma
        if form != form.transpose():
            raise ValueError("induced bilinear form is not symmetric")
        return super().__new__(cls, lattice, sigma, chi, bool(abelian_part_ample))

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def __repr__(self) -> str:
        return f"BundleData(rank {self.rank}, sigma {self.sigma!r}, chi {self.chi_vals})"


def form_matrix(b: BundleData) -> Matrix:
    """Symmetric form S = G^T sigma; S_ij is the pairing valuation of (m_i, sigma m_j)."""
    return b.lattice.generators.transpose() * b.sigma


def leading_minors(s: Matrix) -> list[Fraction]:
    """Determinants of the top-left k-by-k submatrices of s, k = 1..rows."""
    return [s.leading_minor(k).det() for k in range(1, s.rows + 1)]


def ample_check(b: BundleData, minors: Sequence[Fraction] | None = None) -> bool:
    """Positive definiteness of S by exact leading principal minors.

    `minors` are S's leading minors when the caller already holds them
    (from `leading_minors(form_matrix(b))`); otherwise they are computed.
    Covers the torus part only; whether the abelian-part bundle is ample
    is the caller's concern (see `abelian_part_ample`).
    """
    if minors is None:
        minors = leading_minors(form_matrix(b))
    return all(m > 0 for m in minors)


def chi_valuation(b: BundleData, a: Sequence[int]) -> Fraction:
    """Valuation of the trivialization at the lattice point sum(a_i m_i).

    Extends the generator valuations quadratically:
    sum a_i v_i + sum_{i<j} a_i a_j S_ij + sum_i C(a_i, 2) S_ii,
    which is the unique extension consistent with the pairing cocycle
    chi(m+m') = chi(m) chi(m') <m, sigma m'>.
    """
    if len(a) != b.rank:
        raise ValueError("coefficient vector length mismatch")
    if any(int(x) != x for x in a):
        raise ValueError("coefficients must be integers")
    coeffs = [int(x) for x in a]
    s = form_matrix(b)
    out = sum((c * v for c, v in zip(coeffs, b.chi_vals)), Fraction(0))
    for i in range(b.rank):
        out += Fraction(coeffs[i] * (coeffs[i] - 1), 2) * s[i, i]
        for j in range(i + 1, b.rank):
            out += coeffs[i] * coeffs[j] * s[i, j]
    return out


def tensor_power(b: BundleData, n: int) -> BundleData:
    """n-th tensor power: same lattice, n*sigma, n*chi valuations."""
    if n < 1:
        raise ValueError("tensor power must be positive")
    return BundleData(
        b.lattice,
        b.sigma.scale(n),
        tuple(n * v for v in b.chi_vals),
        b.abelian_part_ample,
    )


def extends_to(b: BundleData, alpha: CellWidth) -> bool:
    """Whether the bundle extends to the width-alpha model.

    Requires the model to exist (alpha divides the lattice).  The test is
    that every generator valuation is an integer multiple of alpha: that
    suffices for the whole lattice because the form entries S_ij already
    lie in alpha*Z whenever alpha divides the lattice and sigma is
    integral, so the quadratic extension stays in alpha*Z.
    """
    if not divides(alpha, b.lattice):
        raise ModelUndefinedError("alpha does not divide the lattice; no model at this width")
    a = alpha.alpha
    return all((v / a).denominator == 1 for v in b.chi_vals)


def minimal_level(b: BundleData, alpha: CellWidth, p: int) -> int:
    """Smallest n >= 0 with the bundle extending to the width-alpha/p^n model.

    Exists iff each v_i/alpha has a p-power denominator; otherwise raises
    NoPLevelError carrying the offending prime factors.  p must be prime.
    """
    if not divides(alpha, b.lattice):
        raise ModelUndefinedError("alpha does not divide the lattice; no model at this width")
    check_prime(p)
    level = 0
    bad: set[int] = set()
    for v in b.chi_vals:
        n, den = valuation((v / alpha.alpha).denominator, p)
        if den != 1:
            bad.update(prime_factors(den))
        level = max(level, n)
    if bad:
        raise NoPLevelError(tuple(sorted(bad)))
    return level


class TropicalSection(
    NamedTuple(
        "TropicalSection",
        [
            ("alpha", Fraction),
            ("slopes", tuple[int, ...]),
            ("base_value", Fraction),
            ("slope_increment", int),
            ("value_increment", Fraction),
        ],
    )
):
    """Piecewise-affine witness on a rank-1 quotient.

    Slopes s_0..s_{k-1} on the cells [j*alpha, (j+1)*alpha] of one
    period, the value at 0, and the periodic extension data: crossing a
    period adds `slope_increment` to every slope and `value_increment`
    to the value at the left endpoint.
    """

    __slots__ = ()

    def __new__(cls, alpha, slopes, base_value, slope_increment, value_increment):
        alpha, base_value, value_increment = _frac(alpha), _frac(base_value), _frac(value_increment)
        if alpha <= 0:
            raise ValueError("cell width must be positive")
        slopes = tuple(slopes)
        if not slopes:
            raise ValueError("at least one cell per period required")
        kinds = set(map(type, slopes))
        if bool in kinds or not all(map(issubclass, kinds, itertools.repeat(int))):
            raise ValueError("slopes must be integers")
        if not isinstance(slope_increment, int) or isinstance(slope_increment, bool):
            raise ValueError("slope increment must be an integer")
        return super().__new__(cls, alpha, slopes, base_value, slope_increment, value_increment)

    @property
    def period_cells(self) -> int:
        return len(self.slopes)

    @property
    def period(self) -> Fraction:
        return self.alpha * len(self.slopes)

    def corner_value(self, j: int) -> Fraction:
        """Value at the cell corner j*alpha, for any integer j."""
        t, i = divmod(j, len(self.slopes))
        val = self.base_value
        for lidx in range(i):
            val += self.slopes[lidx] * self.alpha
        if t:
            u0 = i * self.alpha
            lam = self.period
            val += t * (self.slope_increment * u0 + self.value_increment)
            val += Fraction(t * (t - 1), 2) * self.slope_increment * lam
        return val


class FaceTransition(NamedTuple):
    """Data at a shared cell face: the valuation shadow of a transition unit.

    Integers in lowest terms, with positive denominators, not checked:
    verify_section builds them so, and tuple equality and hash are the
    values'.  The face sits at u = pos_num/pos_den, and the pieces on its
    left and right take the values left_num/left_den and
    right_num/right_den there; the properties build the Fractions.
    """

    pos_num: int
    pos_den: int
    left_slope: int
    right_slope: int
    left_num: int
    left_den: int
    right_num: int
    right_den: int

    @property
    def position(self) -> Fraction:
        return Fraction(self.pos_num, self.pos_den)

    @property
    def left_value(self) -> Fraction:
        return Fraction(self.left_num, self.left_den)

    @property
    def right_value(self) -> Fraction:
        return Fraction(self.right_num, self.right_den)

    @property
    def slope_difference(self) -> int:
        return self.left_slope - self.right_slope

    @property
    def continuous(self) -> bool:
        return self.left_num == self.right_num and self.left_den == self.right_den


class SectionReport(NamedTuple):
    ok: bool
    failures: tuple[str, ...]
    faces: tuple[FaceTransition, ...]


def _rank1_generator_data(b: BundleData) -> tuple[Fraction, int, Fraction]:
    """(period, slope increment, value increment) for rank 1.

    The period is the positive generator of the valuation lattice; if the
    stored generator is negative, the data is re-expressed through the
    opposite lattice element so that one period step moves by +period.
    """
    if b.rank != 1:
        raise ValueError("rank-1 bundle required")
    g = b.lattice.generators[0, 0]
    sign = 1 if g > 0 else -1
    lam = abs(g)
    d_eff = sign * int(b.sigma[0, 0])
    v_eff = chi_valuation(b, (sign,))
    return lam, d_eff, v_eff


def construct_f(b: BundleData, alpha: CellWidth) -> TropicalSection:
    """Canonical piecewise-affine witness on the rank-1 width-alpha model.

    The slopes over one period are integers summing to v/alpha and are
    distributed as evenly as possible, the leftmost cells absorbing the
    remainder.  Any other integer slope vector with the same sum is an
    equally valid witness and is accepted by verify_section.
    """
    if b.rank != 1:
        raise ValueError("explicit witnesses are only constructed for rank 1")
    if not extends_to(b, alpha):
        raise ModelUndefinedError(
            "bundle does not extend at this width; refine alpha (see minimal_level)"
        )
    lam, d_eff, v_eff = _rank1_generator_data(b)
    k_frac, total_frac = lam / alpha.alpha, v_eff / alpha.alpha
    if k_frac.denominator != 1 or total_frac.denominator != 1:
        raise ArithmeticError("cell count or slope sum over a period is not an integer")
    k, total = int(k_frac), int(total_frac)
    if k > CELL_LIMIT:
        raise ValueError(f"{k} cells per period are above the cell limit {CELL_LIMIT}")
    base = total // k
    rem = total - base * k
    slopes = tuple([base + 1] * rem + [base] * (k - rem))
    return TropicalSection(
        alpha=alpha.alpha,
        slopes=slopes,
        base_value=Fraction(0),
        slope_increment=d_eff,
        value_increment=v_eff,
    )


def verify_section(b: BundleData, f: TropicalSection) -> SectionReport:
    """Check a rank-1 witness cell by cell; failures are report content.

    Checks agreement of adjacent affine pieces at every shared face over
    one period plus its translate (the valuation form of "transition units
    have absolute value 1"), and that crossing a period adds exactly the
    affine function z of the lattice generator, both in slope and in value.
    Integer slopes need no check here: TropicalSection rejects any other.
    Linear in the number of cells: the slope prefix is summed once, values
    are compared as integer numerators over one common denominator, and
    each face keeps those integers, reduced to lowest terms at the end; a
    Fraction is built only to spell a discontinuity.
    """
    lam, d_eff, v_eff = _rank1_generator_data(b)
    failures: list[str] = []
    if f.alpha * f.period_cells != lam:
        failures.append(
            f"period mismatch: {f.period_cells} cells of width {f.alpha} "
            f"do not tile a period of length {lam}"
        )
        return SectionReport(ok=False, failures=tuple(failures), faces=())
    if f.slope_increment != d_eff:
        failures.append(
            f"periodicity (slope): increment per period is {f.slope_increment}, "
            f"the bundle requires {d_eff}"
        )
    if f.value_increment != v_eff:
        failures.append(
            f"periodicity (value): increment per period is {f.value_increment}, "
            f"the bundle requires {v_eff}"
        )
    slopes, k, d = f.slopes, f.period_cells, f.slope_increment
    slope_sum = sum(slopes) * f.alpha
    if slope_sum != f.value_increment:
        failures.append(
            f"periodicity: slopes sum to {slope_sum} over one period "
            f"but the value increment is {f.value_increment}"
        )
    # every corner value lies in (1/den)Z: compare the numerators over den
    a_num, a_den = f.alpha.numerator, f.alpha.denominator
    den = math.lcm(a_den, f.base_value.denominator, f.value_increment.denominator)
    step = a_num * (den // a_den)
    base = f.base_value.numerator * (den // f.base_value.denominator)
    shift = f.value_increment.numerator * (den // f.value_increment.denominator)
    # cell j has slope slopes[j % k] + (j // k) * d; face j is the right end of cell j
    cells = [*slopes, *[s + d for s in slopes], slopes[0] + 2 * d]
    rises = [step * s for s in cells[: 2 * k]]
    # inside a period the corners are prefix sums; the second period starts
    # at corner k = base + shift, corner_value's closed form at t = 1
    first = list(itertools.accumulate(rises[:k], initial=base))
    second = list(itertools.accumulate(rises[k:], initial=base + shift))
    ends = first[1:] + second[1:]  # each piece's value at the right end of its cell
    corners = first[1:k] + second[:k] + [base + 2 * shift + d * k * step]  # corners 1..2k
    for j in itertools.compress(range(2 * k), map(operator.ne, ends, corners)):
        failures.append(
            f"discontinuity at u={Fraction((j + 1) * a_num, a_den)}: "
            f"left piece gives {Fraction(ends[j], den)}, "
            f"right piece gives {Fraction(corners[j], den)}"
        )
    # lowest terms: alpha is, so face j's position (j+1) a_num / a_den reduces by gcd(j+1, a_den)
    a_dens, dens, div = itertools.repeat(a_den), itertools.repeat(den), operator.floordiv
    pos_gcds = list(map(math.gcd, range(1, 2 * k + 1), a_dens))
    left_gcds = list(map(math.gcd, ends, dens))
    right_gcds = list(map(math.gcd, corners, dens))
    positions = range(a_num, (2 * k + 1) * a_num, a_num)
    # FaceTransition._make, without its length check in Python per face
    faces = map(
        functools.partial(tuple.__new__, FaceTransition),
        zip(
            map(div, positions, pos_gcds), map(div, a_dens, pos_gcds), cells, cells[1:],
            map(div, ends, left_gcds), map(div, dens, left_gcds),
            map(div, corners, right_gcds), map(div, dens, right_gcds),
        ),
    )  # fmt: skip
    return SectionReport(ok=not failures, failures=tuple(failures), faces=tuple(faces))
