"""Monodromy and weight filtrations of local Galois-representation data.

Inputs are explicit matrices: a nilpotent operator N, an invertible
Frobenius matrix Phi, the residue cardinality q, and a cohomological
degree i.  The module computes

* the canonical increasing filtration attached to N, centered at 0, the
  unique one with N Fil_j <= Fil_{j-2} and N^j an isomorphism between the
  j-th and (-j)-th graded pieces, downward by the recurrence
  Fil_j = ker N^(j+1) + N Fil_(j+2);
* the weight-space decomposition of Phi (generalized eigenspaces grouped
  by the power of q carried by the eigenvalue moduli) and the increasing
  filtration it spans;
* the comparison of the two filtrations: Fil_j must equal W_(i+j), and
  the Frobenius eigenvalues on each graded piece of the N-filtration
  must be pure of weight i+j.  For a commuting pair with pure Phi, N's
  weight strings, counted from the weights of Phi on the pieces
  ker N^(k+1) / ker N^k, decide the whole comparison.

Weight recognition is exact: a constant-term power-of-q test, the
reciprocal functional equation, and a Sturm count on the trace
polynomial, which together decide for every monic polynomial whether
all its complex roots have squared modulus q^j.  It runs on integer
numerators with no Fraction: for j < 0 the roots are scaled by q^-j, so
the target is always the integer c = q^|j| and the Sturm ends 0 and 4c.

The weight-j part h_j of a characteristic polynomial, the product of
its roots of weight j, comes without factoring over Q, in three phases
(_split_weights): the real roots +-q^k are divided out, then, from an
integer Fujiwara bound down, gcd(f, x^n f(q^w/x)) gives the part of the
top weight w left; a gcd mod 2^61 - 1, or 2^127 - 1 if the first
divides q f_0 f_n (if both do, nothing is split), passes over the
weights where it is 1.  Soundness rests on the third phase alone: each
part must pass the exact purity test at its weight.  The split stops at
a part that fails it, and only the rest it could not place, impure input
above all, is factored over Q, so that NotPureError names an
irreducible factor.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from itertools import accumulate, repeat
from typing import NamedTuple, Sequence

from .polyfactor import _divide, _mx_gcd, factor_rational
from .ratlin import (
    DimensionMismatch,
    Matrix,
    RatPoly,
    Subspace,
    _columns,
    _echelon,
    _int_derivative,
    _int_divmod,
    _int_exact_div,
    _int_gcd,
    _int_mul,
    _int_prem,
    _int_product,
    _int_sub,
    _null_vectors,
    _nullspace_ints,
    _pivot_columns,
    _primitive,
    _span_ints,
    char_poly,
    subspace_sum,
)

#: largest |i| that wmc-check takes; check_wmc compares the filtrations,
#: or counts N's strings, at about |i| indices and lists each mismatch, so
#: a report's time and size grow linearly with |i| (the 2x2 Tate pair lists
#: 1003 at the limit)
DEGREE_LIMIT = 1000


class NotUnipotentError(ValueError):
    """The matrix is not of the form identity + nilpotent."""


class NotNilpotentError(ValueError):
    """The matrix has a nonzero eigenvalue."""


class NotPureError(ValueError):
    """A polynomial is not pure of any integer weight."""

    def __init__(self, poly: RatPoly, q: int, reason: str):
        self.poly = poly
        self.q = q
        self.reason = reason
        super().__init__(f"{poly!r} is not weight-pure for q={q}: {reason}")


class NilpotentOperator(
    NamedTuple(
        "NilpotentOperator",
        [
            ("n_matrix", Matrix),
            ("nilpotency_index", int),
            ("row_spaces", tuple[Subspace, ...]),
        ],
    )
):
    """Square matrix N with N^dim = 0, its nilpotency index, and the row
    spaces of N^0, ..., N^index in `row_spaces`, as canonical subspaces,
    both derived from N.  ker N^k is the null space of row_spaces[k], read
    off its RREF (_null_vectors) with no elimination, and `ranks`, N's
    Jordan type, are their dimensions.

    The row spaces come from a shrinking chain, with no power of N
    multiplied out: the row space of N^(k+1) is that of E_k N, where E_k
    is the RREF basis of the row space of N^k (E_0 N is N itself), so each
    step is one product of r_k x d by d x d and one elimination of its r_k
    rows.  The chain stops at rank 0, after index steps.  The row spaces
    are nested, so a rank that stops falling short of 0 stays there, and N
    is not nilpotent."""

    __slots__ = ()

    def __new__(cls, n_matrix: Matrix):
        if not n_matrix.is_square():
            raise DimensionMismatch("nilpotent operator must be square")
        d = n_matrix.rows
        cols = _columns(n_matrix._num, d)
        spaces, rows = [Subspace.full(d)], n_matrix._num
        while spaces[-1].dim:
            ints, pivots, last, _ = _echelon(rows)
            if len(pivots) == spaces[-1].dim:
                raise NotNilpotentError("matrix is not nilpotent")
            spaces.append(Subspace(d, Matrix._over(ints[: len(pivots)], last, d)))
            rows = _int_product(spaces[-1].basis._num, cols)
        return super().__new__(cls, n_matrix, len(spaces) - 1, tuple(spaces))

    # copy and pickle rebuild from N alone, so the checks and row spaces run again
    def __getnewargs__(self):
        return (self.n_matrix,)

    @property
    def dimension(self) -> int:
        return self.n_matrix.rows

    @property
    def ranks(self) -> tuple[int, ...]:
        """rank N^0, ..., rank N^index, the last one 0."""
        return tuple(s.dim for s in self.row_spaces)

    def __repr__(self) -> str:
        return f"NilpotentOperator(dim {self.dimension}, index {self.nilpotency_index})"


class FrobeniusData(
    NamedTuple(
        "FrobeniusData",
        [
            ("phi_matrix", Matrix),
            ("q", int),
            ("char_poly", RatPoly),
            ("n", NilpotentOperator | None),
            ("pieces", tuple[RatPoly, ...] | None),
        ],
    )
):
    """Invertible Frobenius matrix together with the residue cardinality q,
    and Phi's characteristic polynomial, derived from Phi.  Phi is
    invertible exactly when the constant term, +-det Phi, is not 0.

    An optional nilpotent operator n of Phi's dimension with
    N Phi = q Phi N gives the characteristic polynomial by pieces.  By
    induction N^k Phi = q^k Phi N^k (N^(k+1) Phi = q^k N Phi N^k =
    q^(k+1) Phi N^(k+1)), so N^k v = 0 gives N^k Phi v = q^k Phi N^k v =
    0: Phi preserves every ker N^k (Deligne, Weil II, 1.6), and is
    block-triangular along 0 <= ker N <= ... <= ker N^index = Q^d.
    `pieces` holds the characteristic polynomial of the map Phi induces
    on each G_k = ker N^(k+1) / ker N^k (_graded_char_polys), and
    `char_poly` is their product, the same RatPoly as Berkowitz's on Phi,
    at about one d x d x d product and sum over k of e_k^4, e_k = dim G_k,
    against d^4.  `pieces` is None when n is absent, of another
    dimension or does not q-commute with Phi, and Berkowitz runs on Phi;
    so with this same n, pieces is not None exactly when N Phi = q Phi N.
    Commutation is tried only for an int q >= 2, and the checks keep
    their order: square, invertible, q."""

    __slots__ = ()

    def __new__(cls, phi_matrix, q, n=None):
        if not phi_matrix.is_square():
            raise DimensionMismatch("Frobenius matrix must be square")
        pieces = None
        if (
            n is not None
            and isinstance(q, int)
            and q >= 2
            and n.dimension == phi_matrix.rows
            and _q_commutes(n.n_matrix, phi_matrix, q)
        ):
            pieces = _graded_char_polys(n, phi_matrix)
            cp = reduce(operator.mul, pieces, RatPoly.one())
        else:
            cp = char_poly(phi_matrix)
        if not cp._num[0]:
            raise ValueError("Frobenius matrix must be invertible")
        if not isinstance(q, int) or q < 2:
            raise ValueError("q must be an integer >= 2")
        return super().__new__(cls, phi_matrix, q, cp, n, pieces)

    # copy and pickle rebuild from Phi, q and n, so the checks and char_poly run again
    def __getnewargs__(self):
        return (self.phi_matrix, self.q, self.n)

    @property
    def dimension(self) -> int:
        return self.phi_matrix.rows

    def __repr__(self) -> str:
        return f"FrobeniusData(dim {self.dimension}, q={self.q})"


class Filtration(
    NamedTuple(
        "Filtration", [("ambient_dim", int), ("lo", int), ("pieces", tuple[Subspace, ...])]
    )
):
    """Finite increasing filtration of Q^n indexed by the integers.

    `pieces` holds Fil_lo, ..., Fil_hi: below lo everything is zero, from
    hi on everything is the full space.  The range is trimmed to the
    jumps, from the first nonzero piece to the first full one (lo = 0 on
    Q^0), so equal filtrations have equal fields.  The pieces must be
    nested, Fil_j <= Fil_(j+1), which is not checked: both builders nest
    them by construction.
    """

    __slots__ = ()

    def __new__(cls, ambient_dim: int, lo: int, pieces: Sequence[Subspace]):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("empty index range")
        if any(p.ambient_dim != ambient_dim for p in pieces):
            raise DimensionMismatch("piece has wrong ambient dimension")
        if not pieces[-1].is_full():
            raise ValueError("top filtration piece must be the full space")
        dims = [p.dim for p in pieces]
        start = next((k for k, n in enumerate(dims) if n), len(dims) - 1)
        stop = dims.index(ambient_dim, start) + 1
        lo = lo + start if ambient_dim else 0
        return super().__new__(cls, ambient_dim, lo, pieces[start:stop])

    @classmethod
    def trivial(cls, ambient_dim: int) -> "Filtration":
        return cls(ambient_dim, 0, (Subspace.full(ambient_dim),))

    @property
    def hi(self) -> int:
        return self.lo + len(self.pieces) - 1

    def at(self, j: int) -> Subspace:
        if j < self.lo:
            return Subspace.zero(self.ambient_dim)
        if j > self.hi:
            return Subspace.full(self.ambient_dim)
        return self.pieces[j - self.lo]

    def dim_at(self, j: int) -> int:
        """dim Fil_j, with no subspace built outside the stored range."""
        if j < self.lo:
            return 0
        if j > self.hi:
            return self.ambient_dim
        return self.pieces[j - self.lo].dim

    def jump_indices(self) -> list[int]:
        return [j for j in range(self.lo, self.hi + 1) if self.graded_dimension(j)]

    def graded_dimension(self, j: int) -> int:
        return self.dim_at(j) - self.dim_at(j - 1)

    def __repr__(self) -> str:
        dims = ", ".join(f"{j}:{p.dim}" for j, p in enumerate(self.pieces, self.lo))
        return f"Filtration(Q^{self.ambient_dim}; {dims})"


class WeightDecomposition(NamedTuple):
    """Phi-stable direct summands indexed by integer weight."""

    ambient_dim: int
    components: dict[int, Subspace]

    def weights(self) -> list[int]:
        return sorted(self.components)


class WmcReport(NamedTuple):
    """Outcome of the weight-monodromy comparison; failures are content."""

    commutation_ok: bool
    filtrations_equal: bool
    graded_weights: dict[int, list[tuple[int, int]]]
    violations: list[dict]

    @property
    def passed(self) -> bool:
        return self.commutation_ok and self.filtrations_equal and not self.violations


# ---------------------------------------------------------------------------
# logarithm / exponential of unipotent and nilpotent matrices


def _powers(n: NilpotentOperator) -> list[Matrix]:
    """The exact powers N^1, ..., N^(index-1), the nonzero ones past N^0."""
    return list(accumulate(repeat(n.n_matrix, n.nilpotency_index - 1), operator.mul))


def log_unipotent(u: Matrix) -> NilpotentOperator:
    """Nilpotent logarithm of a unipotent matrix, as a finite series."""
    if not u.is_square():
        raise DimensionMismatch("logarithm of a non-square matrix")
    try:
        x = NilpotentOperator(u - Matrix.identity(u.rows))
    except NotNilpotentError:
        raise NotUnipotentError("matrix minus identity is not nilpotent") from None
    out = Matrix.zero(u.rows, u.rows)
    for k, power in enumerate(_powers(x), 1):
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
    return NilpotentOperator(out)


def exp_nilpotent(n: NilpotentOperator) -> Matrix:
    """Exact exponential of a nilpotent operator (the series terminates)."""
    out = Matrix.identity(n.dimension)
    fact = 1
    for k, power in enumerate(_powers(n), 1):
        fact *= k
        out = out + power.scale(Fraction(1, fact))
    return out


# ---------------------------------------------------------------------------
# the filtration attached to a nilpotent operator


def monodromy_filtration(n: NilpotentOperator) -> Filtration:
    """Canonical centered filtration of a nilpotent operator.

    One span per index, downward by Fil_j = ker N^(j+1) + N Fil_(j+2) from
    Fil_index = Fil_(index-1) = Q^d, with ker N^k = 0 for k <= 0; pieces
    below Fil_(1-index) are 0, and ker N^(j+1) is read off the row space
    of N^(j+1) that the operator keeps.  This is the closed formula Fil_j = sum over
    j1 - j2 = j of ker N^(j1+1) /\\ im N^(j2): as ker N^a /\\ im N^b =
    N^b(ker N^(a+b)), Fil_j = sum over b >= 0 of N^b ker N^(j+2b+1), where
    terms with j + b < 0 vanish, b = 0 gives ker N^(j+1), and the terms
    with b >= 1 sum to N Fil_(j+2).  Q^0 needs no case of its own: its
    index is 0, the loop is empty, and Filtration puts lo at 0.
    """
    d, top = n.dimension, n.nilpotency_index
    n_rows = n.n_matrix._num  # the columns of N^T: row b of Fil_(j+2) maps to b N^T
    fil = [Subspace.full(d), Subspace.full(d)]  # Fil_index, Fil_(index-1), ... downward
    for j in range(top - 2, -top, -1):
        kers = []  # ker N^(j+1), as raw null vectors: the one span below
        if j >= 0:  # brings everything to canonical form
            basis = n.row_spaces[j + 1].basis
            kers = _null_vectors(d, basis._num, _pivot_columns(basis._num), basis._den)
        fil.append(_span_ints(d, [*kers, *_int_product(fil[-2].basis._num, n_rows)]))
    # both ends are jumps: gr_(1-index) = im N^(index-1) is not 0, and N^(index-1)
    # maps gr_(index-1) onto it
    return Filtration(d, 1 - top, fil[:0:-1])


# ---------------------------------------------------------------------------
# weights


def _log_floor(a: int, b: int, q: int) -> int:
    """The largest integer L with q^L <= a / b, for ints a, b > 0."""
    if a < b:  # q^-m <= a/b exactly when q^m >= ceil(b/a), i.e. q^m > ceil(b/a) - 1
        return -1 - _log_floor(-(-b // a) - 1, 1, q)
    x = a // b  # q^L <= a/b exactly when q^L <= x, for L >= 0
    # q^lo <= x < q^hi: 2^(k-1) <= q < 2^k for k = q.bit_length(), and
    # 2^(n-1) <= x < 2^n for n = x.bit_length(), so q^lo <= 2^(n-1) and
    # q^hi >= 2^((k-1) hi) >= 2^n
    lo, hi = (x.bit_length() - 1) // q.bit_length(), -(-x.bit_length() // (q.bit_length() - 1))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if q**mid <= x:
            lo = mid
        else:
            hi = mid
    return lo


def _exact_q_power(a: int, b: int, q: int) -> int | None:
    """m with a / b == q**m, for ints a and b > 0, or None.  In lowest
    terms or not: only m = _log_floor(a, b, q) can be it, which one exact
    product tells, on integers for m < 0 too."""
    if a <= 0:
        return None
    m = _log_floor(a, b, q)
    return m if (a == b * q**m if m >= 0 else a * q**-m == b) else None


def _value(a: list[int], x: int) -> int:
    """a(x), by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _sign_changes(seq: list[list[int]], x: int) -> int:
    signs = [v > 0 for v in (_value(a, x) for a in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_sequence(a: list[int]) -> list[list[int]]:
    """A Sturm sequence of the squarefree part of a != 0, on integer
    coefficients.

    The squarefree part is the primitive part of a divided exactly by its
    gcd with a', and each next term is a negated pseudo-remainder divided
    by its content.  So each term is a positive multiple of the classical
    term (negated remainders over Q) for that squarefree part, and every
    sign-change count is the classical one.
    """
    a = _primitive(a)
    sf = _int_exact_div(a, _int_gcd(a, _int_derivative(a)))
    seq = [sf, _int_derivative(sf)]
    while len(seq[-1]) > 1:
        seq.append([-x for x in _primitive(_int_prem(seq[-2], seq[-1]))])
    return seq


def _roots_in(a: list[int], lo: int, hi: int) -> bool:
    """Whether every complex root of a != 0 is real and lies in [lo, hi].

    The Sturm sequence counts the distinct roots of a's squarefree part
    in (lo, hi]; a root at lo itself is tested directly.
    """
    seq = _sturm_sequence(a)
    sf = seq[0]
    inside = _sign_changes(seq, lo) - _sign_changes(seq, hi) + (_value(sf, lo) == 0)
    return inside == len(sf) - 1


def _exactly_pure(h: list[int], c: int) -> bool:
    """True exactly when every root of h has squared modulus c.

    h is a polynomial on integer coefficients, c > 0 an integer, and h
    satisfies what weil_weight has checked: the reciprocal equation
    x^n h(c/x) = (h_0 / h_n) h(x).  h need not be irreducible, nor monic.
    The real roots of pure modulus are the roots of x^2 - c, so they are
    divided out first, as the primitive gcd of h and x^2 - c until it is
    constant; the quotient still satisfies a reciprocal equation, since
    every divisor of x^2 - c does.  If it is pure, it has no real root,
    its roots pair off with their conjugates, r * conj(r) = c, so its
    degree n = 2m is even and h_0 = h_n c^m.  For such h,
    h = x^m P(x + c/x), and a root x has |x|^2 = c exactly when
    y = x + c/x is real with y^2 <= 4c.  P's coefficients come from the
    Dickson polynomials V_0 = 2, V_1 = y, V_(s+1) = y V_s - c V_(s-1)
    (V_s(x + c/x) = x^s + (c/x)^s); with P = E(y^2) + y O(y^2), the roots
    of S(z) = E(z)^2 - z O(z)^2 = P(y)P(-y) at z = y^2 are the squares of
    P's roots, so h is pure exactly when every root of S is real and lies
    in [0, 4c] (Kedlaya, "Search techniques for root-unitary
    polynomials", 2008).  Everything runs on ints, the interval ends too.
    """
    real_pure = [-c, 0, 1]
    while len(d := _int_gcd(h, real_pure)) > 1:
        h = _int_exact_div(h, d)
    n = len(h) - 1
    if n == 0:
        return True
    m = n // 2
    if n % 2 or h[0] != h[n] * c**m:
        return False
    dickson = [[2], [0, 1]]
    for _ in range(m - 1):
        dickson.append(_int_sub([0, *dickson[-1]], [c * x for x in dickson[-2]]))
    p = [h[m]] + [0] * m
    for k in range(1, m + 1):
        for i, x in enumerate(dickson[k]):
            p[i] += h[m + k] * x
    even, odd = p[0::2], p[1::2]
    s = _int_sub(_int_mul(even, even), [0, *_int_mul(odd, odd)])
    return _roots_in(s, 0, 4 * c)


def weil_weight(g: RatPoly, q: int) -> int:
    """Weight j such that every complex root of g has squared modulus q^j.

    Expects g monic; g need not be irreducible.  Necessary conditions run
    first: the constant term must be (up to sign) q^(j*deg/2), and the
    root set must be stable under r -> q^j / r, i.e. x^deg * g(q^j/x) must
    be proportional to g.  Whether each individual root modulus is right
    is then decided by _exactly_pure.  Raises NotPureError otherwise.

    All of it runs on g's integer numerators.  With c = q^|j| the target
    squared modulus is the integer c: for j < 0 the roots are scaled by c,
    to h_k = g._num[k] c^(n-k), whose roots have squared modulus c^2 q^j.
    """
    if g.degree < 1:
        raise ValueError("weight of a constant polynomial is undefined")
    num, den = g._num, g._den
    if num[-1] != den:
        raise ValueError("polynomial must be monic")
    if not isinstance(q, int) or q < 2:
        raise ValueError("q must be an integer >= 2")
    n = len(num) - 1
    if num[0] == 0:
        raise NotPureError(g, q, "constant term is zero, so 0 is a root")
    m = _exact_q_power(num[0] * num[0], den * den, q)
    if m is None:
        raise NotPureError(g, q, "constant term squared is not a power of q")
    if m % n != 0:
        raise NotPureError(g, q, "constant term forces a non-integer weight")
    j = m // n
    c = q ** abs(j)
    h = [x * c ** (n - k) for k, x in enumerate(num)] if j < 0 else list(num)
    # x^n h(c/x) proportional to h forces the proportionality constant h_0 / h_n
    for i in range(n + 1):
        if h[n - i] * c ** (n - i) * h[n] != h[0] * h[i]:
            raise NotPureError(g, q, f"roots not stable under r -> q^{j}/r")
    if not _exactly_pure(h, c):
        raise NotPureError(g, q, f"a root has squared modulus other than q^{j}")
    return j


#: the primes the weight splitter may reduce modulo, to pass over candidate
#: roots and weights before any exact step; a small prime lets nearly every
#: weight through (powers of 5 collide mod 3)
_SPLIT_PRIMES = (2**61 - 1, 2**127 - 1)


def _top_weight(f: list[int], q: int) -> int:
    """A weight no root of f passes: the largest w with
    q^(wk) f_n^2 <= 4^k f_(n-k)^2 for some k.  By Fujiwara's bound every
    root a of f has |a|^2 <= 4 max_k |f_(n-k) / f_n|^(2/k) < q^(w+1).
    Past the top weight w' of f's roots it overshoots by at most
    log_q(4 n^2), as |f_(n-k) / f_n| <= C(n, k) q^(w'k/2)."""
    n, lead = len(f) - 1, f[-1] * f[-1]
    return max(
        _log_floor(4**k * f[n - k] * f[n - k], lead, q) // k for k in range(1, n + 1) if f[n - k]
    )


def _weight_range(f: list[int], q: int) -> tuple[int, int]:
    """(low, top) with q^(low-1) < |a|^2 < q^(top+1) for every root a of f,
    so every integer weight of a root lies in [low, top]; f has degree
    >= 1 and f_0 != 0.  low is the top bound of the reversed polynomial,
    whose roots are the 1/a, negated."""
    return -_top_weight(f[::-1], q), _top_weight(f, q)


def _split_weights(f: list[int], q: int) -> tuple[dict[int, list[int]], list[int]]:
    """(parts, rest): the roots of f of weight w that this places, as a
    primitive integer polynomial parts[w] at each weight w, and the
    integer polynomial rest of the roots it leaves, so that f is rest
    times the parts up to a constant; rest is constant when the split is
    complete.  No factoring over Q, in three phases:

    (a) the real pure roots +-q^k, of weight 2k, are divided out first,
        for k from the top of the weight range down, wherever f(+-q^k)
        vanishes mod p and as often as x -+ q^k (or q^-k x -+ 1, for
        k < 0) divides exactly;
    (b) for w from the top of what is left down, the reciprocal
        T = x^n f(q^w / x) meets f in gcd(f, T), tried mod p first.
        A root a of weight u meets q^w / a, of weight 2w - u, so
        at the top weight w of f's roots the gcd holds exactly the roots
        of weight w, with their multiplicities (q^w / a is a's conjugate);
        it is divided out and the bounds are taken again, so each weight
        costs at most 2 + log_q(4 n^2) steps whatever the gaps between
        weights;
    (c) every part from (b) must pass weil_weight at its weight (those
        of (a) are pure by construction).  Soundness rests on (c) alone,
        (a) and (b) only find the parts: each is a product of pure
        irreducible factors of f, so rest keeps every impure one.

    p is the first of _SPLIT_PRIMES that does not divide q f_0 f_n; if
    both do, the split returns at once.  That, a weight below the range or
    a part that fails (c) stops the split, and what is left of f is the
    rest, so this never raises on a polynomial of degree >= 1.  A part
    divides f exactly, by Gauss' lemma, as a primitive divisor over Q; a
    division that is not exact raises ArithmeticError.
    """
    parts: dict[int, list[int]] = {}
    p = next((p for p in _SPLIT_PRIMES if f[0] * f[-1] * q % p), None)
    if len(f) == 1 or p is None:
        return parts, f

    def take(w: int, part: list[int]) -> None:
        parts[w] = _int_mul(parts.get(w, [1]), part)

    low, top = _weight_range(f, q)
    k, fp = top // 2, [c % p for c in f]
    while len(f) > 1 and 2 * k >= low:
        r, found = pow(q, k, p), False
        for sign in (1, -1):
            if _value(fp, sign * r) % p:
                continue
            linear = [-sign * q**k, 1] if k >= 0 else [-sign, q**-k]
            while (qr := _int_divmod(f, linear)) is not None and not qr[1]:
                f, found = qr[0], True
                take(2 * k, linear)
        if found and len(f) > 1:
            low, top = _weight_range(f, q)
            k, fp = min(k - 1, top // 2), [c % p for c in f]
        else:
            k -= 1

    w = top
    while len(f) > 1 and w >= low:
        n, r = len(f) - 1, pow(q, w, p)
        fp, tp, x = [c % p for c in f], [], 1
        for c in fp:  # the coefficient of x^(n-k) in T is f_k (q^w)^k
            tp.append(c * x % p)
            x = x * r % p
        if len(_mx_gcd(fp, tp[::-1], p)) > 1:
            if w >= 0:
                t = [c * q ** (w * k) for k, c in enumerate(f)][::-1]
            else:  # times q^(-wn), on integers
                t = [c * q ** (-w * (n - k)) for k, c in enumerate(f)][::-1]
            g = _int_gcd(f, t)
            if len(g) > 1:
                if g[-1] < 0:
                    g = [-c for c in g]
                try:
                    if weil_weight(RatPoly._over(g, g[-1]), q) != w:
                        break
                except NotPureError:
                    break
                take(w, g)
                f = _divide(f, g)
                if len(f) > 1:
                    low, top = _weight_range(f, q)
                    w = min(w - 1, top)
                continue
        w -= 1
    return parts, f


def _weigh(cp: RatPoly, q: int) -> dict[int, RatPoly]:
    """The product h_j, with multiplicity, of the roots of weight j of a
    monic characteristic polynomial, at each weight j.

    _split_weights places what it can without factoring over Q.  Only the
    rest it leaves, impure input above all, is factored: the weight-j
    irreducible factors of the rest from factor_rational join h_j, and
    NotPureError names the first factor that is pure of no integer
    weight.  The split takes out pure irreducible factors only, so the
    rest has the impure factors of cp, and factor_rational's order, by
    degree and then by coefficients, puts the same one first."""
    parts, rest = _split_weights(list(cp._num), q)
    by_weight = {j: RatPoly._over(h, h[-1]) for j, h in parts.items()}
    if len(rest) > 1:
        for g, mult in factor_rational(RatPoly._over(rest, rest[-1])):
            j = weil_weight(g, q)
            by_weight[j] = by_weight.get(j, RatPoly.one()) * g**mult
    return by_weight


def weight_decomposition(f: FrobeniusData) -> WeightDecomposition:
    """Split Q^d into the Phi-stable summands of each pure weight.

    The component of weight j is the kernel of h_j(Phi), with h_j the
    product (with multiplicity) of the roots of weight j of the
    characteristic polynomial, found by _weigh, which factors over Q
    only what its split cannot place.
    A root that is pure of no integer weight aborts the decomposition
    with NotPureError, which names the irreducible factor it belongs to.

    The components come from a primary splitting (_split): the weights
    are halved, one polynomial H_A(Phi) splits the space into the sum of
    the components of each half, and each half recurses on Phi restricted
    to its part.  With m weights that is m - 1 evaluations and
    eliminations, only the first of them at size d.
    """
    d = f.dimension
    weights = sorted(_weigh(f.char_poly, f.q).items())
    return WeightDecomposition(d, _split(f.phi_matrix, Subspace.full(d), weights))


def _split(phi: Matrix, piece: Subspace, weights: list[tuple[int, RatPoly]]) -> dict[int, Subspace]:
    """The component of each (j, h_j) in `weights`, as a canonical
    subspace, given the Phi-stable piece that is their sum.

    The piece must have dimension sum(deg h_j), which is checked at every
    call, so each component has dimension deg h_j.  With no weight or one
    weight, the piece is the component, if any.  With more than one
    weight, the sorted weights are cut into halves, and of their products
    H_A and H_B the one of lower degree, H_A, is evaluated at the matrix
    of Phi on the piece.  As H_A and H_B are coprime and H_A H_B
    annihilates Phi there, the piece is ker H_A(Phi) + ker H_B(Phi), and
    ker H_B(Phi) = im H_A(Phi); one elimination gives both, the kernel
    from its free columns and the image from the columns at its pivots.
    Phi's matrix on a piece is read in the piece's RREF basis, in which a
    vector's coordinates are its entries at the pivot columns
    (_pivot_columns), so it is one integer product and no solve.
    """
    deg = sum(h.degree for _, h in weights)
    if piece.dim != deg:
        raise ArithmeticError(
            f"weight components {[j for j, _ in weights]} span {piece.dim} dimensions, not {deg}"
        )
    if len(weights) < 2:
        return {j: piece for j, _ in weights}
    a, b = weights[: len(weights) // 2], weights[len(weights) // 2 :]
    if 2 * sum(h.degree for _, h in a) > deg:
        a, b = b, a
    h_a = a[0][1]
    for _, h in a[1:]:
        h_a = h_a * h
    basis, full = piece.basis, piece.is_full()
    if full:
        restricted = phi
    else:
        rows = [phi._num[c] for c in _pivot_columns(basis._num)]
        restricted = Matrix._over(_int_product(rows, basis._num), phi._den * basis._den, piece.dim)
    value = h_a.eval_matrix(restricted)
    kers, pivots = _nullspace_ints(value)
    image = [[row[c] for row in value._num] for c in pivots]
    d = piece.ambient_dim
    out = {}
    for part, vecs in ((a, kers), (b, image)):
        if not full:  # coordinates on the piece's basis rows to vectors of Q^d
            vecs = _int_product(vecs, _columns(basis._num, d))
        out.update(_split(phi, _span_ints(d, vecs), part))
    return out


def weight_filtration(w: WeightDecomposition) -> Filtration:
    """Increasing filtration W_m = sum of components of weight <= m.

    The components are direct summands that span Q^d.  _split checks
    each piece's dimension against sum(deg h_j); where Phi's
    characteristic polynomial on a piece is H_A H_B, with H_A and H_B
    coprime, those dimensions force ker H_A(Phi) = V_A and
    im H_A(Phi) = V_B, the sums of the components of each half.  So the
    two ends need no elimination: W_lo is the lowest component, which is
    canonical already, and W_hi is Q^d; only the weights strictly between
    them call subspace_sum.  A record whose component dimensions do not
    add up to d raises ValueError.
    """
    d = w.ambient_dim
    if not w.components:
        return Filtration.trivial(d)
    if sum(c.dim for c in w.components.values()) != d:
        raise ValueError("top filtration piece must be the full space")
    ws = w.weights()
    acc = w.components[ws[0]]
    pieces = [acc]
    for j in range(ws[0] + 1, ws[-1]):
        if j in w.components:
            acc = subspace_sum(acc, w.components[j])
        pieces.append(acc)
    pieces.append(Subspace.full(d))
    return Filtration(d, ws[0], pieces)


def check_commutation(n: NilpotentOperator, f: FrobeniusData) -> bool:
    """True iff N Phi = q Phi N exactly."""
    if n.dimension != f.dimension:
        raise DimensionMismatch("operator dimensions differ")
    return _q_commutes(n.n_matrix, f.phi_matrix, f.q)


def _q_commutes(n: Matrix, phi: Matrix, q: int) -> bool:
    """N Phi == q Phi N, for square N and Phi of one dimension, by two
    exact products on the integer rows: both sides have the denominator
    of N times that of Phi.  Row by row, so the first row that differs
    ends the test."""
    phi_cols, n_cols = _columns(phi._num, phi.cols), _columns(n._num, n.cols)
    mul = operator.mul
    return all(
        [sum(map(mul, a, c)) for c in phi_cols] == [q * sum(map(mul, b, c)) for c in n_cols]
        for a, b in zip(n._num, phi._num)
    )


def _strings(pieces: Sequence[RatPoly], q: int) -> dict[tuple[int, int], int] | None:
    """N's weight strings (check_wmc, fact (b)) as {(b, s): count}, over
    bottom weights b and lengths s, from the characteristic polynomials of
    a pure Phi on the pieces G_k = ker N^(k+1) / ker N^k, or None when
    _split_weights leaves a rest on a piece.  Position k of a string spans
    its part of G_k, at weight b + 2k, so m_k(b), the multiplicity of
    weight b + 2k in piece k, counts the strings of bottom b longer than
    k, and m_(s-1)(b) - m_s(b) have length s; a negative count raises
    ArithmeticError."""
    mult = []  # m_k, at each k
    for k, cp in enumerate(pieces):
        parts, rest = _split_weights(list(cp._num), q)
        if len(rest) > 1:
            return None
        mult.append({w - 2 * k: len(h) - 1 for w, h in parts.items()})
    strings = {}
    for s, (longer, past) in enumerate(zip(mult, [*mult[1:], {}]), 1):
        for b in sorted(longer.keys() | past.keys()):
            count = longer.get(b, 0) - past.get(b, 0)
            if count < 0:
                raise ArithmeticError(f"{count} strings of bottom weight {b} and length {s}")
            if count:
                strings[b, s] = count
    return strings


def _string_report(strings: dict[tuple[int, int], int], i: int) -> WmcReport:
    """check_wmc's report from N's strings, by fact (b).  Position p of a
    string (b, s) has N-degree e = 2p - (s-1) and weight b + 2p; outside
    the range of the e and the weights minus i, the three counts are all
    0 or all d."""
    counts: dict[tuple[int, int], int] = {}  # positions, by (e, weight)
    for (b, s), c in strings.items():
        for p in range(s):
            key = (2 * p - s + 1, b + 2 * p)
            counts[key] = counts.get(key, 0) + c
    positions = sorted(counts.items())
    keys = [k for (e, w), _ in positions for k in (e, w - i)]
    violations = []
    for j in range(min(keys, default=0), max(keys, default=0)):
        fil = sum(c for (e, _), c in positions if e <= j)
        weight = sum(c for (_, w), c in positions if w <= i + j)
        both = sum(c for (e, w), c in positions if e <= j and w <= i + j)
        if not fil == weight == both:
            violations.append(_mismatch(j, fil, i, weight))
    filtrations_equal = not violations
    graded_weights: dict[int, list[tuple[int, int]]] = {}
    for (e, w), c in positions:
        graded_weights.setdefault(e, []).append((w, c))
    for j, pairs in graded_weights.items():
        violations += _off_weight(j, pairs, i)
    return WmcReport(True, filtrations_equal, graded_weights, violations)


def _mismatch(j: int, mono_dim: int, i: int, weight_dim: int) -> dict:
    """The violation Fil_j != W_(i+j), of dimensions mono_dim and weight_dim."""
    return {
        "kind": "filtration_mismatch",
        "index": j,
        "monodromy_dim": mono_dim,
        "weight_index": i + j,
        "weight_dim": weight_dim,
    }


def _off_weight(j: int, pairs: list[tuple[int, int]], i: int) -> list[dict]:
    """The violations of gr_j's (weight, multiplicity) pairs off weight i+j."""
    return [
        {"kind": "graded_weight", "index": j, "weight": w, "multiplicity": m, "expected": i + j}
        for w, m in pairs
        if w != i + j
    ]


# ---------------------------------------------------------------------------
# induced maps on graded pieces


def _graded_char_polys(n: NilpotentOperator, phi: Matrix) -> tuple[RatPoly, ...]:
    """The characteristic polynomial of the map Phi induces on each
    G_k = ker N^(k+1) / ker N^k, k = 0, ..., index - 1, for a Phi that
    preserves every ker N^k (FrobeniusData).

    Let R_k be the RREF of the row space of N^k and P_k its pivot
    columns; the row spaces are nested, so P_(k+1) lies in P_k.  At each
    new column f, in P_k but not P_(k+1), let v_f be the null vector of
    R_(k+1) at f: 1 at f, 0 at every other column free in R_(k+1).
    There are e_k = rank N^k - rank N^(k+1) of them, and they span a
    complement of ker N^k in ker N^(k+1): their combinations are 0 at
    every column free in R_k, and a vector of ker N^k that is 0 there is
    0.  For x in ker N^(k+1), row g of R_k (pivot g) applied to x is x's
    coordinate on v_g modulo ker N^k: the row vanishes on ker N^k, and
    v_f lies on the columns P_k (f and P_(k+1)), where the row is 1 at g
    and 0 elsewhere.  So the map on G_k has the matrix R_new Phi V, with
    R_new the new rows of R_k and V the v_f as columns: Phi V is one
    d x d x d product over all k together, and the coordinates cost
    e_k x d x e_k.  With N = 0 the one piece is Q^d, and its matrix Phi.
    """
    if n.nilpotency_index == 1:
        return (char_poly(phi),)
    d, spaces = n.dimension, n.row_spaces
    pivots = [_pivot_columns(s.basis._num) for s in spaces]
    out = []
    for k in range(n.nilpotency_index):
        low, high = spaces[k].basis, spaces[k + 1].basis
        kept = set(pivots[k + 1])
        new = [r for r, c in enumerate(pivots[k]) if c not in kept]
        vecs = _null_vectors(d, high._num, pivots[k + 1], high._den, [pivots[k][r] for r in new])
        # the columns of Phi V (vecs hold high._den v_f), then their coordinates
        images = _int_product(vecs, phi._num)
        coords = _int_product([low._num[r] for r in new], images)
        out.append(char_poly(Matrix._over(coords, low._den * phi._den * high._den, len(new))))
    return tuple(out)


def induced_quotient_matrix(op: Matrix, big: Subspace, small: Subspace) -> Matrix | None:
    """Matrix of the map big/small -> big/small induced by op, or None if
    op leaves big.

    small must lie in big, and the matrix is the induced map only when
    op(small) <= small.  One RREF, on vectors as columns, of
    [small | big | op(big)]: a pivot among the images means an image
    leaves big.  Otherwise the pivots among big's columns pick the
    representatives, greedily independent modulo small, and each
    representative's image has its coordinates on them in the pivot rows
    past small.

    All of it runs on the integer rows of big's basis.  With big = b / s
    and op = a / e, the integer image a b of a row b is e s times op's
    image of the representative b / s, and the column b is s times that
    representative, so a pivot row holding `last` times an image's
    coordinates on the columns b holds last e times its coordinates on the
    representatives.
    """
    cols = small.basis._num + big.basis._num
    images = _int_product(big.basis._num, op._num)
    rows, pivots, last, _ = _echelon(list(zip(*cols, *images)))
    if pivots and pivots[-1] >= len(cols):
        return None
    reps = [c + big.dim for c in pivots[small.dim :]]  # the columns of the reps' images
    coords = [[row[c] for c in reps] for row in rows[small.dim : len(pivots)]]
    return Matrix._over(coords, last * op._den, len(reps))


def check_wmc(n: NilpotentOperator, f: FrobeniusData, i: int) -> WmcReport:
    """Compare the N-filtration with the weight filtration shifted by i.

    The report records whether N Phi = q Phi N, whether Fil_j = W_(i+j)
    for every j as an identity of canonical subspaces, and the Frobenius
    weights on each graded piece gr_j, which must all equal i+j.  A piece
    that Phi moves is a violation, and gr_j gets weights only when Phi
    preserves both Fil_j and Fil_(j-1), so that it induces a map there.
    Failures land in `violations`; nothing raises.

    Two facts:

    (a) If N Phi = q Phi N, Phi preserves every Fil_j: from
        Phi N^k = q^-k N^k Phi, Phi maps each ker N^a and im N^b into
        itself, and so every sum of their intersections.
    (b) If N Phi = q Phi N and Phi is pure, N maps V_w into V_(w-2), and
        is a direct sum of strings (Deligne, Weil II, 1.6): a string of
        bottom weight b and length s has a basis v_0, ..., v_(s-1) with
        N v_0 = 0, N v_p = v_(p-1) and v_p in V_(b+2p).  The N-filtration
        is the sum of those of the strings, in which v_p has degree
        e = 2p - (s-1), and W_(i+j) is spanned by the v_p of weight at
        most i+j.  Both are spanned by vectors of one basis, so
        Fil_j = W_(i+j) exactly when the v_p with e <= j, those of weight
        <= i+j and those with both are equally many, and gr_j, which Phi
        preserves by (a), has the weights of the v_p with e = j.  The
        strings are counted from the weights of Phi on the pieces
        G_k = ker N^(k+1) / ker N^k (_strings), and the report follows
        with no subspace built (_string_report).

    The pair is read through FrobeniusData(Phi, q, N), which tests
    N Phi = q Phi N and, if it holds, keeps Phi's characteristic
    polynomial on each piece; an f built with another N is built again
    with this one.  A caller that built f without N has then paid for
    Berkowitz on Phi for nothing (41.2 against 24.7 ms over the 40 seed-0
    wmc_tate pairs, 2-core x86_64): pass N to FrobeniusData.

    A pair that does not commute, an impure Phi, or a piece whose weights
    _split_weights cannot place takes the full path: both filtrations
    built and compared index by index, and one elimination per jump piece
    (induced_quotient_matrix) that tells whether Phi preserves Fil_j and
    gives the map on gr_j, which is weighed when Fil_(j-1) is stable too.
    It weighs only the whole characteristic polynomial, so that a not_pure
    text does not depend on the pieces.
    """
    if n.dimension != f.dimension:
        raise DimensionMismatch("operator dimensions differ")
    if f.n != n:
        f = FrobeniusData(f.phi_matrix, f.q, n)
    commutation_ok = f.pieces is not None
    if commutation_ok:
        strings = _strings(f.pieces, f.q)
        if strings is not None:
            return _string_report(strings, i)
    violations: list[dict] = []
    if not commutation_ok:
        violations.append({"kind": "commutation", "detail": "N Phi != q Phi N"})

    weight_fil = None
    try:
        weight_fil = weight_filtration(weight_decomposition(f))
    except NotPureError as err:
        violations.append({"kind": "not_pure", "detail": str(err)})

    mono = monodromy_filtration(n)
    filtrations_equal = False
    if weight_fil is not None:
        d = f.dimension
        lo = min(mono.lo, weight_fil.lo - i)
        hi = max(mono.hi, weight_fil.hi - i)
        mismatches = []
        for j in range(lo - 1, hi + 1):
            mono_dim, weight_dim = mono.dim_at(j), weight_fil.dim_at(i + j)
            # canonical pieces of equal dimension 0 or d are equal
            if mono_dim != weight_dim or (0 < mono_dim < d and mono.at(j) != weight_fil.at(i + j)):
                mismatches.append(_mismatch(j, mono_dim, i, weight_dim))
        violations.extend(mismatches)
        filtrations_equal = not mismatches

    graded_weights: dict[int, list[tuple[int, int]]] = {}
    below_stable = True  # Phi preserves Fil_(j-1), the previous jump's piece or 0
    for j in mono.jump_indices():
        induced = induced_quotient_matrix(f.phi_matrix, mono.at(j), mono.at(j - 1))
        stable = induced is not None
        if not stable:
            violations.append(
                {
                    "kind": "graded_not_phi_stable",
                    "index": j,
                    "detail": "Phi does not preserve the filtration piece",
                }
            )
        weighed = stable and below_stable
        below_stable = stable
        if not weighed:
            continue
        try:
            pairs = sorted((w, h.degree) for w, h in _weigh(char_poly(induced), f.q).items())
        except NotPureError as err:
            violations.append({"kind": "graded_not_pure", "index": j, "detail": str(err)})
            continue
        graded_weights[j] = pairs
        violations += _off_weight(j, pairs, i)
    return WmcReport(
        commutation_ok=commutation_ok,
        filtrations_equal=filtrations_equal,
        graded_weights=graded_weights,
        violations=violations,
    )
