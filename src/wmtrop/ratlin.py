"""Exact linear algebra over the rationals.

Matrices over Q, subspaces of Q^n held in canonical reduced-row-echelon
form, dense univariate polynomials over Q, and the small integer helpers
(p-adic valuation, trial-division factoring) that decide weights and
refinement levels.
There are no floats anywhere in this module, so every predicate built on
top of it (filtration equality, lattice divisibility, positive
definiteness) is decided exactly.

A matrix is stored as rows of Python ints over one positive denominator,
reduced by the gcd of all of them, and a polynomial as its integer
coefficients over one such denominator, so each has exactly one stored
form and equality and hashing compare it directly.  A subspace stores its
RREF basis as such a matrix.  Products, matrix polynomials, polynomial
gcds (primitive pseudo-remainder sequences) and the characteristic
polynomial read the integers as they are, elimination is fraction-free,
and a row's scale never matters to a row space, so kernels, spans and
sums pass integer vectors straight to the one elimination loop.
Fractions are built only on demand, where an entry or coefficient is
read (`Matrix[i, j]`, `row_tuples`, `coeffs`).

The classes keep only the operations the package calls: Matrix has +, -
and the matrix product (a scalar multiple is `scale`), RatPoly has the
product and powers, and division, gcds and derivatives run on the
integer coefficient lists below, with no RatPoly in between.

All values are immutable after construction; operations are pure
functions, safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain, zip_longest
from typing import Iterable, NamedTuple, Sequence


class DimensionMismatch(ValueError):
    """Operands live in incompatible dimensions."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _denominator(x) -> int:
    if isinstance(x, (int, Fraction)):
        return x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


_ZERO = Fraction(0)


def _scaled(entries: Iterable, den: int) -> list[int]:
    """The ints or Fractions entries times den, a common denominator of them."""
    if den == 1:
        return [int(x) for x in entries]
    return [x.numerator * (den // x.denominator) for x in entries]


def _fractions(nums: Sequence[int], den: int) -> tuple[Fraction, ...]:
    """The Fractions nums / den, for den > 0."""
    if den == 1:
        return tuple(map(Fraction, nums))
    return tuple(Fraction(x, den) if x else _ZERO for x in nums)


def _int_vector(v: Sequence) -> list[int]:
    """v times the lcm of its denominators: integers on the same line."""
    return _scaled(v, math.lcm(*map(_denominator, v)))


def _int_product(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer matrix product, given the rows of the left factor and
    the columns of the right one."""
    mul = operator.mul
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def _columns(rows: Sequence[Sequence], ncols: int) -> list[tuple]:
    return list(zip(*rows)) if rows else [()] * ncols


def _int_identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _power(base, k: int, one, mul):
    """base**k for k >= 0 by square-and-multiply, the one power loop: for
    polynomials and polynomials modulo another."""
    out = one
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[Sequence[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, the one
    elimination loop.

    Each row is first divided by its content, the gcd of its entries,
    which leaves the RREF unchanged and keeps the integers small when the
    rows share one denominator.  At a pivot p every other row becomes
    (p * row - row[c] * pivot row) // prev, prev being the pivot before (1
    at first); the division is exact, because every entry stays a minor
    of the divided input (Bareiss, Math. Comp. 22, 1968), and every
    earlier pivot entry becomes p.

    Returns (ints, pivots, last, scale).  The first len(pivots) rows of
    ints are the RREF times the last pivot `last`, the rest are zero;
    `scale` is the product of the contents, negated on each row swap, so
    a square input with a pivot in every column has determinant
    scale * last.  The input is not modified.
    """
    ints = []
    scale = 1
    for row in rows:
        g = math.gcd(*row)
        if g > 1:
            scale *= g
            row = [x // g for x in row]
        ints.append(row)
    nrows = len(ints)
    ncols = len(ints[0]) if ints else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if ints[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            ints[r], ints[pr] = ints[pr], ints[r]
            scale = -scale
        prow = ints[r]
        p = prow[c]
        for i, row in enumerate(ints):
            if i == r:
                continue
            f = row[c]
            if f:
                ints[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            elif p != prev:
                ints[i] = [p * a // prev for a in row]
        pivots.append(c)
        prev = p
        r += 1
    return ints, pivots, prev, scale


def _rref(rows: Sequence[Sequence]) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """Reduced row echelon form of rows of ints and Fractions; returns
    (rows, pivot columns), the rows as Fractions.

    Each row is scaled to integers by the lcm of its own denominators,
    which leaves the RREF unchanged.  Zero rows come last, so the first
    len(pivots) rows span the row space.
    """
    ints, pivots, last, _ = _echelon([_int_vector(r) for r in rows])
    rank = len(pivots)
    reduced = [tuple(Fraction(x, last) for x in row) for row in ints[:rank]]
    zero_row = (_ZERO,) * (len(ints[0]) if ints else 0)
    return reduced + [zero_row] * (len(ints) - rank), pivots


class Matrix:
    """Immutable dense matrix over Q, row-major.

    Stored as integer rows `_num` over one denominator `_den` > 0, with
    gcd(_den, every entry of _num) = 1: one stored form per matrix.
    """

    __slots__ = ("_num", "_den", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable], *, cols: int | None = None):
        grid = [tuple(row) for row in entries]
        if grid:
            ncols = len(grid[0])
            if any(len(r) != ncols for r in grid):
                raise ValueError("ragged matrix")
            if cols is not None and cols != ncols:
                raise ValueError("cols does not match row length")
        else:
            if cols is None:
                raise ValueError("empty matrix needs explicit cols")
            ncols = cols
        # no prime divides both the lcm of the (reduced) denominators and
        # every scaled numerator, so this form is already reduced
        den = math.lcm(*[_denominator(x) for r in grid for x in r])
        self._set(tuple(tuple(_scaled(r, den)) for r in grid), den, ncols)

    def _set(self, num: tuple[tuple[int, ...], ...], den: int, cols: int) -> None:
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "rows", len(num))
        object.__setattr__(self, "cols", cols)

    @classmethod
    def _over(cls, num: Iterable[Sequence[int]], den: int, cols: int) -> "Matrix":
        """The Matrix num / den, for integer rows num and an int den != 0,
        brought to the stored form."""
        num = tuple(map(tuple, num))
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(num))
            if den < 0:
                g = -g
            if g != 1:
                num = tuple(tuple(x // g for x in r) for r in num)
                den //= g
        m = object.__new__(cls)
        m._set(num, den, cols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _over, as __setattr__ refuses their slot state
        return Matrix._over, (self._num, self._den, self.cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._over(_int_identity(n), 1, n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._over([[0] * cols for _ in range(rows)], 1, cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if any(len(c) != rows for c in cols):
            raise ValueError("column length mismatch")
        return cls([[c[i] for c in cols] for i in range(rows)], cols=len(cols))

    @classmethod
    def diagonal(cls, diag: Sequence) -> "Matrix":
        d = list(diag)
        n = len(d)
        return cls([[d[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return Fraction(self._num[ij[0]][ij[1]], self._den)

    @property
    def row_tuples(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(_fractions(r, self._den) for r in self._num)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integral(self) -> bool:
        return self._den == 1

    def _combine(self, other: "Matrix", sign: int, what: str) -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"matrix {what} shape mismatch")
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        return Matrix._over(
            [[fa * a + fb * b for a, b in zip(r1, r2)] for r1, r2 in zip(self._num, other._num)],
            den,
            self.cols,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1, "subtraction")

    def scale(self, c) -> "Matrix":
        den = _denominator(c)
        c = c.numerator
        return Matrix._over([[c * x for x in r] for r in self._num], self._den * den, self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        cols = _columns(other._num, other.cols)
        return Matrix._over(_int_product(self._num, cols), self._den * other._den, other.cols)

    def transpose(self) -> "Matrix":
        return Matrix._over(_columns(self._num, self.cols), self._den, self.rows)

    def rank(self) -> int:
        return len(_echelon(self._num)[1])

    def det(self) -> Fraction:
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        _, pivots, last, scale = _echelon(self._num)
        return Fraction(scale * last, self._den**self.rows) if len(pivots) == self.rows else _ZERO

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        n, d = self.rows, self._den
        # the rows of d [self | I] reduce to last [I | self^-1]
        aug = [[*r, *(d * x for x in e)] for r, e in zip(self._num, _int_identity(n))]
        ints, pivots, last, _ = _echelon(aug)
        if tuple(pivots[:n]) != tuple(range(n)):
            raise ValueError("matrix is not invertible")
        return Matrix._over([r[n:] for r in ints], last, n)

    def leading_minor(self, k: int) -> "Matrix":
        """Top-left k-by-k submatrix."""
        return Matrix._over([r[:k] for r in self._num[:k]], self._den, k)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.cols == other.cols
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.cols, self._den, self._num))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.row_tuples)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def solve(m: Matrix, target: Sequence) -> tuple[Fraction, ...] | None:
    """One solution x of m*x = target, or None if the system is inconsistent."""
    t = [_frac(x) for x in target]
    if len(t) != m.rows:
        raise DimensionMismatch("target length mismatch")
    aug = [list(r) + [t[i]] for i, r in enumerate(m.row_tuples)]
    if not aug:
        return tuple() if m.cols == 0 else tuple([Fraction(0)] * m.cols)
    rows, pivots = _rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][m.cols]
    return tuple(x)


class Subspace(NamedTuple("Subspace", [("ambient_dim", int), ("basis", Matrix)])):
    """Linear subspace of Q^n, stored as its unique RREF basis.

    Equality of subspaces is literal equality of the stored bases, which
    is what makes filtration comparisons decidable bit-for-bit.  The
    constructor takes a basis already in that form; span() builds one
    from any vectors.
    """

    __slots__ = ()

    def __new__(cls, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise DimensionMismatch("basis width does not match ambient dimension")
        return super().__new__(cls, ambient_dim, basis)

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [_int_vector(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch("vector length mismatch")
        return _span_ints(ambient_dim, rows)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix._over([], 1, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _residual(self, w: Sequence[int]) -> list[int]:
        """For an integer vector w, den * (w minus its projection onto the
        pivot coordinates), den the basis denominator."""
        # the basis b / den is in RREF: row b_r holds den at its pivot
        # coordinate and every other row holds 0 there
        b, den = self.basis._num, self.basis._den
        coeffs = [w[c] for c in _pivot_columns(b)]
        proj = _int_product([coeffs], _columns(b, self.ambient_dim))[0]
        return [den * x - y for x, y in zip(w, proj)]

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def _pivot_columns(rows: Sequence[Sequence[int]]) -> list[int]:
    """The pivot column of each row of an RREF basis, its first nonzero
    entry.  A vector in the row space is the combination of the rows with
    its entries at these columns as coefficients.  Each row is read twice
    in C: the first nonzero value, then its first position."""
    return [row.index(next(filter(None, row))) for row in rows]


def _span_ints(n: int, rows: Sequence[Sequence[int]]) -> Subspace:
    """The span of integer vectors of length n, in canonical form."""
    ints, pivots, last, _ = _echelon(rows)
    return Subspace(n, Matrix._over(ints[: len(pivots)], last, n))


def _nullspace_ints(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """A basis of {v : m v = 0} as integer vectors, not in canonical form,
    and the pivot columns, whose columns of m are a basis of its image.

    The vectors are _null_vectors of the RREF of m's integer rows, one
    per free column.  Row operations keep every linear relation among the
    columns, so m's columns at the RREF's pivots are independent and span
    the rest.
    """
    rows, pivots, last, _ = _echelon(m._num)
    return _null_vectors(m.cols, rows, pivots, last), pivots


def _null_vectors(
    n: int,
    rows: Sequence[Sequence[int]],
    pivots: Sequence[int],
    last: int,
    free: Iterable[int] | None = None,
) -> list[list[int]]:
    """The kernel read off an RREF of width n, given as its pivot columns
    and its rows times `last`: for each free column f in `free`, the
    integer vector with `last` at f, -rows[r][f] at pivot column
    pivots[r] and 0 elsewhere, which the rows annihilate.  `free`
    defaults to every column that is not a pivot, and then the vectors
    are a basis of the null space."""
    if free is None:
        pivset = set(pivots)
        free = [f for f in range(n) if f not in pivset]
    vecs = []
    for f in free:
        v = [0] * n
        v[f] = last
        for row, c in zip(rows, pivots):
            v[c] = -row[f]
        vecs.append(v)
    return vecs


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m v = 0} in canonical form."""
    return _span_ints(m.cols, _nullspace_ints(m)[0])


def image(m: Matrix) -> Subspace:
    """Column span of m in canonical form."""
    return _span_ints(m.rows, _columns(m._num, m.cols))


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch("ambient dimension mismatch")
    return _span_ints(u.ambient_dim, u.basis._num + v.basis._num)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """u /\\ v by Zassenhaus's method: one RREF of the rows (x | x), x in u's
    basis, and (y | 0), y in v's basis.  The rows with zero left half,
    (x + y | x) with x = -y, hold the canonical basis of u /\\ v on the right.
    """
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch("ambient dimension mismatch")
    n = u.ambient_dim
    if u.is_zero() or v.is_zero():
        return Subspace.zero(n)
    zero = (0,) * n
    ints, pivots, last, _ = _echelon([x + x for x in u.basis._num] + [y + zero for y in v.basis._num])
    basis = [row[n:] for row, c in zip(ints, pivots) if c >= n]
    return Subspace(n, Matrix._over(basis, last, n))


def contains(u: Subspace, v: Subspace) -> bool:
    """True iff v is a subspace of u."""
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch("ambient dimension mismatch")
    return not any(any(u._residual(w)) for w in v.basis._num)


def apply_to_subspace(m: Matrix, s: Subspace) -> Subspace:
    """Image m(s) of a subspace under a linear map."""
    if m.cols != s.ambient_dim:
        raise DimensionMismatch("map domain does not match ambient dimension")
    return _span_ints(m.rows, _int_product(s.basis._num, m._num))


def format_ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for integers num and den, with no Fraction:
    lowest terms, the sign on the numerator, and no "/1"."""
    if not den:
        raise ZeroDivisionError(f"Fraction({int(num)}, 0)")
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


class RatPoly:
    """Dense univariate polynomial over Q, coefficients lowest degree first.

    Stored as integer numerators `_num`, with no trailing zero, over one
    denominator `_den` > 0, with gcd(_den, every numerator) = 1: one
    stored form per polynomial, as for Matrix.  The zero polynomial has
    empty `_num`, `_den` 1 and degree -1.  `coeffs` builds the Fractions
    on demand.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable):
        c = list(coeffs)
        den = math.lcm(*map(_denominator, c))
        object.__setattr__(self, "_num", tuple(_trim(_scaled(c, den))))
        object.__setattr__(self, "_den", den)

    @classmethod
    def _over(cls, num: Iterable[int], den: int) -> "RatPoly":
        """The RatPoly num / den, for integer coefficients num and an int
        den != 0, brought to the stored form."""
        num = _trim(list(num))
        if den != 1:
            g = math.gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = [x // g for x in num]
                den //= g
        p = object.__new__(cls)
        object.__setattr__(p, "_num", tuple(num))
        object.__setattr__(p, "_den", den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    def __reduce__(self):
        return RatPoly._over, (self._num, self._den)

    @classmethod
    def one(cls) -> "RatPoly":
        return cls._over([1], 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return _fractions(self._num, self._den)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        return RatPoly._over(_int_mul(self._num, other._num), self._den * other._den)

    def __pow__(self, k: int) -> "RatPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        return _power(self, k, RatPoly.one(), operator.mul)

    def monic(self) -> "RatPoly":
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        lead = self._num[-1]
        return self if lead == self._den else RatPoly._over(self._num, lead)

    def eval_matrix(self, m: Matrix) -> Matrix:
        """self(m) by Paterson-Stockmeyer: with s = isqrt(deg) + 1, each run
        of s coefficients is a combination of m^0..m^(s-1), and the runs are
        joined by Horner in m^s, so about 2*sqrt(deg) matrix products.  All
        of it runs on integers, with one division at the end."""
        if not m.is_square():
            raise DimensionMismatch("polynomial of a non-square matrix")
        n, c = m.rows, self._num
        if not c:
            return Matrix.zero(n, n)
        # with m = a/d, self(m) = sum(e_k a^k) / (_den d^deg) for the
        # integers e_k = c_k d^(deg-k)
        a, d = m._num, m._den
        deg = len(c) - 1
        e = [x * d ** (deg - k) for k, x in enumerate(c)]
        a_cols = _columns(a, n)
        s = math.isqrt(deg) + 1
        width = min(s, len(c))
        powers = [_int_identity(n), a][:width]
        while len(powers) < width:
            powers.append(_int_product(powers[-1], a_cols))
        blocks = [_combination(e[k : k + s], powers) for k in range(0, len(c), s)]
        out = blocks.pop()
        if blocks:
            step = _columns(_int_product(powers[-1], a_cols), n)
            for block in reversed(blocks):
                out = [
                    [x + y for x, y in zip(row, brow)]
                    for row, brow in zip(_int_product(out, step), block)
                ]
        return Matrix._over(out, self._den * d**deg, n)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatPoly) and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, self._num))

    def __repr__(self) -> str:
        if self.is_zero():
            return "RatPoly(0)"
        terms = []
        den = self._den
        for i in range(len(self._num) - 1, -1, -1):
            c = self._num[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(format_ratio(c, den))
            else:
                xi = "x" if i == 1 else f"x^{i}"
                if c == den:
                    terms.append(xi)
                elif c == -den:
                    terms.append(f"-{xi}")
                else:
                    terms.append(f"{format_ratio(c, den)}*{xi}")
        body = terms[0]
        for t in terms[1:]:
            body += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return f"RatPoly({body})"


# ---------------------------------------------------------------------------
# polynomials on integer coefficients: lists of ints, lowest degree first,
# no trailing zeros, the zero polynomial empty; one loop per operation,
# shared by RatPoly, monodromy's weights and polyfactor's (Z/m)[x] layer


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, the positive gcd of its coefficients."""
    g = math.gcd(*a)
    return a if g <= 1 else [x // g for x in a]


def _int_derivative(a: list[int]) -> list[int]:
    return [i * x for i, x in enumerate(a)][1:]


def _int_sub(a: list[int], b: list[int]) -> list[int]:
    return _trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product in Z[x], the one convolution loop."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """(quo, rem) with a = quo b + rem and deg rem < deg b, or None at the
    first quotient coefficient that is not an integer; ZeroDivisionError
    for b = 0.  The one synthetic division in Z[x]."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead, db = b[-1], len(b) - 1
    low = b[:-1]
    rem = list(a)
    quo = [0] * (len(rem) - db)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem.pop(), lead)
        if r:
            return None
        if c:
            quo[k] = c
            rem[k:] = [x - c * y for x, y in zip(rem[k:], low)]
    return quo, _trim(rem)


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of |lc(b)|^k a by b != 0, k = deg a - deg b + 1: a
    positive multiple of the remainder over Q, so the signs that a Sturm
    sequence counts are kept."""
    k = len(a) - len(b) + 1
    scale = abs(b[-1]) ** k if b and k > 0 else 1
    return _int_divmod([scale * x for x in a], b)[1]


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd (unique up to sign), by the primitive
    pseudo-remainder sequence (Collins, J. ACM 14, 1967): each remainder
    is divided by its content before the next step.  A constant divisor,
    primitive and so [1] or [-1], divides everything: it is the gcd."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _primitive(_int_prem(a, b))
    return b or a


def _int_exact_div(a: list[int], b: list[int]) -> list[int] | None:
    """a / b when b != 0 divides a in Z[x], else None."""
    qr = _int_divmod(a, b)
    return qr[0] if qr is not None and not qr[1] else None


def _combination(coeffs: Sequence[int], mats: Sequence[list[list[int]]]) -> list[list[int]]:
    """sum of coeffs[k] * mats[k] on integer matrices, entry by entry, with
    no matrix product."""
    n = len(mats[0])
    rows = [[0] * n for _ in range(n)]
    for a, mat in zip(coeffs, mats):
        if a:
            rows = [[x + a * y for x, y in zip(r, mr)] for r, mr in zip(rows, mat)]
    return rows


def char_poly(m: Matrix) -> RatPoly:
    """Characteristic polynomial det(xI - m), monic.

    Berkowitz's division-free recurrence, run on the integer matrix
    a = d m (d the common denominator), whose characteristic polynomial
    gives m's through det(xI - m) = d^-n det(dxI - a).  With a_r the
    leading r-by-r block of a, R and S the parts of row r and column r
    beside it and t = a[r][r], the characteristic polynomial of the
    leading (r+1)-block is T p_r for the lower-triangular Toeplitz matrix
    T on the column (1, -t, -R S, -R a_r S, ..., -R a_r^(r-1) S)
    (Berkowitz, Inform. Process. Lett. 18, 1984).  Every intermediate is
    a polynomial in the entries, so nothing is divided: O(n^4) integer
    operations in about n^2/2 matrix-vector products, and no matrix
    product.
    """
    if not m.is_square():
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    a, d = m._num, m._den
    n = m.rows
    mul = operator.mul
    p = [1]  # det(yI - a_r), highest degree first
    for r, row in enumerate(a):
        block = [b[:r] for b in a[:r]]
        left = row[:r]
        v = [b[r] for b in a[:r]]
        col = [1, -row[r]]
        for _ in range(r):
            col.append(-sum(map(mul, left, v)))
            v = [sum(map(mul, b, v)) for b in block]
        p = [sum(map(mul, col[i::-1], p)) for i in range(r + 2)]
    return RatPoly._over([p[n - k] * d**k for k in range(n + 1)], d**n)


#: largest n `prime_factors` accepts; trial division to its root takes ~0.1 s
FACTOR_LIMIT = 10**12


def valuation(n: int, p: int) -> tuple[int, int]:
    """(k, rest) with n == p**k * rest and rest not divisible by p."""
    if n == 0 or p < 2:
        raise ValueError(f"valuation needs n != 0 and p >= 2, got n={n}, p={p}")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending; ValueError above FACTOR_LIMIT."""
    if n > FACTOR_LIMIT:
        raise ValueError(f"cannot factor {n}: trial division stops at 10**12")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            _, n = valuation(n, f)
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)
