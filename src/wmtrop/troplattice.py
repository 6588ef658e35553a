"""Lattices in Q^r, hypercube covers, quotient models, and their towers.

A full-rank lattice in Q^r plus a cell width alpha encodes a formal
model of a rank-r torus: the cover of R^r by side-alpha hypercubes
indexed by Z^r.  When alpha divides the lattice (every generator
coordinate is an integer multiple of alpha), the translation action
descends and the quotient has finitely many special-fiber components.
Refining alpha by powers of a prime p produces a tower of models whose
cell indices project and pull back by simple residue arithmetic; those
index maps and the rank-1 special-fiber dual graphs (cycles of P^1s) are
what this module computes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .ratlin import FACTOR_LIMIT, Matrix, _frac, prime_factors


class UnsupportedRankError(ValueError):
    """Operation implemented only for rank-1 quotient models."""


class InvalidResidueError(ValueError):
    """Cell index out of range for the model's component count."""


class NotPrimeError(ValueError):
    """The p of a quotient model is not a prime, or too large to test."""


class LevelLimitError(ValueError):
    """The level of a quotient model is above LEVEL_LIMIT."""


#: most cells one rank-1 call builds (dual-graph components, witness slopes,
#: tower preimages); time and memory grow with the count, to seconds near 10**6
CELL_LIMIT = 10**6

#: highest refinement level of a quotient model, checked before p**level is
#: taken; each level multiplies the component count by p**rank, so a rank-1
#: model is past CELL_LIMIT from level 20 on
LEVEL_LIMIT = 64

#: most decimal digits of a quotient model's component count, which reports
#: print; Python converts no longer int to a string by default
COUNT_DIGIT_LIMIT = 4300


class CellWidth(NamedTuple("CellWidth", [("alpha", Fraction)])):
    """Positive rational side length of the hypercube cells."""

    __slots__ = ()

    def __new__(cls, alpha):
        alpha = _frac(alpha)
        if alpha <= 0:
            raise ValueError("cell width must be positive")
        return super().__new__(cls, alpha)

    def __repr__(self) -> str:
        return f"CellWidth({self.alpha})"


class TropicalLattice(NamedTuple("TropicalLattice", [("generators", Matrix)])):
    """Full-rank lattice in Q^r; generator vectors are the matrix columns."""

    __slots__ = ()

    def __new__(cls, generators):
        if not generators.is_square():
            raise ValueError("generator matrix must be square")
        if generators.rank() < generators.rows:
            raise ValueError("generator matrix must have full rank")
        return super().__new__(cls, generators)

    @property
    def rank(self) -> int:
        return self.generators.rows

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "TropicalLattice":
        r = len(columns)
        return cls(Matrix.from_columns(columns, r))

    def covolume(self) -> Fraction:
        """|det| of the generator matrix (1 for rank 0)."""
        return abs(self.generators.det()) if self.rank > 0 else Fraction(1)

    def __repr__(self) -> str:
        return f"TropicalLattice(rank {self.rank}, generators {self.generators!r})"


def check_prime(p: int) -> None:
    """NotPrimeError unless p is a prime at most FACTOR_LIMIT."""
    if p > FACTOR_LIMIT:
        raise NotPrimeError("p is above the primality-test limit 10**12")
    if prime_factors(p) != (p,):
        raise NotPrimeError("p must be prime")


class QuotientModel(
    NamedTuple(
        "QuotientModel",
        [("lattice", TropicalLattice), ("alpha", CellWidth), ("p", int), ("level", int)],
    )
):
    """Hypercube model at width alpha/p^level, quotiented by the lattice."""

    __slots__ = ()

    def __new__(cls, lattice, alpha, p, level):
        self = super().__new__(cls, lattice, alpha, p, level)
        check_prime(p)
        if level < 0:
            raise ValueError("level must be nonnegative")
        if level > LEVEL_LIMIT:
            raise LevelLimitError(f"level is above the level limit {LEVEL_LIMIT}")
        if not divides(self.width(), lattice):
            raise ValueError("alpha / p^level must divide the lattice")
        if quotient_components(self) >= 10**COUNT_DIGIT_LIMIT:
            raise ValueError(f"the component count has more than {COUNT_DIGIT_LIMIT} digits")
        return self

    def width(self) -> CellWidth:
        return CellWidth(self.alpha.alpha / self.p**self.level)

    def at_level(self, level: int) -> "QuotientModel":
        return QuotientModel(self.lattice, self.alpha, self.p, level)


class DualGraph(NamedTuple):
    """Special-fiber components and their intersections, with multiplicity."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (u, v, multiplicity), u <= v


# ---------------------------------------------------------------------------
# widths


def max_dividing_width(lat: TropicalLattice) -> CellWidth:
    """Largest alpha with every generator coordinate in alpha*Z.

    This is the gcd, taken over positive rationals, of all the generator
    coordinates: the gcd of their numerators over the lcm of their
    denominators.  The lattice is full rank, so it is nonzero.
    """
    g = lat.generators
    return CellWidth(Fraction(math.gcd(*(x for row in g._num for x in row)), g._den))


def divides(alpha: CellWidth, lat: TropicalLattice) -> bool:
    """True iff the lattice is contained in alpha * Z^r.

    A generator entry n/den over alpha = a/b is the integer n*b / (den*a)
    exactly when den*a divides n*b; the test runs on the stored integers.
    """
    a = alpha.alpha
    gens = lat.generators
    b, m = a.denominator, gens._den * a.numerator
    return not any(n * b % m for row in gens._num for n in row)


# ---------------------------------------------------------------------------
# quotient models


def quotient_components(q: QuotientModel) -> int:
    """Number of special-fiber components: covolume / (cell width)^rank."""
    beta = q.width().alpha
    count = q.lattice.covolume() / beta**q.lattice.rank
    if count.denominator != 1 or count <= 0:
        raise ArithmeticError(f"component count {count} is not a positive integer")
    return int(count)


def dual_graph(q: QuotientModel) -> DualGraph:
    """Cycle of components for a rank-1 model.

    One cell gives a single component meeting itself in a node (a loop);
    two cells give two components meeting twice (a doubled edge); k >= 3
    cells close up into a k-cycle.
    """
    if q.lattice.rank != 1:
        raise UnsupportedRankError("dual graphs are only computed for rank 1")
    k = quotient_components(q)
    if k > CELL_LIMIT:
        raise ValueError(f"{k} components are above the cell limit {CELL_LIMIT}")
    vertices = tuple(range(k))
    if k == 1:
        edges = ((0, 0, 1),)
    elif k == 2:
        edges = ((0, 1, 2),)
    else:
        edges = tuple((j, (j + 1) % k, 1) for j in range(k))
        edges = tuple(sorted((min(a, b), max(a, b), m) for a, b, m in edges))
    return DualGraph(vertices, edges)


def tower_project(e: int, q: QuotientModel) -> int:
    """Send a level-(n+1) cell index down to level n (q sits at level n).

    On R-coordinates the covering map is the identity on cells, because
    scaling by p matches the width-alpha/p^(n+1) cell e with the
    width-alpha/p^n cell e; only the residue changes modulus.
    """
    if q.lattice.rank != 1:
        raise UnsupportedRankError("tower index maps are only computed for rank 1")
    count = quotient_components(q)
    if not 0 <= e < count * q.p:
        raise InvalidResidueError(f"cell index {e} invalid at level {q.level + 1}")
    return e % count


def tower_preimages(e: int, q: QuotientModel, steps: int = 1) -> list[int]:
    """The p^steps cell indices at level n+steps lying over cell e at level n."""
    if q.lattice.rank != 1:
        raise UnsupportedRankError("tower index maps are only computed for rank 1")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    # p >= 2, so steps beyond CELL_LIMIT's bit length is over without the power
    if steps > CELL_LIMIT.bit_length() or q.p**steps > CELL_LIMIT:
        raise ValueError(f"{q.p}**{steps} preimages are above the cell limit {CELL_LIMIT}")
    count = quotient_components(q)
    if not 0 <= e < count:
        raise InvalidResidueError(f"cell index {e} invalid at level {q.level}")
    return [e + t * count for t in range(q.p**steps)]


# ---------------------------------------------------------------------------
# canonical descriptors


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of a full-rank square integer matrix.

    Upper triangular, positive diagonal, entries above each pivot reduced
    into [0, pivot): the unique canonical basis of the row span.
    """
    h = [list(r) for r in rows]
    n = len(h)
    for c in range(n):
        for i in range(c + 1, n):
            a, b = h[c][c], h[i][c]
            if b == 0:
                continue
            g, x, y = _xgcd(a, b)
            rc, ri = h[c], h[i]
            h[c] = [x * p + y * q for p, q in zip(rc, ri)]
            h[i] = [-(b // g) * p + (a // g) * q for p, q in zip(rc, ri)]
        if h[c][c] < 0:
            h[c] = [-x for x in h[c]]
        for i in range(c):
            f = h[i][c] // h[c][c]
            if f:
                h[i] = [a - f * b for a, b in zip(h[i], h[c])]
    return h


def lattice_hnf(lat: TropicalLattice) -> Matrix:
    """Canonical rational basis of the lattice: equal lattices compare equal."""
    if lat.rank == 0:
        return Matrix([], cols=0)
    g = lat.generators
    return Matrix._over(_hnf_rows(list(zip(*g._num))), g._den, lat.rank)


class ModelDescriptor(NamedTuple):
    """Canonical invariants of a quotient model.

    Two towers built from the same lattice data, the same alpha, prime,
    and level have equal descriptors; this is the finite shadow of
    "isomorphic special fibers".
    """

    rank: int
    lattice_basis: tuple[tuple[Fraction, ...], ...]
    alpha: Fraction
    p: int
    level: int
    components: int

    def canonical_string(self) -> str:
        rows = ";".join(",".join(str(x) for x in r) for r in self.lattice_basis)
        return (
            f"rank={self.rank}|lattice=[{rows}]|alpha={self.alpha}"
            f"|p={self.p}|level={self.level}|components={self.components}"
        )


def descriptor(q: QuotientModel) -> ModelDescriptor:
    hnf = lattice_hnf(q.lattice)
    return ModelDescriptor(
        rank=q.lattice.rank,
        lattice_basis=hnf.row_tuples,
        alpha=q.alpha.alpha,
        p=q.p,
        level=q.level,
        components=quotient_components(q),
    )
