"""Seeded random generators shared across the test modules."""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from oracles import long_product, long_sum
from wmtrop.ratlin import Matrix, RatPoly, Subspace
from wmtrop.tropbundle import BundleData
from wmtrop.troplattice import TropicalLattice


def random_fraction(rng: random.Random, num_bound: int = 6, den_bound: int = 4) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_lattice(rng: random.Random, rank: int) -> TropicalLattice:
    """Full-rank lattice with small rational generator coordinates."""
    while True:
        cols = [[random_fraction(rng) for _ in range(rank)] for _ in range(rank)]
        try:
            return TropicalLattice.from_columns(cols)
        except ValueError:
            continue


def random_matrix(rng: random.Random, rows: int, cols: int, **kw) -> Matrix:
    return Matrix([[random_fraction(rng, **kw) for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng: random.Random, n: int, bound: int = 2) -> Matrix:
    """Random integer matrix with nonzero determinant (small entries)."""
    if n == 0:
        return Matrix([], cols=0)
    while True:
        m = Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def random_unimodular(rng: random.Random, n: int, ops: int = 8) -> Matrix:
    """Random integer matrix with determinant +-1, via elementary operations."""
    rows = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5 and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
    return Matrix(rows)


def random_subspace(rng: random.Random, ambient: int) -> Subspace:
    k = rng.randint(0, ambient)
    return Subspace.span(ambient, [[random_fraction(rng) for _ in range(ambient)] for _ in range(k)])


def jordan_matrix(sizes: list[int]) -> Matrix:
    """The direct sum of nilpotent Jordan blocks of the given sizes."""
    d = sum(sizes)
    rows = [[0] * d for _ in range(d)]
    pos = 0
    for s in sizes:
        for i in range(s - 1):
            rows[pos + i][pos + i + 1] = 1
        pos += s
    return Matrix(rows, cols=d)


def random_jordan_nilpotent(rng: random.Random, dim: int) -> tuple[Matrix, list[int]]:
    """Nilpotent matrix with known Jordan type, conjugated by a random basis."""
    blocks = []
    remaining = dim
    while remaining > 0:
        b = rng.randint(1, remaining)
        blocks.append(b)
        remaining -= b
    j = jordan_matrix(blocks)
    p = random_invertible(rng, dim)
    return p * j * p.inverse(), sorted(blocks, reverse=True)


def random_unipotent(rng: random.Random, dim: int) -> Matrix:
    rows = [
        [
            Fraction(1) if i == j else (random_fraction(rng) if j > i else Fraction(0))
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    p = random_invertible(rng, dim)
    return p * Matrix(rows) * p.inverse()


def weight_block(rng: random.Random, q: int, w: int) -> Matrix:
    """Small matrix whose eigenvalues all have squared modulus q^w."""
    if w % 2 == 0:
        return Matrix([[Fraction(q) ** (w // 2)]])
    # companion of x^2 - a x + q^w with a complex-conjugate root pair
    qw = Fraction(q) ** w
    # a^2 < 4 q^w keeps the discriminant negative (limit may be 0)
    limit = 0
    while Fraction(limit + 1) ** 2 < 4 * qw:
        limit += 1
    a = rng.randint(-limit, limit)
    return Matrix([[0, -qw], [1, Fraction(a)]])


def random_wmc_pair(
    rng: random.Random,
    q: int,
    max_dim: int = 8,
    center: int | None = None,
    conjugator=random_invertible,
) -> tuple[Matrix, Matrix, int]:
    """(N, Phi, i) with N Phi = q Phi N built from strings of weight blocks.

    A string of length L repeats a base block, scaling Phi by q at each
    step and letting N shift one step down; its graded weights sit
    symmetrically around base_weight + L - 1.  With `center` fixed, every
    string shares that central weight, so the pair satisfies the full
    weight/monodromy comparison at i = center.  Both are conjugated by
    conjugator(rng, dim), an invertible matrix.  Raises ValueError when no
    string fits in max_dim: around an odd center a string of length 1 or 3
    repeats a 2x2 block of odd weight, and one of length 2 has 2 steps.
    """
    if max_dim < (2 if center is not None and center % 2 else 1):
        raise ValueError(f"no string fits in dimension {max_dim} around center {center}")
    dim = 0
    phi_blocks: list[Matrix] = []
    string_layout: list[tuple[int, int]] = []  # (offset, block size) per segment, per string
    strings: list[list[tuple[int, int]]] = []
    while True:
        length = rng.randint(1, 3)
        if center is None:
            base_w = rng.randint(0, 3)
        else:
            base_w = center - (length - 1)
        block = weight_block(rng, q, base_w)
        m = block.rows
        if dim + m * length > max_dim:
            if dim > 0:
                break
            continue
        segs = []
        for t in range(length):
            phi_blocks.append(block.scale(Fraction(q) ** t))
            segs.append((dim, m))
            dim += m
        strings.append(segs)
        if dim == max_dim or rng.random() < 0.4:
            break
    phi_rows = [[Fraction(0)] * dim for _ in range(dim)]
    pos = 0
    for b in phi_blocks:
        for i in range(b.rows):
            for j in range(b.rows):
                phi_rows[pos + i][pos + j] = b[i, j]
        pos += b.rows
    n_rows = [[Fraction(0)] * dim for _ in range(dim)]
    for segs in strings:
        for t in range(1, len(segs)):
            src_off, m = segs[t]
            dst_off, _ = segs[t - 1]
            for i in range(m):
                n_rows[dst_off + i][src_off + i] = Fraction(1)
    p = conjugator(rng, dim)
    pinv = p.inverse()
    phi = p * Matrix(phi_rows) * pinv
    n = p * Matrix(n_rows) * pinv
    i = center if center is not None else 0
    return n, phi, i


def random_bundle(
    rng: random.Random,
    rank: int,
    lattice_multiple: Fraction | None = None,
    chi_multiple: Fraction | None = None,
) -> BundleData:
    """Valid bundle data: lattice c*U (U unimodular), sigma (U^-1)^T S0.

    The induced form is then c*S0 for a random symmetric integer S0.
    `lattice_multiple` forces c into its integer multiples (so that width
    divides the lattice); `chi_multiple` does the same for the
    trivialization valuations.
    """
    u = random_unimodular(rng, rank)
    if lattice_multiple is None:
        c = random_fraction(rng)
        while c == 0:
            c = random_fraction(rng)
    else:
        c = lattice_multiple * rng.randint(1, 4)
    if chi_multiple is None:
        chi = [random_fraction(rng) for _ in range(rank)]
    else:
        chi = [chi_multiple * rng.randint(-6, 6) for _ in range(rank)]
    s0 = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            s0[i][j] = s0[j][i] = rng.randint(-4, 4)
    sigma = u.inverse().transpose() * Matrix(s0)
    return BundleData(TropicalLattice(u.scale(c)), sigma, chi)


def random_rank1_bundle(rng: random.Random, k_max: int = 5) -> tuple[BundleData, Fraction]:
    """Rank-1 bundle with a positive generator and a width alpha it extends to."""
    alpha = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    k = rng.randint(1, k_max)
    lam = alpha * k
    d = rng.randint(-3, 3)
    v = alpha * rng.randint(-6, 6)
    bundle = BundleData(TropicalLattice.from_columns([[lam]]), Matrix([[d]]), [v])
    return bundle, alpha


def swinnerton_dyer(primes: list[int]) -> RatPoly:
    """The monic integer polynomial with roots +-sqrt(p1) +- sqrt(p2) ...:
    irreducible of degree 2^k, yet a product of factors of degree <= 2
    modulo every prime that keeps it squarefree."""
    poly = [0, 1]
    for p in primes:
        # poly(x + t) = a(x) + t b(x) with t^2 = p; the product of the two
        # conjugates is a^2 - p b^2
        a, b = [0] * len(poly), [0] * len(poly)
        for i, c in enumerate(poly):
            for k in range(i + 1):
                (b if k % 2 else a)[i - k] += c * math.comb(i, k) * p ** (k // 2)
        poly = long_sum(long_product(a, a), [-p * x for x in long_product(b, b)])
    return RatPoly(poly)


def load_workloads():
    """perfbench/workloads.py, loaded by path and only read."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    return sys.modules[name]


def count_fractions(monkeypatch, fn, *args):
    """Calls fn(*args) and returns how many Fractions it built."""
    built = []
    new = Fraction.__new__

    def counting(cls, *a, **k):
        built.append(1)
        return new(cls, *a, **k)

    monkeypatch.setattr(Fraction, "__new__", counting)
    try:
        fn(*args)
    finally:
        monkeypatch.undo()
    return len(built)
