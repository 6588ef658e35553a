"""The subspace steps of the exact core against independent computation paths.

The intersection and the induced quotient maps are each one elimination;
here they meet the kernel-and-solve constructions of tests/oracles.py,
the monodromy filtration's recurrence meets the closed formula, and
rref, kernel and intersection dimensions meet sympy.
"""

import random

import pytest

from gens import random_fraction, random_invertible, random_matrix, random_subspace, random_wmc_pair
from oracles import closed_formula_pieces, kernel_intersect, solve_induced_matrix
from wmtrop.monodromy import NilpotentOperator, induced_quotient_matrix, monodromy_filtration
from wmtrop.ratlin import Matrix, Subspace, kernel, subspace_intersect, subspace_sum


def _random_vectors(rng, ambient, count):
    return [[random_fraction(rng) for _ in range(ambient)] for _ in range(count)]


def _subspace_pairs(rng, count):
    """Random pairs, half of them built around a shared subspace."""
    for _ in range(count):
        ambient = rng.randint(1, 8)
        if rng.random() < 0.5:
            yield ambient, random_subspace(rng, ambient), random_subspace(rng, ambient)
            continue
        common = _random_vectors(rng, ambient, rng.randint(0, ambient))
        u = Subspace.span(ambient, common + _random_vectors(rng, ambient, rng.randint(0, 3)))
        v = Subspace.span(ambient, common + _random_vectors(rng, ambient, rng.randint(0, 3)))
        yield ambient, u, v


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError:
        return "raises"


def _jordan_sum(rng, sizes):
    """Direct sum of nilpotent Jordan blocks of the given sizes, conjugated."""
    d = sum(sizes)
    rows = [[0] * d for _ in range(d)]
    pos = 0
    for s in sizes:
        for i in range(s - 1):
            rows[pos + i][pos + i + 1] = 1
        pos += s
    p = random_invertible(rng, d)
    return p * Matrix(rows) * p.inverse()


class TestOracleAgreement:
    def test_filtration_recurrence_matches_closed_formula(self):
        rng = random.Random(109)
        cases = [Matrix.zero(d, d) for d in (1, 2, 4)]  # N = 0, index 1
        cases += [_jordan_sum(rng, [s]) for s in (1, 2, 3, 5, 7)]
        unequal = ([2, 1], [3, 1], [4, 2, 1], [5, 2, 2], [3, 3, 1, 1])
        cases += [_jordan_sum(rng, sizes) for sizes in unequal]
        for _ in range(40):
            cases.append(random_wmc_pair(rng, 3, max_dim=8, center=rng.choice([None, 2]))[0])
        indices = set()
        for n_mat in cases:
            op = NilpotentOperator(n_mat)
            fil = monodromy_filtration(op)
            expected = closed_formula_pieces(n_mat)
            for j, piece in expected.items():
                assert fil.at(j).basis == piece.basis, (n_mat, j)
            jumps = fil.jump_indices()
            assert (fil.lo, fil.hi) == (jumps[0], jumps[-1])  # stored on the jump range
            indices.add(op.nilpotency_index)
        assert {1, 2, 3, 5, 7} <= indices

    def test_intersection_matches_kernel_construction(self):
        rng = random.Random(101)
        dims = set()
        for _, u, v in _subspace_pairs(rng, 200):
            got = subspace_intersect(u, v)
            dims.add(min(got.dim, 3))
            assert got.basis == kernel_intersect(u, v).basis
            assert got == Subspace.span(u.ambient_dim, got.vectors())  # canonical as built
        assert dims == {0, 1, 2, 3}

    def test_induced_matrices_on_filtrations(self):
        rng = random.Random(103)
        checked = raised = 0
        for _ in range(25):
            n_mat, phi, _ = random_wmc_pair(rng, 3, max_dim=7, center=rng.choice([None, 2]))
            op = NilpotentOperator(n_mat)
            fil = monodromy_filtration(op)
            unstable = random_invertible(rng, n_mat.rows)
            for j in fil.jump_indices():
                src = (fil.at(j), fil.at(j - 1))
                maps = [(m, *src, *src) for m in (phi, unstable)]
                if 0 <= j < op.nilpotency_index:
                    maps.append((op.powers[j], *src, fil.at(-j), fil.at(-j - 1)))
                for args in maps:
                    got = _outcome(induced_quotient_matrix, *args)
                    assert got == _outcome(solve_induced_matrix, *args)
                    checked += 1
                    raised += got == "raises"
        assert 0 < raised < checked

    def test_induced_matrices_on_random_nests(self):
        rng = random.Random(107)
        outcomes = set()
        for _ in range(150):
            ambient = rng.randint(1, 6)
            src_small = random_subspace(rng, ambient)
            src_big = subspace_sum(src_small, random_subspace(rng, ambient))
            dst_small = random_subspace(rng, ambient)
            dst_big = subspace_sum(dst_small, random_subspace(rng, ambient))
            if rng.random() < 0.5:
                dst_big = Subspace.full(ambient)
            op = random_matrix(rng, ambient, ambient)
            args = (op, src_big, src_small, dst_big, dst_small)
            got = _outcome(induced_quotient_matrix, *args)
            assert got == _outcome(solve_induced_matrix, *args)
            outcomes.add(got == "raises")
        assert outcomes == {False, True}


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sympy, m: Matrix):
    entries = [sympy.Rational(x.numerator, x.denominator) for r in m.row_tuples for x in r]
    return sympy.Matrix(m.rows, m.cols, entries)


def _low_rank(rng, rows, cols):
    k = rng.randint(0, min(rows, cols))
    if k == 0:
        return Matrix.zero(rows, cols)
    return random_matrix(rng, rows, k) * random_matrix(rng, k, cols)


class TestSympyDifferential:
    def test_rref_and_kernel_dimension(self, sympy):
        rng = random.Random(109)
        for _ in range(80):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = random_matrix(rng, rows, cols) if rng.random() < 0.5 else _low_rank(rng, rows, cols)
            reduced, pivots = m.rref()
            expected, expected_pivots = _to_sympy(sympy, m).rref()
            assert _to_sympy(sympy, reduced) == expected
            assert pivots == tuple(expected_pivots)
            assert kernel(m).dim == len(_to_sympy(sympy, m).nullspace())

    def test_intersection_dimension(self, sympy):
        rng = random.Random(113)
        for ambient, u, v in _subspace_pairs(rng, 80):
            got = subspace_intersect(u, v)
            stacked = Matrix(list(u.vectors()) + list(v.vectors()), cols=ambient)
            assert got.dim == u.dim + v.dim - _to_sympy(sympy, stacked).rank()
            if got.dim:
                basis = _to_sympy(sympy, got.basis)
                assert basis.rref()[0] == basis
