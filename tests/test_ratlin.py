import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import (
    count_fractions,
    random_fraction,
    random_invertible,
    random_matrix,
    random_subspace,
    random_unimodular,
)
from oracles import horner, long_divmod, long_product, long_sum, trimmed
from wmtrop.monodromy import NilpotentOperator, monodromy_filtration
from wmtrop.polyfactor import squarefree_decomposition
from wmtrop.ratlin import (
    DimensionMismatch,
    Matrix,
    RatPoly,
    Subspace,
    _int_derivative,
    _int_divmod,
    _int_exact_div,
    _int_gcd,
    _int_mul,
    _int_prem,
    _power,
    _primitive,
    char_poly,
    contains,
    image,
    kernel,
    solve,
    subspace_intersect,
    subspace_sum,
)

fractions_st = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


class TestKernelImage:
    def test_kernel_zero_map(self):
        assert kernel(Matrix.zero(3, 3)) == Subspace.full(3)

    def test_kernel_injective(self):
        assert kernel(Matrix.identity(3)) == Subspace.zero(3)

    def test_kernel_shift(self):
        assert kernel(Matrix([[0, 1], [0, 0]])) == Subspace.span(2, [[1, 0]])

    def test_image_identity(self):
        assert image(Matrix.identity(4)) == Subspace.full(4)

    def test_image_zero(self):
        assert image(Matrix.zero(3, 3)) == Subspace.zero(3)

    def test_image_shift(self):
        assert image(Matrix([[0, 1], [0, 0]])) == Subspace.span(2, [[1, 0]])

    def test_kernel_of_rectangular(self):
        m = Matrix([[1, 2, 3]])
        k = kernel(m)
        assert k.dim == 2
        assert m * k.basis.transpose() == Matrix.zero(1, 2)


class TestSubspaceLattice:
    def test_sum_with_zero(self):
        u = Subspace.span(3, [[1, 2, 3], [0, 1, 1]])
        assert subspace_sum(u, Subspace.zero(3)) == u

    def test_sum_complementary_lines(self):
        assert subspace_sum(
            Subspace.span(2, [[1, 0]]), Subspace.span(2, [[0, 1]])
        ) == Subspace.full(2)

    def test_sum_echelon_reduction(self):
        got = subspace_sum(Subspace.span(3, [[1, 0, 0]]), Subspace.span(3, [[1, 1, 0]]))
        assert got == Subspace.span(3, [[1, 0, 0], [0, 1, 0]])

    def test_intersect_with_full(self):
        u = Subspace.span(3, [[1, 5, 0]])
        assert subspace_intersect(u, Subspace.full(3)) == u

    def test_intersect_transverse_lines(self):
        got = subspace_intersect(Subspace.span(2, [[1, 0]]), Subspace.span(2, [[0, 1]]))
        assert got == Subspace.zero(2)

    def test_intersect_planes(self):
        a = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
        b = Subspace.span(3, [[0, 1, 0], [0, 0, 1]])
        assert subspace_intersect(a, b) == Subspace.span(3, [[0, 1, 0]])

    def test_contains(self):
        plane = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
        assert contains(Subspace.full(3), plane)
        assert not contains(Subspace.zero(3), Subspace.span(3, [[1, 0, 0]]))
        assert contains(plane, Subspace.span(3, [[1, 1, 0]]))
        assert not contains(plane, Subspace.span(3, [[0, 0, 1]]))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            subspace_sum(Subspace.zero(2), Subspace.zero(3))
        with pytest.raises(DimensionMismatch):
            subspace_intersect(Subspace.zero(2), Subspace.zero(3))
        with pytest.raises(DimensionMismatch):
            contains(Subspace.zero(2), Subspace.zero(3))


class TestCanonicalForm:
    def test_shuffled_spanning_sets_agree(self):
        rng = random.Random(7)
        for _ in range(60):
            ambient = rng.randint(1, 6)
            vecs = [
                [random_fraction(rng) for _ in range(ambient)]
                for _ in range(rng.randint(1, ambient + 2))
            ]
            u = Subspace.span(ambient, vecs)
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            # throw in random combinations of the same vectors
            for _ in range(2):
                c1, c2 = random_fraction(rng), random_fraction(rng)
                a, b = rng.choice(vecs), rng.choice(vecs)
                shuffled.append([c1 * x + c2 * y for x, y in zip(a, b)])
            assert Subspace.span(ambient, shuffled) == u
            assert Subspace.span(ambient, shuffled).basis == u.basis

    def test_dimension_formula(self):
        rng = random.Random(11)
        for _ in range(80):
            ambient = rng.randint(1, 8)
            u, v = random_subspace(rng, ambient), random_subspace(rng, ambient)
            s = subspace_sum(u, v)
            i = subspace_intersect(u, v)
            assert u.dim + v.dim == s.dim + i.dim
            assert contains(s, u) and contains(s, v)
            assert contains(u, i) and contains(v, i)

    def test_rank_nullity(self):
        rng = random.Random(13)
        for _ in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            assert m.rank() + kernel(m).dim == cols


class TestCharPoly:
    def test_diagonal(self):
        assert char_poly(Matrix.diagonal([1, 5])) == RatPoly([5, -6, 1])

    def test_zero_matrix(self):
        assert char_poly(Matrix.zero(4, 4)) == RatPoly([0, 0, 0, 0, 1])

    def test_companion(self):
        companion = Matrix([[0, -5], [1, 1]])
        assert char_poly(companion) == RatPoly([5, -1, 1])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            char_poly(Matrix([[1, 2, 3]]))

    def test_cayley_hamilton(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, n)
            assert char_poly(m).eval_matrix(m) == Matrix.zero(n, n)

    def test_determinant_vs_constant_term(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            assert char_poly(m).coeffs[0] == (-1) ** n * m.det()


class TestMatrixBasics:
    def test_inverse_roundtrip(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            if m.det() == 0:
                continue
            assert m * m.inverse() == Matrix.identity(n)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            Matrix.zero(2, 2).inverse()

    def test_solve(self):
        m = Matrix([[1, 2], [3, 4]])
        x = solve(m, [5, 11])
        assert x is not None and m * Matrix.from_columns([x], 2) == Matrix([[5], [11]])

    def test_solve_inconsistent(self):
        assert solve(Matrix([[1, 0], [1, 0]]), [1, 2]) is None

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_immutability(self):
        m = Matrix([[1]])
        with pytest.raises(AttributeError):
            m.rows = 5

    def test_scalar_multiples_go_through_scale(self):
        m, p = Matrix([[1, 2]]), RatPoly([1, 2])
        for product in (lambda: m * 2, lambda: 2 * m, lambda: p * F(1, 2), lambda: F(1, 2) * p):
            with pytest.raises(TypeError):
                product()
        assert m.scale(F(1, 2)) == Matrix([[F(1, 2), 1]])


class TestRatPoly:
    def test_repr(self):
        # NotPureError quotes it; each coefficient is spelled as its Fraction would be
        cases = {
            "RatPoly(x^2 - 3/2*x + 1/2)": [F(1, 2), F(-3, 2), 1],
            "RatPoly(-2/3*x^2 - 2/3*x)": [0, F(-2, 3), F(-2, 3)],
            "RatPoly(5*x^3 - x + 2/3)": [F(4, 6), -1, 0, 5],
            "RatPoly(-7/3)": [F(-7, 3)],
            "RatPoly(-x^2)": [0, 0, -1],
        }
        for text, coeffs in cases.items():
            assert repr(RatPoly(coeffs)) == text

    def test_gcd(self):
        a = RatPoly([-1, 1]) * RatPoly([1, 1])
        b = RatPoly([-1, 1]) * RatPoly([2, 1])
        assert _int_gcd(a._num, b._num) in ([-1, 1], [1, -1])  # primitive, up to sign

    @given(st.lists(fractions_st, min_size=0, max_size=5), st.lists(fractions_st, min_size=0, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_mul_degree_and_commutativity(self, a, b):
        pa, pb = RatPoly(a), RatPoly(b)
        assert pa * pb == pb * pa
        if not pa.is_zero() and not pb.is_zero():
            assert (pa * pb).degree == pa.degree + pb.degree

    def test_eval_matrix_matches_scalar_on_diagonal(self):
        p = RatPoly([1, -3, 0, 2])
        m = Matrix.diagonal([2, F(1, 2)])
        got = p.eval_matrix(m)
        assert got == Matrix.diagonal([horner(p.coeffs, 2), horner(p.coeffs, F(1, 2))])


def _stored_form_ok(m: Matrix) -> bool:
    return m._den > 0 and math.gcd(m._den, *(x for r in m._num for x in r)) == 1


class TestStoredForm:
    """One stored (numerators, denominator) form per matrix, and one RREF
    per subspace: equal entries give equal matrices with equal hashes,
    whichever way they were built."""

    def assert_same(self, *ms):
        for m in ms:
            assert _stored_form_ok(m), m
            assert m == ms[0] and hash(m) == hash(ms[0]), (m, ms[0])
            assert m.row_tuples == ms[0].row_tuples

    def test_denominators_reduced_and_positive(self):
        half_third = Matrix([[F(1, 2), F(1, 3)]])
        self.assert_same(
            half_third,
            Matrix([[F(3, 6), F(-2, -6)]]),
            Matrix._over([[3, 2]], 6, 2),
            Matrix._over([[-6, -4]], -12, 2),
            Matrix._over([[30, 20]], 60, 2),
        )
        assert half_third._den == 6 and half_third._num == ((3, 2),)
        self.assert_same(Matrix([[F(-4, 2), 7]]), Matrix._over([[4, -14]], -2, 2), Matrix([[-2, 7]]))
        assert Matrix([[F(-4, 2), 7]]).is_integral()

    def test_products_scale_and_transpose(self):
        rng = random.Random(223)
        for _ in range(30):
            rows, cols = rng.randint(0, 4), rng.randint(1, 4)
            a = Matrix([[random_fraction(rng) for _ in range(cols)] for _ in range(rows)], cols=cols)
            c = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            self.assert_same(
                a,
                Matrix(a.row_tuples, cols=cols),
                Matrix.identity(rows) * a,
                a * Matrix.identity(cols),
                a.scale(c).scale(1 / c),
                Matrix.diagonal([c] * rows) * Matrix.diagonal([1 / c] * rows) * a,
                a.transpose().transpose(),
                a + Matrix.zero(rows, cols),
                Matrix._over([[6 * x for x in r] for r in a._num], 6 * a._den, cols),
            )
            if rows:
                i, j = rng.randrange(rows), rng.randrange(cols)
                bumped = [list(r) for r in a.row_tuples]
                bumped[i][j] += F(1, 7)
                assert Matrix(bumped) != a

    def test_identity_and_zero(self):
        m = Matrix([[1, 2, 3], [4, 5, F(6, 5)]])
        self.assert_same(
            Matrix.identity(3),
            Matrix.diagonal([1, F(2, 2), F(-3, -3)]),
            Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        )
        self.assert_same(
            Matrix.zero(2, 3),
            Matrix([[F(0, 5)] * 3] * 2),
            m.scale(0),
            m - m,
            Matrix._over([[0] * 3] * 2, -7, 3),
        )
        assert Matrix.zero(2, 3)._den == 1
        assert Matrix.zero(2, 3) != Matrix.zero(3, 2)

    def test_zero_row_matrices(self):
        self.assert_same(
            Matrix([], cols=3),
            Matrix.zero(0, 3),
            Matrix._over([], 7, 3),
            Matrix.identity(0) * Matrix.zero(0, 3),
        )
        self.assert_same(Matrix([], cols=0), Matrix.identity(0), Matrix.zero(0, 0))
        assert Matrix([], cols=3) != Matrix([], cols=2)
        assert Matrix([], cols=2).transpose() == Matrix([[], []])

    def test_subspaces_from_different_spanning_sets(self):
        rng = random.Random(227)
        for _ in range(40):
            n = rng.randint(1, 6)
            vecs = [[random_fraction(rng) for _ in range(n)] for _ in range(rng.randint(0, n))]
            s = Subspace.span(n, vecs)
            scales = [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in vecs]
            scaled = [[c * x for x in v] for c, v in zip(scales, vecs)]
            shuffled = vecs + vecs[:2] + [[0] * n]
            rng.shuffle(shuffled)
            # integer multiples as ints beside the other vectors as Fractions
            mixed = [
                [int(x * math.lcm(*(y.denominator for y in v))) for x in v] if k % 2 else v
                for k, v in enumerate(vecs)
            ]
            spans = [
                s,
                Subspace.span(n, scaled),
                Subspace.span(n, shuffled),
                Subspace.span(n, mixed),
                Subspace.span(n, s.basis.row_tuples),
                subspace_sum(s, s),
                subspace_sum(Subspace.zero(n), s),
            ]
            for t in spans:
                assert _stored_form_ok(t.basis)
                assert t == s and hash(t) == hash(s)
            # two kernels: s is the kernel of a basis of its annihilator
            ann = kernel(Matrix(vecs, cols=n)) if vecs else Subspace.full(n)
            from_kernel = kernel(ann.basis) if ann.dim else Subspace.full(n)
            assert from_kernel == s and hash(from_kernel) == hash(s)

    def test_full_and_zero_subspaces(self):
        for n in range(0, 5):
            full, zero = Subspace.full(n), Subspace.zero(n)
            unit_rows = [[F(3 * (i + 1), 2) if i == j else 0 for j in range(n)] for i in range(n)]
            fulls = (
                Subspace.span(n, unit_rows),
                kernel(Matrix.zero(1, n)),
                image(Matrix.identity(n).scale(F(-2, 3))),
            )
            for t in fulls:
                assert t == full and hash(t) == hash(full)
            zeros = (
                Subspace.span(n, []),
                Subspace.span(n, [[0] * n] * 2),
                kernel(Matrix.identity(n).scale(5)),
            )
            for t in zeros:
                assert t == zero and hash(t) == hash(zero)
            assert (full == zero) == (n == 0)


def _poly_form_ok(p: RatPoly) -> bool:
    return p._den > 0 and math.gcd(p._den, *p._num) == 1 and p._num[-1:] != (0,)


class TestPolyStoredForm:
    """One stored (numerators, denominator) form per polynomial, as for
    Matrix, and its arithmetic equal to the same computation on Fraction
    coefficient lists."""

    def assert_same(self, *ps):
        for p in ps:
            assert _poly_form_ok(p), p
            assert p._num == ps[0]._num and p._den == ps[0]._den, (p, ps[0])
            assert p == ps[0] and hash(p) == hash(ps[0]), (p, ps[0])

    def test_one_form_four_ways(self):
        p = RatPoly([F(1, 2), 0, F(-2, 3)])
        assert p._num == (3, 0, -4) and p._den == 6
        self.assert_same(
            p,
            RatPoly([F(3, 6), F(0, 5), F(-4, 6), 0, F(0, 7)]),
            RatPoly._over([9, 0, -12], 18),
            RatPoly._over([-3, 0, 4, 0], -6),
        )
        self.assert_same(RatPoly([2, -4]), RatPoly._over([-6, 12], -3), RatPoly([F(4, 2), F(-8, 2)]))
        assert RatPoly([2, -4])._den == 1
        zero = RatPoly([])
        assert zero._num == () and zero._den == 1
        self.assert_same(zero, RatPoly([0, F(0, 3)]), RatPoly._over([0, 0], -5), p * zero)

    @given(st.lists(fractions_st, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, c):
        p = RatPoly(c)
        assert _poly_form_ok(p)
        assert list(p.coeffs) == trimmed(c)
        self.assert_same(p, RatPoly(p.coeffs), RatPoly._over([5 * x for x in p._num], 5 * p._den))

    @given(st.lists(fractions_st, max_size=6), st.lists(fractions_st, max_size=5), st.integers(0, 3))
    @settings(max_examples=120, deadline=None)
    def test_arithmetic_matches_fraction_lists(self, a, b, k):
        pa, pb = RatPoly(a), RatPoly(b)
        a, b = trimmed(a), trimmed(b)
        power = [1]
        for _ in range(k):
            power = long_product(power, a)
        expected = [(pa * pb, long_product(a, b)), (pa**k, power)]
        if a:
            expected.append((pa.monic(), [x / a[-1] for x in a]))
        for got, want in expected:
            assert _poly_form_ok(got), got
            assert list(got.coeffs) == trimmed(want), (got, want)


small_ints = st.integers(-30, 30)
int_polys = st.lists(small_ints, max_size=7).map(trimmed)
nonzero = st.integers(-6, 6).filter(bool)
divisors = st.builds(lambda low, lead: low + [lead], st.lists(small_ints, max_size=4), nonzero)
#: divisors with a 100-digit leading coefficient
big_divisors = st.builds(
    lambda low, lead: low + [lead],
    st.lists(st.integers(-(10**100), 10**100), max_size=3),
    st.integers(10**99, 10**100 - 1),
)


class TestIntegerKernels:
    """The Z[x] kernels that every polynomial product, division,
    pseudo-remainder and power runs through, against long-hand Fraction
    lists."""

    @given(int_polys, divisors, int_polys, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_divmod(self, q, b, r, multiple):
        # a is q b plus a remainder of lower degree, so its quotient is
        # integral, or q itself, whose quotient by b mostly is not
        a = long_sum(long_product(q, b), r[: len(b) - 1]) if multiple else q
        assert _int_mul(q, b) == long_product(q, b)
        quo, rem = long_divmod(a, b)
        got = _int_divmod(a, b)
        if any(x.denominator != 1 for x in quo):
            assert got is None and _int_exact_div(a, b) is None
            return
        gq, gr = got
        assert gq == quo and gr == rem and len(gr) < len(b)
        assert all(type(x) is int for x in gq + gr)
        assert long_sum(long_product(gq, b), gr) == a
        assert _int_exact_div(a, b) == (None if gr else gq)
        if multiple:
            assert gq == q

    @given(int_polys, st.one_of(divisors, big_divisors), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_prem_is_a_positive_multiple_of_the_remainder(self, a, b, negate):
        if negate:
            b = [-x for x in b]
        rem = long_divmod(a, b)[1]
        got = _int_prem(a, b)
        assert all(type(x) is int for x in got)
        if not rem:
            assert got == []
        else:
            assert got and len(got) == len(rem)
            c = F(got[-1]) / rem[-1]
            assert c > 0 and [c * x for x in rem] == got

    @given(int_polys, int_polys, int_polys)
    @settings(max_examples=200, deadline=None)
    def test_gcd_matches_the_full_remainder_sequence(self, c, x, y):
        def full_sequence(a, b):
            # the loop before it stopped at a constant divisor: one more
            # pseudo-remainder, always 0, past it
            a, b = _primitive(a), _primitive(b)
            if len(a) < len(b):
                a, b = b, a
            while b:
                a, b = b, _primitive(_int_prem(a, b))
            return a

        # a common factor c, so the gcd is often not constant
        for a, b in ((x, y), (_int_mul(c, x), _int_mul(c, y)), (_int_mul(c, x), c)):
            assert _int_gcd(a, b) == full_sequence(a, b)  # sign included

    def test_prem_edge_divisors(self):
        with pytest.raises(ZeroDivisionError):
            _int_prem([1, 2, 3], [])
        with pytest.raises(ZeroDivisionError):
            _int_divmod([1, 2, 3], [])
        assert _int_prem([1, 2, 3], [-7]) == [] and _int_prem([], [1, 1]) == []
        # lead -2 to an odd power: lc(b)^3 would flip the sign that |lc(b)|^3 keeps
        assert _int_prem([1, 0, 0, 1], [1, -2]) == [9]
        assert _int_prem([5, 1], [0, 0, 3]) == [5, 1]
        big = 10**100 + 7
        assert _int_prem([0, 0, 1], [1, big]) == [1]

    @given(st.lists(fractions_st, max_size=4), fractions_st, st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_power_matches_repeated_products(self, c, r, k):
        calls = []

        def mul(x, y):
            calls.append(None)
            return x * y

        for base, one in ((RatPoly(c), RatPoly.one()), (r, 1)):
            want = one
            for _ in range(k):
                want = want * base
            calls.clear()
            assert _power(base, k, one, mul) == want
            # one squaring per bit below the top, one product per set bit
            assert len(calls) == (k.bit_length() - 1 + bin(k).count("1") if k else 0)
        assert RatPoly(c) ** k == _power(RatPoly(c), k, RatPoly.one(), mul)


class TestNoBoxing:
    """On integer input the exact core builds no Fraction at all: a later
    per-entry conversion fails here instead of only slowing the benchmark."""

    def test_counter_sees_fractions(self, monkeypatch):
        assert count_fractions(monkeypatch, lambda: Matrix([[1, 2]]).row_tuples) == 2

    def test_core_on_integer_input(self, monkeypatch):
        rng = random.Random(229)
        for n in (3, 6, 9):
            a = random_invertible(rng, n, bound=5)
            b = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            singular = a * Matrix([[int(i == j and j < n - 2) for j in range(n)] for i in range(n)])
            vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
            u, v = Subspace.span(n, vecs[:2]), kernel(singular)
            nil = NilpotentOperator(_integer_nilpotent(rng, n))
            cases = [
                (lambda: a * b),
                (lambda: kernel(singular)),
                (lambda: Subspace.span(n, vecs)),
                (lambda: subspace_sum(u, v)),
                (lambda: monodromy_filtration(nil)),
            ]
            for k, fn in enumerate(cases):
                assert count_fractions(monkeypatch, fn) == 0, (n, k)
            assert monodromy_filtration(nil).at(nil.nilpotency_index - 1).is_full()

    def test_polynomial_kernels_on_integer_input(self, monkeypatch):
        rng = random.Random(233)
        for n in (3, 6):
            a = Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            cp = char_poly(a)
            square = cp * cp
            cases = [
                (lambda: char_poly(a)),
                (lambda: _int_gcd(square._num, _int_derivative(cp._num))),
                (lambda: squarefree_decomposition(square)),
                (lambda: cp.eval_matrix(a)),
            ]
            for k, fn in enumerate(cases):
                assert count_fractions(monkeypatch, fn) == 0, (n, k)
            assert cp.eval_matrix(a) == Matrix.zero(a.rows, a.rows)
            assert [m for _, m in squarefree_decomposition(square)][0] >= 2


def _integer_nilpotent(rng: random.Random, n: int) -> Matrix:
    """A Jordan-type nilpotent matrix conjugated by an integer unimodular one."""
    j = Matrix([[int(c == r + 1 and r % 3 != 2) for c in range(n)] for r in range(n)])
    p = random_unimodular(rng, n)
    out = p * j * p.inverse()
    assert out.is_integral()
    return out
