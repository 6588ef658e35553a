import random
from fractions import Fraction as F

import pytest

from gens import (
    count_fractions,
    jordan_matrix,
    random_jordan_nilpotent,
    random_unipotent,
    random_wmc_pair,
)
from oracles import graded_map_is_bijective, jordan_filtration_pieces, power_ranks
from wmtrop import monodromy, ratlin
from wmtrop.monodromy import (
    Filtration,
    FrobeniusData,
    NilpotentOperator,
    NotNilpotentError,
    NotPureError,
    NotUnipotentError,
    WeightDecomposition,
    _log_floor,
    check_commutation,
    check_wmc,
    exp_nilpotent,
    log_unipotent,
    monodromy_filtration,
    weight_decomposition,
    weight_filtration,
    weil_weight,
)
from wmtrop.ratlin import (
    Matrix,
    RatPoly,
    Subspace,
    _nullspace_ints,
    apply_to_subspace,
    contains,
)

TATE_N = Matrix([[0, 1], [0, 0]])
TATE_PHI = Matrix.diagonal([1, 5])


class TestLogExp:
    def test_log_identity(self):
        assert log_unipotent(Matrix.identity(3)).n_matrix == Matrix.zero(3, 3)

    def test_log_single_block(self):
        got = log_unipotent(Matrix([[1, 1], [0, 1]]))
        assert got.n_matrix == Matrix([[0, 1], [0, 0]])

    def test_log_two_term_series(self):
        got = log_unipotent(Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
        assert got.n_matrix == Matrix([[0, 1, F(-1, 2)], [0, 0, 1], [0, 0, 0]])

    def test_not_unipotent_rejected(self):
        with pytest.raises(NotUnipotentError):
            log_unipotent(Matrix.diagonal([1, 2]))

    def test_exp_log_roundtrip(self):
        rng = random.Random(31)
        for _ in range(40):
            u = random_unipotent(rng, rng.randint(1, 6))
            assert exp_nilpotent(log_unipotent(u)) == u


class TestNilpotentOperator:
    def test_index(self):
        assert NilpotentOperator(Matrix.zero(3, 3)).nilpotency_index == 1
        j3 = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert NilpotentOperator(j3).nilpotency_index == 3

    def test_rejects_non_nilpotent(self):
        with pytest.raises(NotNilpotentError):
            NilpotentOperator(Matrix.identity(2))

    def test_ranks_are_the_jordan_type(self):
        # rank N^k = sum over the Jordan blocks of max(s - k, 0), for k from 0
        # to the index, the largest block; each against the Fraction powers too
        rng = random.Random(53)
        cases = [(Matrix.zero(d, d), [1] * d) for d in (1, 3)]
        for sizes in ([1], [2], [3, 1], [4, 2, 2], [3, 3, 1]):
            cases.append((jordan_matrix(sizes), sizes))
        for _ in range(20):
            cases.append(random_jordan_nilpotent(rng, rng.randint(1, 6)))  # conjugated
        for n_mat, blocks in cases:
            op = NilpotentOperator(n_mat)
            index = max(blocks)
            assert op.nilpotency_index == index
            assert op.ranks == tuple(sum(max(s - k, 0) for s in blocks) for k in range(index + 1))
            assert op.ranks == power_ranks(n_mat)
        empty = NilpotentOperator(Matrix([], cols=0))
        assert (empty.nilpotency_index, empty.ranks) == (0, (0,))
        assert power_ranks(empty.n_matrix) == (0,)


class TestMonodromyFiltration:
    def test_zero_operator(self):
        fil = monodromy_filtration(NilpotentOperator(Matrix.zero(3, 3)))
        assert fil.jump_indices() == [0]
        assert fil.at(-1) == Subspace.zero(3)
        assert fil.at(0) == Subspace.full(3)

    def test_single_jordan_block(self):
        fil = monodromy_filtration(NilpotentOperator(TATE_N))
        assert fil.at(-2) == Subspace.zero(2)
        assert fil.at(-1) == Subspace.span(2, [[1, 0]])
        assert fil.at(0) == Subspace.span(2, [[1, 0]])
        assert fil.at(1) == Subspace.full(2)

    def test_j3_plus_zero_block(self):
        n = Matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        fil = monodromy_filtration(NilpotentOperator(n))
        assert fil.jump_indices() == [-2, 0, 2]
        assert [fil.graded_dimension(j) for j in (-2, 0, 2)] == [1, 2, 1]

    def test_dim_zero(self):
        fil = monodromy_filtration(NilpotentOperator(Matrix([], cols=0)))
        assert fil == Filtration.trivial(0)

    def test_defining_properties_random(self):
        rng = random.Random(37)
        for _ in range(25):
            dim = rng.randint(1, 6)
            n_mat, _ = random_jordan_nilpotent(rng, dim)
            op = NilpotentOperator(n_mat)
            fil = monodromy_filtration(op)
            for j in range(fil.lo - 1, fil.hi + 2):
                moved = apply_to_subspace(n_mat, fil.at(j))
                assert contains(fil.at(j - 2), moved)
            for j in range(0, fil.hi + 1):
                assert fil.graded_dimension(j) == fil.graded_dimension(-j)
                assert graded_map_is_bijective(op, fil, j)

    def test_matches_jordan_oracle_random(self):
        rng = random.Random(41)
        for _ in range(30):
            dim = rng.randint(1, 6)
            n_mat, _ = random_jordan_nilpotent(rng, dim)
            fil = monodromy_filtration(NilpotentOperator(n_mat))
            oracle = jordan_filtration_pieces(n_mat)
            for j in range(-dim, dim + 1):
                assert fil.at(j) == oracle[j]

    def test_scaling_invariance(self):
        rng = random.Random(43)
        for _ in range(15):
            dim = rng.randint(1, 5)
            n_mat, _ = random_jordan_nilpotent(rng, dim)
            fil = monodromy_filtration(NilpotentOperator(n_mat))
            for c in (F(2), F(-1), F(3, 7)):
                scaled = monodromy_filtration(NilpotentOperator(n_mat.scale(c)))
                assert scaled == fil


class TestWeilWeight:
    def test_weight_zero(self):
        assert weil_weight(RatPoly([-1, 1]), 5) == 0

    def test_weight_two(self):
        assert weil_weight(RatPoly([-5, 1]), 5) == 2

    def test_weight_one_quadratic(self):
        assert weil_weight(RatPoly([5, -1, 1]), 5) == 1

    def test_reciprocal_but_not_pure(self):
        # roots (3 +- sqrt 5)/2: closed under r -> 1/r, moduli far from 1
        with pytest.raises(NotPureError):
            weil_weight(RatPoly([1, -3, 1]), 5)

    def test_negative_weight(self):
        assert weil_weight(RatPoly([F(-1, 5), 1]), 5) == -2
        # the roots are scaled by q^-j: real pure roots +-1/2, and a rational
        # root -1/2 = -sqrt(q^j)
        assert weil_weight(RatPoly([F(-1, 4), 0, 1]), 2) == -2
        assert weil_weight(RatPoly([F(1, 2), 1]), 4) == -1
        # constant term and reciprocity hold, but two roots are real and
        # their product is 1/2: only the Sturm count rejects it
        with pytest.raises(NotPureError, match="squared modulus other than q\\^-1"):
            weil_weight(RatPoly([F(1, 4), F(-1, 4), F(-3, 4), F(-1, 2), 1]), 2)

    def test_builds_no_fraction(self, monkeypatch):
        # the whole test runs on the integer numerators, for negative j too
        for q in (2, 3, 4, 5):
            for j in range(-2, 4):
                qj, t = F(q) ** j, F(q) ** (j // 2)  # t^2 <= q^j
                pure = [
                    RatPoly([-qj, 0, 1]),  # real roots +-sqrt(q^j)
                    RatPoly([qj, 0, 1]),
                    RatPoly([qj * qj, 0, 0, 0, 1]),  # the Dickson and Sturm steps
                    RatPoly([qj * qj, 0, qj, 0, 1]),
                    RatPoly([qj * qj, -t * qj, 2 * qj, -t, 1]),  # trace polynomial y^2 - t y
                ]
                if j % 2 == 0:
                    pure.append(RatPoly([t, 1]))
                for g in pure:
                    assert weil_weight(g, q) == j, (g, q)
                    assert count_fractions(monkeypatch, weil_weight, g, q) == 0, (g, q)

    def test_x_is_not_pure(self):
        with pytest.raises(NotPureError):
            weil_weight(RatPoly([0, 1]), 5)

    def test_non_power_constant(self):
        with pytest.raises(NotPureError):
            weil_weight(RatPoly([-3, 1]), 5)

    def test_fractional_weight_rejected(self):
        # constant term of x^3 - 5 forces 3j = 2, not an integer weight
        with pytest.raises(NotPureError):
            weil_weight(RatPoly([-5, 0, 0, 1]), 5)
        assert weil_weight(RatPoly([-25, 1]), 5) == 4

    def test_sqrt5_quadratic_is_weight_one(self):
        # x^2 - 5 has roots +-sqrt(5), both of squared modulus 5
        assert weil_weight(RatPoly([-5, 0, 1]), 5) == 1

    def test_moduli_just_outside_tolerance(self):
        # x^2 - (2 + 1e-40) x + 1: reciprocal real roots 1 +- ~1e-20, so the
        # squared moduli sit ~2e-20 from 1; the constant-term and reciprocity
        # conditions all pass and only the exact purity test can see it
        eps = F(1, 10**40)
        g = RatPoly([1, -(2 + eps), 1])
        with pytest.raises(NotPureError):
            weil_weight(g, 5)

    def test_log_floor_brackets_the_ratio(self):
        # q^L <= a/b < q^(L+1), on both sides of 1, at exact powers and one off them
        rng = random.Random(241)
        for q in (2, 3, 4, 5, 2**61 - 1, 2**127 - 1, 10**30):
            pairs = [(1, 1), (q, 1), (1, q), (q - 1, 1), (1, q + 1), (q**7, q**3), (q**5 - 1, q**9)]
            for _ in range(60):
                a, b = (rng.randrange(1, 2 ** rng.randint(1, 600)) for _ in range(2))
                k = rng.randint(0, 5)
                pairs += [(a, b), (a * q**k, a), (a * q**k - 1, a), (a, a * q**k + 1)]
            for a, b in pairs:
                low = _log_floor(a, b, q)
                above = low + 1
                if low >= 0:
                    assert q**low * b <= a < q**above * b, (a, b, q)
                else:
                    assert b <= a * q**-low and a * q**-above < b, (a, b, q)
            assert any(a < b for a, b in pairs) and any(a > b for a, b in pairs)

    def test_large_weight_keeps_precision(self):
        # q^j is ~1e28 here; the exact test must still tell 5^40 + 1 from 5^40
        assert weil_weight(RatPoly([-(F(5) ** 40), 1]), 5) == 80
        with pytest.raises(NotPureError):
            weil_weight(RatPoly([-(F(5) ** 40 + 1), 1]), 5)

    def test_square_q(self):
        # q = 4: root 2 has squared modulus 4 = q^1
        assert weil_weight(RatPoly([-2, 1]), 4) == 1

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            weil_weight(RatPoly([1, 2]), 5)

    def test_pure_polynomials_are_weighed_exactly(self):
        assert weil_weight(RatPoly([-25, 1]), 5) == 4  # degree 1
        assert weil_weight(RatPoly([-5, 0, 1]), 5) == 1  # x^2 - q^j
        assert weil_weight(RatPoly([F(1, 5), 0, 1]), 5) == -1  # trace 0: Sturm's lower end
        # (x^2 - 5)^2 is divided out by gcd(g, x^2 - q^j) to 1
        assert weil_weight(RatPoly([25, 0, -10, 0, 1]), 5) == 1
        assert weil_weight(RatPoly([25, 5, 8, 1, 1]), 5) == 1  # trace roots 1 and -2

    def test_reducible_input(self):
        # (x - 1)^2 (x + 1): every root has modulus 1, two of them repeated
        assert weil_weight(RatPoly([1, -1, -1, 1]), 5) == 0
        # (x^2 - 5)(x^2 + x + 5): real roots +-sqrt(5) beside a pure pair
        assert weil_weight(RatPoly([-5, 0, 1]) * RatPoly([5, 1, 1]), 5) == 1
        # (x - 1)(x - 25): reciprocal with q^j = 25, but the real roots have
        # squared moduli 1 and 625
        with pytest.raises(NotPureError, match="squared modulus"):
            weil_weight(RatPoly([-1, 1]) * RatPoly([-25, 1]), 5)


class TestWeightDecomposition:
    def test_diagonal(self):
        decomp = weight_decomposition(FrobeniusData(TATE_PHI, 5))
        assert decomp.components[0] == Subspace.span(2, [[1, 0]])
        assert decomp.components[2] == Subspace.span(2, [[0, 1]])

    def test_companion_single_weight(self):
        decomp = weight_decomposition(FrobeniusData(Matrix([[0, -5], [1, 1]]), 5))
        assert decomp.components == {1: Subspace.full(2)}

    def test_generalized_eigenspace(self):
        decomp = weight_decomposition(FrobeniusData(Matrix([[1, 1], [0, 1]]), 5))
        assert decomp.components == {0: Subspace.full(2)}

    def test_not_pure_propagates(self):
        with pytest.raises(NotPureError):
            weight_decomposition(FrobeniusData(Matrix.diagonal([3]), 5))

    def test_components_short_of_the_space_raise(self, monkeypatch):
        # a kernel that lost its vectors is caught by an explicit check, also under python -O
        monkeypatch.setattr(monodromy, "_nullspace_ints", lambda m: ([], _nullspace_ints(m)[1]))
        with pytest.raises(ArithmeticError, match=r"weight components \[0\] span 0 dimensions, not 1"):
            weight_decomposition(FrobeniusData(TATE_PHI, 5))

    def test_one_evaluation_per_split(self, monkeypatch):
        # five weights on Q^6 (eigenvalues 1, 25, 125, 625 and a pair of modulus^2 5):
        # four splits, only the first of them at full size
        blocks = Matrix(
            [
                [25, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0],
                [0, 0, 0, -5, 0, 0],  # x^2 - 2x + 5
                [0, 0, 1, 2, 0, 0],
                [0, 0, 0, 0, 125, 0],
                [0, 0, 0, 0, 0, 625],
            ]
        )
        p = Matrix([[1 if j >= i else 0 for j in range(6)] for i in range(6)])
        phi = p * blocks * p.inverse()
        sizes = []
        original = RatPoly.eval_matrix

        def counted(self, m):
            sizes.append(m.rows)
            return original(self, m)

        monkeypatch.setattr(RatPoly, "eval_matrix", counted)
        decomp = weight_decomposition(FrobeniusData(phi, 5))
        assert decomp.weights() == [0, 1, 4, 6, 8]
        assert len(sizes) == 4
        assert sizes[0] == 6 and max(sizes[1:]) < 6

    def test_components_phi_invariant(self):
        rng = random.Random(47)
        for _ in range(15):
            n_mat, phi, _ = random_wmc_pair(rng, 5, max_dim=6)
            decomp = weight_decomposition(FrobeniusData(phi, 5))
            total = 0
            for j, comp in decomp.components.items():
                assert contains(comp, apply_to_subspace(phi, comp))
                total += comp.dim
            assert total == phi.rows


class TestWeightFiltration:
    def test_two_step(self):
        fil = weight_filtration(weight_decomposition(FrobeniusData(TATE_PHI, 5)))
        assert fil.at(-1) == Subspace.zero(2)
        assert fil.at(0) == Subspace.span(2, [[1, 0]])
        assert fil.at(1) == Subspace.span(2, [[1, 0]])
        assert fil.at(2) == Subspace.full(2)

    def test_single_weight(self):
        fil = weight_filtration(weight_decomposition(FrobeniusData(Matrix([[0, -5], [1, 1]]), 5)))
        assert fil.jump_indices() == [1]

    def test_dim_zero(self):
        w = weight_decomposition(FrobeniusData(Matrix([], cols=0), 5))
        assert w == WeightDecomposition(0, {})
        assert weight_filtration(w) == Filtration.trivial(0)

    def test_two_weights_need_no_elimination(self, monkeypatch):
        # W_lo is the lowest component and the top is Q^d: only a weight
        # strictly between the lowest and the highest takes an elimination
        phis = (Matrix([[0, -5], [1, 1]]), TATE_PHI, Matrix.diagonal([1, 5, 25]))
        decomps = [weight_decomposition(FrobeniusData(phi, 5)) for phi in phis]
        assert [len(w.components) for w in decomps] == [1, 2, 3]
        eliminations = []
        original = ratlin._echelon
        monkeypatch.setattr(ratlin, "_echelon", lambda rows: eliminations.append(1) or original(rows))
        counts = []
        for w in decomps:
            eliminations.clear()
            weight_filtration(w)
            counts.append(len(eliminations))
        assert counts == [0, 0, 1]

    def test_components_that_do_not_span_raise(self):
        # a hand-built record whose component dimensions fall short of d, or go over it
        line = Subspace.span(2, [[1, 0]])
        for components in ({0: line}, {0: line, 2: Subspace.full(2)}, {0: line, 1: line, 2: line}):
            with pytest.raises(ValueError, match="^top filtration piece must be the full space$"):
                weight_filtration(WeightDecomposition(2, components))


class TestCommutation:
    def test_zero_commutes(self):
        assert check_commutation(NilpotentOperator(Matrix.zero(2, 2)), FrobeniusData(TATE_PHI, 5))

    def test_tate_commutes(self):
        assert check_commutation(NilpotentOperator(TATE_N), FrobeniusData(TATE_PHI, 5))

    def test_wrong_direction_fails(self):
        n = NilpotentOperator(Matrix([[0, 0], [1, 0]]))
        assert not check_commutation(n, FrobeniusData(TATE_PHI, 5))


class TestCheckWmc:
    def test_tate_curve_passes(self):
        report = check_wmc(NilpotentOperator(TATE_N), FrobeniusData(TATE_PHI, 5), 1)
        assert report.passed
        assert report.commutation_ok and report.filtrations_equal
        assert report.graded_weights == {-1: [(0, 1)], 1: [(2, 1)]}

    def test_pure_weight_zero_monodromy(self):
        report = check_wmc(
            NilpotentOperator(Matrix.zero(1, 1)), FrobeniusData(Matrix.diagonal([5]), 5), 2
        )
        assert report.passed
        assert report.graded_weights == {0: [(2, 1)]}

    def test_mismatch_reported(self):
        report = check_wmc(NilpotentOperator(Matrix.zero(2, 2)), FrobeniusData(TATE_PHI, 5), 1)
        assert not report.passed
        assert not report.filtrations_equal
        kinds = {v["kind"] for v in report.violations}
        assert "filtration_mismatch" in kinds

    def test_string_constructions_pass(self):
        rng = random.Random(53)
        for _ in range(10):
            center = rng.randint(0, 3)
            n_mat, phi, i = random_wmc_pair(rng, 3, max_dim=7, center=center)
            report = check_wmc(NilpotentOperator(n_mat), FrobeniusData(phi, 3), i)
            assert report.passed, report.violations

    def test_string_constructions_that_cannot_fit_are_refused(self):
        for max_dim, center in ((1, 1), (1, -3), (0, None), (0, 2)):
            with pytest.raises(ValueError, match="^no string fits in dimension"):
                random_wmc_pair(random.Random(0), 5, max_dim=max_dim, center=center)
        for max_dim, center in ((2, 1), (1, 2), (1, None)):
            n_mat, phi, i = random_wmc_pair(random.Random(0), 5, max_dim=max_dim, center=center)
            assert n_mat.rows == phi.rows <= max_dim and i == (center or 0)

    def test_misaligned_centers_fail(self):
        # two commuting strings whose graded weights center at 1 and 3: no
        # single shift i can make both filtrations agree
        def blockdiag(a, b):
            rows = [list(r) + [F(0)] * b.cols for r in a.row_tuples]
            rows += [[F(0)] * a.cols + list(r) for r in b.row_tuples]
            return Matrix(rows)

        rng = random.Random(61)
        for _ in range(8):
            q = rng.choice([2, 3, 5])
            n1, p1, _ = random_wmc_pair(rng, q, max_dim=4, center=1)
            n2, p2, _ = random_wmc_pair(rng, q, max_dim=4, center=3)
            op = NilpotentOperator(blockdiag(n1, n2))
            frob = FrobeniusData(blockdiag(p1, p2), q)
            assert check_commutation(op, frob)
            for i in (1, 2, 3):
                assert not check_wmc(op, frob, i).passed

    def test_nwm_inside_wm_minus_2(self):
        rng = random.Random(59)
        for _ in range(15):
            n_mat, phi, _ = random_wmc_pair(rng, 5, max_dim=7)
            frob = FrobeniusData(phi, 5)
            op = NilpotentOperator(n_mat)
            assert check_commutation(op, frob)
            fil = weight_filtration(weight_decomposition(frob))
            for m in range(fil.lo - 1, fil.hi + 2):
                moved = apply_to_subspace(n_mat, fil.at(m))
                assert contains(fil.at(m - 2), moved)

    def test_dim_zero(self):
        report = check_wmc(
            NilpotentOperator(Matrix([], cols=0)), FrobeniusData(Matrix([], cols=0), 5), 1
        )
        assert report.passed

    def test_unstable_graded_pieces_reported(self):
        # Phi swaps the two coordinates, so it neither commutes with N up to
        # q nor preserves the N-filtration; both failures must be recorded
        n = NilpotentOperator(TATE_N)
        frob = FrobeniusData(Matrix([[0, 1], [1, 0]]), 2)
        report = check_wmc(n, frob, 1)
        assert not report.passed and not report.commutation_ok
        kinds = {v["kind"] for v in report.violations}
        assert "commutation" in kinds
        assert "graded_not_phi_stable" in kinds
        # Fil_1 = Q^2 is stable but Fil_0 = Fil_-1 is not, so Phi induces no
        # map on gr_1: it gets no weights, and only Fil_-1 is named
        assert report.graded_weights == {}
        graded = [v for v in report.violations if v["kind"].startswith("graded")]
        assert [(v["kind"], v["index"]) for v in graded] == [("graded_not_phi_stable", -1)]

    def test_weight_one_quartic_block(self):
        # x^4 - x^3 + 2x^2 - 2x + 4 has all roots of squared modulus 2
        coeffs = [4, -2, 2, -1, 1]
        companion = Matrix(
            [
                [0, 0, 0, -coeffs[0]],
                [1, 0, 0, -coeffs[1]],
                [0, 1, 0, -coeffs[2]],
                [0, 0, 1, -coeffs[3]],
            ]
        )
        decomp = weight_decomposition(FrobeniusData(companion, 2))
        assert decomp.components == {1: Subspace.full(4)}


class TestFiltrationType:
    def test_semantic_equality_across_ranges(self):
        a = Filtration(2, 0, [Subspace.full(2)])
        b = Filtration(2, -1, [Subspace.zero(2), Subspace.full(2), Subspace.full(2)])
        assert a == b
        assert Filtration(0, 5, [Subspace.zero(0)] * 3) == Filtration.trivial(0)

    def test_top_must_be_full(self):
        with pytest.raises(ValueError):
            Filtration(2, 0, [Subspace.span(2, [[1, 0]])])
