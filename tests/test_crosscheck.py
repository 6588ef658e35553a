"""The exact core against independent computation paths.

The intersection and the induced quotient maps are each one elimination;
here they meet the kernel-and-solve constructions of tests/oracles.py,
the monodromy filtration's recurrence meets the closed formula, check_wmc's
shortcuts meet the loop that tests and weighs every graded piece, and the
determinant, the q-power test and the lattice width meet the loops they
replaced, char_poly and eval_matrix meet Faddeev-LeVerrier and Horner,
the integer elimination and products meet the Fraction loops they
replaced, the integer gcd, Yun loop and Sturm count meet their Fraction
versions, the exact purity test meets the numeric root-modulus check, and
the linear witness check meets the face loop built on corner_value.  rref,
kernel and intersection dimensions, det, char_poly, factor_rational, the
gcd, the squarefree decomposition, the Sturm count and the lattice HNF
meet sympy.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from gens import (
    jordan_matrix,
    load_workloads,
    random_fraction,
    random_invertible,
    random_lattice,
    random_matrix,
    random_subspace,
    random_unimodular,
    random_wmc_pair,
    swinnerton_dyer,
    weight_block,
)
from oracles import (
    closed_formula_pieces,
    exact_q_power_recursive,
    factoring_weights,
    faddeev_leverrier_char_poly,
    fraction_apply,
    fraction_det,
    fraction_inverse,
    fraction_kernel,
    fraction_poly_gcd,
    fraction_power,
    fraction_product,
    fraction_rank,
    fraction_roots_in,
    fraction_rref,
    fraction_sign_changes,
    filtration_mismatches,
    fraction_squarefree_decomposition,
    fraction_sturm_sequence,
    gaussian_det,
    graded_map_is_bijective,
    graded_weights_every_piece,
    greedy_quotient_reps,
    hessenberg_char_poly,
    horner,
    horner_eval_matrix,
    kernel_intersect,
    long_product,
    long_sum,
    numeric_weil_weight,
    power_ranks,
    rational_gcd_fold,
    running_sum_weight_filtration,
    solve_induced_matrix,
    verify_section_by_corner_value,
)
from wmtrop import cli, monodromy, polyfactor, ratlin
from wmtrop.monodromy import (
    Filtration,
    FrobeniusData,
    NilpotentOperator,
    NotNilpotentError,
    NotPureError,
    WmcReport,
    _exact_q_power,
    _exactly_pure,
    _roots_in,
    _sign_changes,
    _split_weights,
    _sturm_sequence,
    _weigh,
    check_commutation,
    check_wmc,
    induced_quotient_matrix,
    monodromy_filtration,
    weight_decomposition,
    weight_filtration,
    weil_weight,
)
from wmtrop.polyfactor import _mx_gcd, factor_rational, squarefree_decomposition
from wmtrop.ratlin import (
    Matrix,
    RatPoly,
    Subspace,
    _int_derivative,
    _int_gcd,
    _rref,
    char_poly,
    contains,
    kernel,
    subspace_intersect,
    subspace_sum,
)
from wmtrop.tropbundle import BundleData, TropicalSection, construct_f, verify_section
from wmtrop.troplattice import CellWidth, TropicalLattice, lattice_hnf, max_dividing_width


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


def _jordan_sum(rng, sizes, p=None):
    """Direct sum of nilpotent Jordan blocks of the given sizes, conjugated
    by p, a random invertible integer matrix by default."""
    p = p or random_invertible(rng, sum(sizes))
    return p * jordan_matrix(sizes) * p.inverse()


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

    def test_builders_nest_their_pieces(self):
        # Filtration trusts both builders to nest their pieces and reads
        # the jumps off the graded dimensions
        rng = random.Random(197)
        filtrations = []
        for sizes in ([1], [3], [2, 1], [4, 2, 1], [3, 3, 1, 1]):
            filtrations.append(monodromy_filtration(NilpotentOperator(_jordan_sum(rng, sizes))))
        for _ in range(30):
            q = rng.choice([2, 3, 5])
            n_mat, phi, _ = random_wmc_pair(rng, q, max_dim=7, center=rng.choice([None, 2]))
            filtrations.append(monodromy_filtration(NilpotentOperator(n_mat)))
            filtrations.append(weight_filtration(weight_decomposition(FrobeniusData(phi, q))))
        for fil in filtrations:
            span = range(fil.lo - 1, fil.hi + 2)
            assert all(contains(fil.at(j + 1), fil.at(j)) for j in span), fil
            assert fil.jump_indices() == [j for j in span if fil.at(j) != fil.at(j - 1)], fil
        assert {len(fil.jump_indices()) for fil in filtrations} >= {1, 2, 3, 4}

    def test_weight_filtration_matches_the_running_sum(self):
        # the ends taken from the decomposition (the lowest component and
        # Q^d) against the running sum from the zero space, on conjugated
        # Weil products of 1 to 5 weights, some of them repeated, and on Q^0
        rng = random.Random(239)
        counts = set()
        for k in range(40):
            q = rng.choice([2, 3, 5])
            weights = rng.sample(range(-2, 6), k % 5 + 1)
            blocks = [weight_block(rng, q, w) for w in weights for _ in range(rng.randint(1, 2))]
            phi = _block_diagonal(blocks)
            p = random_invertible(rng, phi.rows)
            decomp = weight_decomposition(FrobeniusData(p * phi * p.inverse(), q))
            assert decomp.weights() == sorted(weights)
            assert weight_filtration(decomp) == running_sum_weight_filtration(decomp), weights
            counts.add(len(weights))
        assert counts == {1, 2, 3, 4, 5}
        empty = weight_decomposition(FrobeniusData(Matrix([], cols=0), 5))
        assert weight_filtration(empty) == running_sum_weight_filtration(empty) == Filtration.trivial(0)

    def test_intersection_matches_kernel_construction(self):
        rng = random.Random(101)
        dims = set()
        for _, u, v in _subspace_pairs(rng, 200):
            got = subspace_intersect(u, v)
            dims.add(min(got.dim, 3))
            assert got.basis == kernel_intersect(u, v).basis
            assert got == Subspace.span(u.ambient_dim, got.basis.row_tuples)  # canonical as built
        assert dims == {0, 1, 2, 3}

    def test_induced_matrices_on_filtrations(self):
        rng = random.Random(103)
        checked = left = 0
        for _ in range(25):
            n_mat, phi, _ = random_wmc_pair(rng, 3, max_dim=7, center=rng.choice([None, 2]))
            fil = monodromy_filtration(NilpotentOperator(n_mat))
            unstable = random_invertible(rng, n_mat.rows)
            for j in fil.jump_indices():
                for op in (phi, unstable):
                    got = induced_quotient_matrix(op, fil.at(j), fil.at(j - 1))
                    assert got == _induced_oracle(op, fil.at(j), fil.at(j - 1))
                    checked += 1
                    left += got is None
        assert 0 < left < checked

    def test_induced_matrices_on_random_nests(self):
        # op preserves small by construction, and big about half the time
        rng = random.Random(107)
        outcomes = set()
        for _ in range(150):
            ambient = rng.randint(1, 6)
            small = random_subspace(rng, ambient)
            big = subspace_sum(small, random_subspace(rng, ambient))
            op = _preserving(rng, small, big, keep_big=rng.random() < 0.5)
            got = induced_quotient_matrix(op, big, small)
            assert got == _induced_oracle(op, big, small)
            outcomes.add(got is None)
        assert outcomes == {False, True}

    def test_graded_loop_eliminates_once_per_piece(self, monkeypatch):
        # a commutation-variant Tate job fails the comparison, so check_wmc
        # weighs every jump piece: one elimination each, no residual test
        job = load_workloads()._wmc_job(random.Random(11), 3, 2, "commutation")
        calls = {"induced": 0, "residual": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            monodromy, "induced_quotient_matrix", counted("induced", induced_quotient_matrix)
        )
        monkeypatch.setattr(Subspace, "_residual", counted("residual", Subspace._residual))
        report = cli.run(cli.JobSpec(job.command, job.payload)).to_dict()
        assert job.oracle(report) is None
        assert calls == {"induced": 4, "residual": 0}
        assert len(report["payload"]["graded_weights"]) == 4

    def test_induced_map_oracles_reach_no_elimination(self, monkeypatch):
        # the induced-map oracles check induced_quotient_matrix, which runs
        # on _echelon, so they must not run on it themselves
        cases = []
        for _, op, fd, i in _wmc_cases(random.Random(263), 3):
            cases.append((op, monodromy_filtration(op), fd, i))

        def oracles():
            out = []
            for op, fil, fd, i in cases:
                for j in fil.jump_indices():
                    piece = (fil.at(j), fil.at(j - 1))
                    out.append(_outcome(solve_induced_matrix, fd.phi_matrix, *piece, *piece))
                out.append([graded_map_is_bijective(op, fil, j) for j in range(fil.hi + 1)])
                out.append(graded_weights_every_piece(fil, fd, i))
            return out

        expected = oracles()
        assert "raises" in expected

        def refuse(*args):
            raise AssertionError("an oracle reached _echelon")

        for module in (ratlin, monodromy):
            monkeypatch.setattr(module, "_echelon", refuse)
        assert oracles() == expected
        op, fil, fd, _ = cases[0]
        with pytest.raises(AssertionError, match="reached _echelon"):
            induced_quotient_matrix(fd.phi_matrix, fil.at(fil.hi), fil.at(fil.hi - 1))


def _induced_oracle(op, big, small):
    """None if op leaves big, by a Fraction rank test, else the matrix
    solve_induced_matrix finds."""
    rows = list(big.basis.row_tuples)
    if fraction_rank(rows + [fraction_apply(op, v) for v in rows]) > big.dim:
        return None
    return solve_induced_matrix(op, big, small, big, small)


def _preserving(rng, small, big, keep_big):
    """A random map that preserves small, and big too if keep_big: block
    triangular on a basis of small, then big, then the rest."""
    n = small.ambient_dim
    reps = greedy_quotient_reps(big, small)
    basis = [*small.basis.row_tuples, *reps, *greedy_quotient_reps(Subspace.full(n), big)]
    ends = [small.dim, small.dim + len(reps)] if keep_big else [small.dim]
    rows = [list(r) for r in random_matrix(rng, n, n).row_tuples]
    for end in ends:
        for r in range(end, n):
            rows[r][:end] = [F(0)] * end
    p = Matrix.from_columns(basis, n)
    return fraction_product(fraction_product(p, Matrix(rows, cols=n)), fraction_inverse(p))


def _wmc_cases(rng, count):
    """`count` cases (kind, N, (Phi, q), i) of each kind: "centred" pairs,
    whose filtrations are equal; "uncentred" ones, which commute; and
    "perturbed" (Phi + cN) and "unstable" (Phi conjugated by an elementary
    basis change) ones, which do not commute."""
    cases = []
    for kind in ("centred", "uncentred", "perturbed", "unstable"):
        while sum(c[0] == kind for c in cases) < count:
            q = rng.choice([2, 3, 5])
            center = rng.randint(0, 3)
            if kind == "uncentred" or (kind != "centred" and rng.random() < 0.5):
                center = None
            n_mat, phi, i = random_wmc_pair(rng, q, max_dim=7, center=center)
            if kind == "perturbed":  # keeps every piece, commutes only if N^2 = 0
                phi = phi + n_mat.scale(rng.choice([-2, -1, 1, 2]))
            elif kind == "unstable" and phi.rows > 1:  # moves only some pieces
                rows = [list(r) for r in Matrix.identity(phi.rows).row_tuples]
                a, b = rng.sample(range(phi.rows), 2)
                rows[a][b] = rng.choice([-1, 1])
                g = Matrix(rows)
                phi = g * phi * g.inverse()
            op = NilpotentOperator(n_mat)
            if phi.det() == 0 or (kind in ("perturbed", "unstable")) == check_commutation(
                op, FrobeniusData(phi, q)
            ):
                continue
            cases.append((kind, op, FrobeniusData(phi, q), i))
    return cases


def _against_every_piece(op, fd, i):
    """check_wmc's report, and whether its graded weights and violations
    are those of the loop over every piece; checks fact (a) on that loop."""
    report = check_wmc(op, fd, i)
    weights, graded, stable = graded_weights_every_piece(monodromy_filtration(op), fd, i)
    if check_commutation(op, fd):
        assert all(stable.values()), (op.n_matrix, fd.phi_matrix)
    ungraded = [v for v in report.violations if not v["kind"].startswith("graded_")]
    return report, report.graded_weights == weights and report.violations == ungraded + graded


class TestWmcShortcuts:
    def test_shortcuts_match_every_piece(self):
        rng = random.Random(179)
        seen = set()
        for kind, op, fd, i in _wmc_cases(rng, 12):
            report, agrees = _against_every_piece(op, fd, i)
            assert agrees, (kind, op.n_matrix, fd.phi_matrix, i)
            moved = any(v["kind"] == "graded_not_phi_stable" for v in report.violations)
            weighed = bool(report.graded_weights)
            seen.add((kind, report.commutation_ok, report.filtrations_equal, moved, weighed))
        assert {k for k in seen if k[0] == "centred"} == {("centred", True, True, False, True)}
        # commuting alone, equal filtrations alone, and neither: some pieces
        # weighed, some moved
        assert seen >= {
            ("uncentred", True, False, False, True),
            ("perturbed", False, True, False, True),
            ("perturbed", False, False, False, True),
            ("unstable", False, False, True, True),
        }

    def test_a_wrong_multiplicity_is_caught(self, monkeypatch):
        # one more of every string changes the multiplicities of gr_j, so no
        # centred pair's report agrees with the loop over every piece
        rng = random.Random(181)
        centred = [c for c in _wmc_cases(rng, 4) if c[0] == "centred"]
        original, counted = monodromy._strings, []

        def one_more(pieces, q):
            strings = original(pieces, q)
            counted.append(strings)
            return {key: count + 1 for key, count in strings.items()}

        monkeypatch.setattr(monodromy, "_strings", one_more)
        assert not any(_against_every_piece(op, fd, i)[1] for _, op, fd, i in centred)
        assert len(counted) == len(centred) and all(counted)


def _graded_pair(rng, q, dims, full_rank):
    """(N, Phi) on a block of dims[w] coordinates at each even weight w:
    Phi is q^(w/2) on the block of weight w, and N maps it into the block
    of weight w - 2 by a random matrix, of the largest rank if full_rank
    (almost always) and of a random rank otherwise, so N Phi = q Phi N.
    Both are conjugated by one random invertible matrix."""
    ws = sorted(dims)
    start = dict(zip(ws, itertools.accumulate([0] + [dims[w] for w in ws])))
    d = sum(dims.values())
    n_rows = [[F(0)] * d for _ in range(d)]
    phi_rows = [[F(0)] * d for _ in range(d)]
    for w in ws:
        for t in range(start[w], start[w] + dims[w]):
            phi_rows[t][t] = F(q) ** (w // 2)
        if w - 2 in dims:
            rows, cols = dims[w - 2], dims[w]
            rank = min(rows, cols) if full_rank else rng.randint(0, min(rows, cols))
            if rank == 0:
                continue
            block = random_matrix(rng, rows, rank) * random_matrix(rng, rank, cols)
            for r, row in enumerate(block.row_tuples):
                n_rows[start[w - 2] + r][start[w] : start[w] + cols] = row
    p = random_invertible(rng, d)
    p_inv = p.inverse()
    return p * Matrix(n_rows, cols=d) * p_inv, p * Matrix(phi_rows, cols=d) * p_inv


def _graded_cases(rng, count):
    """`count` (N, (Phi, q), i) from _graded_pair: half with d symmetric
    about i, the weights i + j for a random set of j >= 0 with gaps and
    their mirrors, and half on random even weights."""
    cases = []
    for t in range(count):
        q, i = rng.choice([2, 3]), rng.randint(-2, 4)
        if t % 2:
            js = rng.sample(range(i % 2, 7, 2), rng.randint(1, 3))
            dims = {}
            for j in js:
                dims[i + j] = dims[i - j] = rng.randint(1, 2)
        else:
            dims = {w: rng.randint(1, 2) for w in rng.sample(range(-2, 9, 2), rng.randint(1, 4))}
        if sum(dims.values()) > 8:
            continue
        n_mat, phi = _graded_pair(rng, q, dims, full_rank=rng.random() < 0.7)
        cases.append(("graded", NilpotentOperator(n_mat), FrobeniusData(phi, q), i))
    return cases


def _symmetric(dims):
    return all(dims.get(-j) == m for j, m in dims.items())


def _full_comparison(op, fd, i):
    """check_wmc's report with no shortcut: both filtrations compared
    index by index (filtration_mismatches) and every graded piece tested
    and weighed (graded_weights_every_piece); None when Phi is impure."""
    try:
        mismatches = filtration_mismatches(op, fd, i)
    except NotPureError:
        return None
    weights, graded, _ = graded_weights_every_piece(monodromy_filtration(op), fd, i)
    commutes = check_commutation(op, fd)
    ungraded = [] if commutes else [{"kind": "commutation", "detail": "N Phi != q Phi N"}]
    return WmcReport(commutes, not mismatches, weights, ungraded + mismatches + graded)


class TestDimensionTest:
    """N's strings (fact (b) of check_wmc) against the full comparison of
    the filtrations and the loop over every graded piece."""

    def test_matches_the_full_comparison(self, monkeypatch):
        rng = random.Random(331)
        empty = Matrix.zero(0, 0)
        cases = _wmc_cases(rng, 10) + _graded_cases(rng, 160)
        cases += [("empty", NilpotentOperator(empty), FrobeniusData(empty, 2), i) for i in (0, 3)]
        # N = 0 and weights i -+ 1: two strings of length 1, off centre
        zero = NilpotentOperator(Matrix.zero(2, 2))
        cases.append(("past_index", zero, FrobeniusData(Matrix.diagonal([1, 9]), 3), 1))
        # gaps in the weights: d is symmetric about i, but the strings are
        # centred elsewhere, with N = 0 and with two strings of length 2
        for dims in ({0: 1, 4: 1}, {0: 1, 2: 1, 6: 1, 8: 1}):
            n_mat, phi = _graded_pair(rng, 3, dims, full_rank=True)
            i = (min(dims) + max(dims)) // 2
            cases.append(("past_index", NilpotentOperator(n_mat), FrobeniusData(phi, 3), i))
        decided = []
        original = monodromy._string_report
        monkeypatch.setattr(
            monodromy, "_string_report", lambda *a: decided.append(a) or original(*a)
        )
        seen = set()
        for kind, op, fd, i in cases:
            decided.clear()
            report = check_wmc(op, fd, i)
            expected = _full_comparison(op, fd, i)
            if expected is None:
                assert any(v["kind"] == "not_pure" for v in report.violations)
                continue
            assert report == expected, (kind, op.n_matrix, fd.phi_matrix, i)
            commutes, equal, weights, _ = expected
            assert list(report.graded_weights) == sorted(report.graded_weights)
            assert bool(decided) == commutes, (kind, op.n_matrix, fd.phi_matrix, i)
            dims = {}
            for pairs in weights.values():
                for w, m in pairs:
                    dims[w - i] = dims.get(w - i, 0) + m
            seen.add((kind, commutes, equal, _symmetric(dims), op.nilpotency_index > 1))
        assert seen >= {
            ("centred", True, True, True, True),
            ("centred", True, True, True, False),
            ("uncentred", True, False, False, True),
            ("perturbed", False, True, True, True),
            ("perturbed", False, False, False, True),
            ("unstable", False, False, False, True),
            ("empty", True, True, True, False),
            ("past_index", True, False, True, False),
            ("past_index", True, False, True, True),
            ("graded", True, True, True, True),
            ("graded", True, False, True, True),  # symmetric, but off centre
            ("graded", True, False, False, True),
        }

    def test_swapped_pieces_are_refused(self):
        # the pieces of a string of length 2 and one of length 3, in reverse:
        # a longer string than there are shorter ones of its bottom weight
        rng = random.Random(337)
        for lengths in ([2], [2, 3], [1, 3]):
            n_mat, phi = _tate_strings(rng, 3, lengths)
            pieces = FrobeniusData(phi, 3, NilpotentOperator(n_mat)).pieces
            assert monodromy._strings(pieces, 3)
            with pytest.raises(ArithmeticError, match="^-[0-9]+ strings of bottom weight"):
                monodromy._strings(pieces[::-1], 3)

    def test_a_gap_in_the_weights_is_not_skipped(self):
        # d = {-2: 1, 2: 1}: R_1(d) = 0, but R_2(d) = 1 > rank N^2 = 0
        report = check_wmc(
            NilpotentOperator(Matrix.zero(2, 2)), FrobeniusData(Matrix.diagonal([1, 4]), 2), 2
        )
        mismatches = [
            {
                "kind": "filtration_mismatch",
                "index": j,
                "monodromy_dim": m,
                "weight_index": 2 + j,
                "weight_dim": 1,
            }
            for j, m in ((-2, 0), (-1, 0), (0, 2), (1, 2))
        ]
        graded = [
            {"kind": "graded_weight", "index": 0, "weight": w, "multiplicity": 1, "expected": 2}
            for w in (0, 4)
        ]
        assert report == WmcReport(True, False, {0: [(0, 1), (4, 1)]}, mismatches + graded)

    def test_counts_on_the_benchmark_jobs(self, monkeypatch):
        # a commuting job builds no filtration, passing or not; N Phi = q Phi N
        # is tested once, in FrobeniusData, which takes the characteristic
        # polynomial of Phi on each piece ker N^(k+1) / ker N^k, never on Phi
        # itself, and each piece is split by weight once, with nothing factored
        workloads = load_workloads()
        names = (
            "monodromy_filtration",
            "_split",
            "induced_quotient_matrix",
            "char_poly",
            "_split_weights",
            "_weigh",
            "_q_commutes",
        )
        args = {name: [] for name in names}
        for name, seen in args.items():
            fn = getattr(monodromy, name)
            monkeypatch.setattr(
                monodromy, name, lambda *a, fn=fn, seen=seen: seen.append(a[0]) or fn(*a)
            )
        for variant in ("pass", "wrong_i"):
            job = workloads._wmc_job(random.Random(13), 3, 2, variant)
            phi = cli.parse_matrix(job.payload["phi"], "phi")
            op = NilpotentOperator(cli.parse_matrix(job.payload["n"], "n"))
            pieces = FrobeniusData(phi, job.payload["q"], op).pieces
            for seen in args.values():
                seen.clear()
            report = cli.run(cli.JobSpec(job.command, job.payload)).to_dict()
            assert job.oracle(report) is None
            assert (report["status"] == "pass") == (variant == "pass")
            assert len(pieces) == op.nilpotency_index == 4
            assert [m.rows for m in args["char_poly"]] == [2, 2, 2, 2]
            assert args["_split_weights"] == [list(p._num) for p in pieces]
            assert args["_q_commutes"] == [op.n_matrix]
            assert args["monodromy_filtration"] == args["_split"] == []
            assert args["induced_quotient_matrix"] == args["_weigh"] == []


def _counting_echelon(monkeypatch, limit):
    """Count monodromy's _echelon calls in the returned list, and fail at
    call limit + 1, so that a chain that never stops fails, not hangs."""
    calls, echelon = [], ratlin._echelon

    def counting(rows):
        calls.append(len(rows))
        assert len(calls) <= limit, "the rank chain ran past its bound"
        return echelon(rows)

    monkeypatch.setattr(monodromy, "_echelon", counting)
    return calls


class TestRankChain:
    """NilpotentOperator's shrinking chain of row spaces against the ranks
    of the Fraction powers (oracles.power_ranks)."""

    def test_matches_the_ranks_of_the_powers(self, monkeypatch):
        rng = random.Random(211)
        seen = set()
        for _ in range(80):
            d = rng.randint(1, 8)
            sizes = []
            while sum(sizes) < d:
                sizes.append(rng.randint(1, d - sum(sizes)))
            kind = rng.choice(["integer", "rational", "scaled", "graded"])
            if kind == "integer":  # a unimodular p has an integral inverse
                n_mat = _jordan_sum(rng, sizes, random_unimodular(rng, d))
            elif kind == "rational":
                n_mat = _jordan_sum(rng, sizes)
            elif kind == "scaled":
                n_mat = _jordan_sum(rng, sizes).scale(random_fraction(rng) or F(1, 3))
            else:
                n_mat = random_wmc_pair(rng, 3, max_dim=8)[0]
            calls = _counting_echelon(monkeypatch, n_mat.rows + 1)
            op = NilpotentOperator(n_mat)
            ranks = power_ranks(n_mat)
            assert op.ranks == ranks and op.nilpotency_index == len(ranks) - 1, n_mat
            assert len(calls) == op.nilpotency_index  # one elimination per step
            seen.add((kind, n_mat.is_integral(), op.nilpotency_index > 2))
        assert {("integer", True, True), ("rational", False, True), ("scaled", False, True)} <= seen
        assert any(kind == "graded" and deep for kind, _, deep in seen)

    def test_refuses_what_is_not_nilpotent(self, monkeypatch):
        rng = random.Random(223)
        nil = _jordan_sum(rng, [3, 1])  # ranks 4, 2, 1, 0
        p = random_invertible(rng, 6)
        cases = {
            "invertible": (random_invertible(rng, 4), 1),
            "scalar": (Matrix.diagonal([F(2, 3)] * 3), 1),
            # ranks 6, 4, 3, 2, 2: the chain stalls at rank 2 after four steps
            "nilpotent + invertible": (_block_diagonal([nil, random_invertible(rng, 2)]), 4),
            "conjugated": (p * _block_diagonal([nil, Matrix.diagonal([1, -1])]) * p.inverse(), 4),
        }
        for name, (n_mat, steps) in cases.items():
            assert power_ranks(n_mat) is None, name
            calls = _counting_echelon(monkeypatch, n_mat.rows + 1)
            with pytest.raises(NotNilpotentError) as err:
                NilpotentOperator(n_mat)
            assert str(err.value) == "matrix is not nilpotent"
            assert len(calls) == steps, name

    def test_an_invertible_operator_is_refused_after_one_elimination(self, monkeypatch):
        # a dense invertible 64 x 64 N: unit upper triangular, its rows
        # shuffled so that the elimination must swap
        rng = random.Random(227)
        d = 64
        rows = [[int(i == j) or rng.randint(-3, 3) * (j > i) for j in range(d)] for i in range(d)]
        rng.shuffle(rows)
        calls = _counting_echelon(monkeypatch, 1)
        with pytest.raises(NotNilpotentError, match="^matrix is not nilpotent$"):
            NilpotentOperator(Matrix(rows))
        assert calls == [d]


def _rational_conjugator(rng, d):
    """An invertible matrix with rational entries."""
    return random_invertible(rng, d) * Matrix.diagonal([random_fraction(rng) or F(1, 3)] * d)


def _tate_strings(rng, q, lengths):
    """(N, Phi): a Jordan string of each length in `lengths`, with Phi
    q^(w + t) at step t of a string of base weight 2w, conjugated by a
    random invertible matrix, so N Phi = q Phi N."""
    bases = rng.choices(range(3), k=len(lengths))
    diag = [q ** (w + t) for s, w in zip(lengths, bases) for t in range(s)]
    p = random_invertible(rng, sum(lengths))
    p_inv = p.inverse()
    return p * jordan_matrix(lengths) * p_inv, p * Matrix.diagonal(diag) * p_inv


def _commuting_pairs(rng, count):
    """(kind, N, Phi, q) with N Phi = q Phi N: random_wmc_pair conjugated
    by integer (unimodular), integer and rational matrices, conjugated Tate
    strings of different lengths, N = 0, and 0x0 and 1x1 pairs."""
    cases = [
        ("empty", Matrix.zero(0, 0), Matrix.zero(0, 0), 2),
        ("one", Matrix.zero(1, 1), Matrix([[F(-9, 2)]]), 3),
        ("zero", Matrix.zero(3, 3), random_invertible(rng, 3), 5),
    ]
    conjugators = {
        "unimodular": random_unimodular,
        "integer": random_invertible,
        "rational": _rational_conjugator,
    }
    for t in range(count):
        q = rng.choice([2, 3, 5])
        for kind, conjugator in conjugators.items():
            n_mat, phi, _ = random_wmc_pair(rng, q, max_dim=8, conjugator=conjugator)
            cases.append((kind, n_mat, phi, q))
        lengths = rng.sample([1, 2, 3, 4], rng.randint(2, 3))
        cases.append(("strings", *_tate_strings(rng, q, lengths), q))
    return cases


def _piece_oracle(n_mat, phi, k):
    """det(xI - Phi) on ker N^(k+1) / ker N^k, all in Fractions: the
    kernels of the Fraction powers, the map by solve_induced_matrix and
    its polynomial by Faddeev-LeVerrier."""
    big = fraction_kernel(fraction_power(n_mat, k + 1))
    small = fraction_kernel(fraction_power(n_mat, k))
    return faddeev_leverrier_char_poly(solve_induced_matrix(phi, big, small, big, small))


def _unequal_strings(op):
    """Whether N's strings have more than one length: the drops
    rank N^k - rank N^(k+1) are not all equal."""
    ranks = op.ranks
    return len({a - b for a, b in zip(ranks, ranks[1:])}) > 1


class TestGradedPieces:
    """FrobeniusData's characteristic polynomial from the pieces
    ker N^(k+1) / ker N^k of a q-commuting N, against Berkowitz on Phi,
    Faddeev-LeVerrier, and the Fraction maps on the pieces."""

    def test_pieces_match_the_oracles(self):
        rng = random.Random(401)
        seen = set()
        for kind, n_mat, phi, q in _commuting_pairs(rng, 8):
            op = NilpotentOperator(n_mat)
            f = FrobeniusData(phi, q, op)
            assert f.char_poly == char_poly(phi) == faddeev_leverrier_char_poly(phi), kind
            assert len(f.pieces) == op.nilpotency_index
            for k, piece in enumerate(f.pieces):
                assert piece.degree == op.ranks[k] - op.ranks[k + 1]
                assert piece == _piece_oracle(n_mat, phi, k), (kind, n_mat, phi, k)
            seen.add((kind, n_mat.is_integral(), _unequal_strings(op)))
        kinds = {kind for kind, _, _ in seen}
        assert kinds == {"empty", "one", "zero", "unimodular", "integer", "rational", "strings"}
        assert ("unimodular", True, True) in seen and ("strings", False, True) in seen
        assert ("rational", False, True) in seen

    def test_reports_match_those_without_pieces(self):
        # the report from a record with pieces and from FrobeniusData(phi, q),
        # which has none, each against the full comparison: for the N the
        # record was built with, for another commuting N, and for one that
        # does not commute
        rng = random.Random(409)
        for kind, n_mat, phi, q in _commuting_pairs(rng, 4):
            op = NilpotentOperator(n_mat)
            f, plain = FrobeniusData(phi, q, op), FrobeniusData(phi, q)
            d = phi.rows
            others = [op, NilpotentOperator(n_mat), NilpotentOperator(Matrix.zero(d, d))]
            if d > 1:
                others.append(NilpotentOperator(jordan_matrix([d])))
            for other in others:
                for i in range(-1, 5):
                    expected = _full_comparison(other, plain, i)
                    for record in (f, plain):
                        report = check_wmc(other, record, i)
                        if expected is None:
                            assert any(v["kind"] == "not_pure" for v in report.violations)
                        else:
                            assert report == expected, (kind, other.n_matrix, phi, i)

    def test_commutation_matches_the_fraction_products(self):
        # row by row on the integers, with the first differing row ending it:
        # commuting pairs, and ones changed in one entry of N or Phi
        rng = random.Random(439)
        outcomes = set()
        for _, n_mat, phi, q in _commuting_pairs(rng, 6):
            d = phi.rows
            pairs = [(n_mat, phi, q), (n_mat, phi, q + 1)]
            if d:
                r, c = rng.randrange(d), rng.randrange(d)
                bump = Matrix([[F(int((i, j) == (r, c)), 7) for j in range(d)] for i in range(d)])
                pairs += [(n_mat + bump, phi, q), (n_mat, phi + bump, q)]
            for a, b, qq in pairs:
                expected = fraction_product(a, b) == fraction_product(b, a).scale(qq)
                assert monodromy._q_commutes(a, b, qq) == expected, (a, b, qq)
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_impure_pieces_give_the_whole_polynomials_error(self):
        # x - 3 and x - 15 on the pieces, and (x - 3)(x - 15) for the whole: the
        # not_pure text names the factor that weighing the whole names
        rng = random.Random(419)
        cases = [(NilpotentOperator(jordan_matrix([2])), Matrix.diagonal([3, 15]), 5)]
        for _ in range(6):
            n_mat, _ = _tate_strings(rng, 2, [1, 3])
            p = random_invertible(rng, 4)
            block = Matrix.diagonal([3, 7, 14, 28])  # impure on every piece for q = 2
            cases.append((NilpotentOperator(jordan_matrix([1, 3])), block, 2))
            cases.append((NilpotentOperator(p * jordan_matrix([1, 3]) * p.inverse()),
                          p * block * p.inverse(), 2))  # fmt: skip
        for op, phi, q in cases:
            f = FrobeniusData(phi, q, op)
            assert f.pieces is not None
            report = check_wmc(op, f, 1)
            assert report == check_wmc(op, FrobeniusData(phi, q), 1)
            assert report.violations[0]["kind"] == "not_pure"

    def test_an_impure_phi_is_factored_once_per_use(self, monkeypatch):
        # N = 0: the one piece, all of Phi, is split by weight and not
        # factored; the full path factors the whole characteristic
        # polynomial for the weight filtration and the map on gr_0 once each
        op = NilpotentOperator(Matrix.zero(2, 2))
        phi = Matrix([[0, -5], [1, 7]])
        calls, factor = [], monodromy.factor_rational
        monkeypatch.setattr(monodromy, "factor_rational", lambda p: calls.append(p) or factor(p))
        report = check_wmc(op, FrobeniusData(phi, 5, op), 1)
        assert calls == [char_poly(phi)] * 2
        detail = (
            "RatPoly(x^2 - 7*x + 5) is not weight-pure for q=5: "
            "a root has squared modulus other than q^1"
        )
        assert report == WmcReport(
            True,
            False,
            {},
            [
                {"kind": "not_pure", "detail": detail},
                {"kind": "graded_not_pure", "index": 0, "detail": detail},
            ],
        )

    def test_recombination_limit_gives_the_same_report(self, monkeypatch):
        # each piece is a Swinnerton-Dyer block, 8 modular factors that take
        # 162 trials, and the whole polynomial has 16: factored alone, a piece
        # stops at the limit 161 and is found impure at 162, but check_wmc
        # factors no piece, and the whole polynomial stops at the limit, as
        # without pieces
        sd4 = swinnerton_dyer([2, 3, 5, 7])
        n = sd4.degree
        c = [[int(i == j + 1) for j in range(n - 1)] + [-sd4._num[i]] for i in range(n)]
        zero = [0] * n
        phi = [row + zero for row in c] + [zero + [5 * x for x in row] for row in c]
        shift = [zero + [int(i == j) for j in range(n)] for i in range(n)] + [zero + zero] * n
        job = cli.JobSpec("wmc-check", {"n": shift, "phi": phi, "q": 5, "i": 0})
        pieces = FrobeniusData(Matrix(phi), 5, NilpotentOperator(Matrix(shift))).pieces
        for limit, piece_error in ((161, polyfactor.RecombinationLimitError), (162, NotPureError)):
            monkeypatch.setattr(polyfactor, "RECOMBINATION_LIMIT", limit)
            with pytest.raises(piece_error):
                _weigh(pieces[0], 5)
            report = cli.run(job).to_dict()
            assert report["status"] == "error"
            assert report["diagnostics"] == [
                "field 'phi': recombining 16 modular factors of a degree-32 factor of the "
                f"characteristic polynomial needs more than {limit} trials, the recombination limit"
            ]
            monkeypatch.undo()

    def test_the_filtration_reads_kernels_off_the_row_spaces(self, monkeypatch):
        # one elimination per piece of the filtration, the span, and none for
        # the kernels of the powers of N
        rng = random.Random(421)
        for _, n_mat, _, _ in _commuting_pairs(rng, 3):
            op = NilpotentOperator(n_mat)
            calls = []
            echelon = ratlin._echelon
            monkeypatch.setattr(ratlin, "_echelon", lambda rows: calls.append(1) or echelon(rows))
            fil = monodromy_filtration(op)
            monkeypatch.undo()
            assert len(calls) == max(2 * op.nilpotency_index - 2, 0)
            closed = closed_formula_pieces(n_mat)
            assert fil.pieces == tuple(closed[j] for j in range(fil.lo, fil.hi + 1))

    def test_zero_n_takes_phi_itself(self, monkeypatch):
        # with N = 0 the one piece is Q^d, and its matrix is Phi, not Phi I
        rng = random.Random(431)
        d = 64
        phi = Matrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        op = NilpotentOperator(Matrix.zero(d, d))
        seen, products = [], []
        original, product = monodromy.char_poly, monodromy._int_product
        monkeypatch.setattr(monodromy, "char_poly", lambda m: seen.append(m) or original(m))
        monkeypatch.setattr(monodromy, "_int_product", lambda *a: products.append(1) or product(*a))
        f = FrobeniusData(phi, 5, op)
        assert len(seen) == 1 and seen[0] is phi and products == []
        assert f.pieces == (f.char_poly,) and f.char_poly._num[0]

    def test_row_spaces_of_a_64_jordan_block_stay_small(self):
        # the row spaces of N^0, ..., N^64 hold 64 * 65 / 2 rows of 64 entries:
        # about 1.1 MB of references at 8 bytes each, whatever the integers
        workloads = load_workloads()
        d = 64
        p, p_inv = workloads.conjugator(random.Random(433), d)
        n_mat = Matrix(workloads._conjugate(jordan_matrix([d])._num, p, p_inv))
        tracemalloc.start()
        try:
            op = NilpotentOperator(n_mat)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.ranks == tuple(range(d, -1, -1))
        assert held < 2_000_000, held


def _needs_swaps(rng, n):
    """Nonsingular n x n matrix whose rows arrive in a shuffled order, with
    a zero at the top of the first column so elimination must swap."""
    rows = [list(r) for r in random_invertible(rng, n).row_tuples]
    rng.shuffle(rows)
    if n > 1:
        rows[0][0] = F(0)
    return Matrix(rows, cols=n)


def _square_cases(rng, count, max_n=6):
    """Seeded square matrices: shuffled and swap-forcing ones, singular ones
    (a repeated row, a zero column) and products of lower rank."""
    cases = [Matrix([], cols=0)]
    for _ in range(count):
        n = rng.randint(1, max_n)
        kind = rng.randrange(4)
        if kind == 0:
            cases.append(_needs_swaps(rng, n))
        elif kind == 1:
            cases.append(random_matrix(rng, n, n))
        elif kind == 2:
            cases.append(_low_rank(rng, n, n))
        else:
            rows = [list(r) for r in random_matrix(rng, n, n).row_tuples]
            if n > 1 and rng.random() < 0.5:
                rows[-1] = list(rows[0])
            else:
                c = rng.randrange(n)
                for r in rows:
                    r[c] = F(0)
            cases.append(Matrix(rows, cols=n))
    return cases


def _permutation_sign(perm):
    return (-1) ** sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])


class TestReplacedPaths:
    def test_det_matches_gaussian_elimination(self):
        rng = random.Random(127)
        signs = set()
        swapped = 0
        for m in _square_cases(rng, 200):
            got = m.det()
            assert got == gaussian_det(m), m
            signs.add((got > 0) - (got < 0))
            swapped += m.rows > 1 and m[0, 0] == 0 and got != 0
        assert Matrix([], cols=0).det() == 1
        assert signs == {-1, 0, 1}
        assert swapped > 20

    def test_det_of_permutation_matrices(self):
        for n in range(1, 6):
            for perm in itertools.permutations(range(n)):
                m = Matrix([[int(perm[i] == j) for j in range(n)] for i in range(n)], cols=n)
                assert m.det() == _permutation_sign(perm), perm

    def test_exact_q_power_matches_recursion(self):
        seen = set()
        for q in (2, 3, 5, 4, 6):
            for m in range(-5, 6):
                power = F(q) ** m
                got = _exact_q_power(power.numerator, power.denominator, q)
                assert got == exact_q_power_recursive(power, q) == m
                # near misses: off by one, a stray factor, a smaller prime power of q
                misses = [power + 1, power - 1, -power, power * F(2, 3), power * F(3, 2),
                          power * 2, power / 2, F(2) ** m, F(0)]
                for r in misses:
                    got = _exact_q_power(r.numerator, r.denominator, q)
                    assert got == exact_q_power_recursive(r, q), (r, q)
                    seen.add(got is None)
                    # the same ratio not in lowest terms
                    for t in (q, 6, 10**20):
                        assert _exact_q_power(r.numerator * t, r.denominator * t, q) == got, (r, t)
        # exponents in the thousands, and their near misses q^k +- 1
        for q, k in ((2, 4099), (5, 4001), (6, 1500), (7, 2048)):
            for m in (k, -k):
                power = F(q) ** m
                a, b = power.numerator, power.denominator
                assert _exact_q_power(a, b, q) == m
                assert _exact_q_power(a * 3, b * 3, q) == m
                for r in (power + 1, power - 1, 1 / (1 / power + 1), 1 / (1 / power - 1)):
                    assert _exact_q_power(r.numerator, r.denominator, q) is None, (q, m)
                    assert exact_q_power_recursive(r, q) is None
        assert _exact_q_power(2, 1, 4) is None and _exact_q_power(1, 8, 4) is None
        assert _exact_q_power(1, 36, 6) == -2 and _exact_q_power(4, 9, 6) is None
        assert _exact_q_power(12, 2, 6) == 1 and _exact_q_power(8, 12, 6) is None
        assert seen == {False, True}

    def test_max_dividing_width_matches_fold(self):
        rng = random.Random(131)
        for _ in range(150):
            lat = random_lattice(rng, rng.randint(1, 5))
            entries = [x for row in lat.generators.row_tuples for x in row]
            assert max_dividing_width(lat).alpha == rational_gcd_fold(entries), lat


def _big(rng, digits=100):
    return rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits)


def _integer_core_cases(rng):
    """Matrices for the integer core: empty shapes (0x0, 0xn, nx0), every
    permutation matrix up to 5x5, and seeded ones with mixed row
    denominators and zero rows or columns, swap-forcing, rank-deficient,
    and with 100-digit integer and rational entries."""
    cases = [Matrix([], cols=0), Matrix([], cols=3), Matrix.zero(3, 0), Matrix.zero(2, 4)]
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            cases.append(Matrix([[int(perm[i] == j) for j in range(n)] for i in range(n)]))
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        grid = [[F(rng.randint(-9, 9), den) for _ in range(cols)]
                for den in rng.choices((1, 2, 3, 5, 7, 12), k=rows)]
        if rows > 1:
            grid[rng.randrange(rows)] = [F(0)] * cols
        c = rng.randrange(cols)
        for row in grid:
            row[c] = F(0)
        cases.append(Matrix(grid))
        n = rng.randint(1, 6)
        cases.append(_needs_swaps(rng, n))
        cases.append(_low_rank(rng, rows, cols))
        cases.append(Matrix([[_big(rng) for _ in range(n)] for _ in range(n)]))
        cases.append(Matrix([[F(_big(rng), abs(_big(rng))) for _ in range(cols)] for _ in range(rows)]))
        big = [[_big(rng) for _ in range(cols)] for _ in range(rows)]
        if rows > 2:
            big[-1] = [a + 3 * b for a, b in zip(big[0], big[1])]
        cases.append(Matrix(big))
    return cases


class TestIntegerCore:
    """The fraction-free elimination and the integer products against the
    Fraction loops they replaced (tests/oracles.py)."""

    def test_rref_rank_and_kernel(self):
        rng = random.Random(193)
        deficient = 0
        for m in _integer_core_cases(rng):
            expected_rows, expected_pivots = fraction_rref([list(r) for r in m.row_tuples])
            rows, pivots = _rref(m.row_tuples)
            assert (rows, pivots) == ([tuple(r) for r in expected_rows], expected_pivots), m
            assert m.rank() == len(expected_pivots), m
            assert kernel(m) == fraction_kernel(m), m
            deficient += 0 < len(pivots) < min(m.rows, m.cols)
        assert deficient > 30

    def test_det_and_inverse(self):
        rng = random.Random(197)
        signs, singular = set(), 0
        for m in _integer_core_cases(rng):
            if not m.is_square():
                continue
            got = m.det()
            assert got == fraction_det(m), m
            signs.add((got > 0) - (got < 0))
            expected = fraction_inverse(m)
            if expected is None:
                singular += 1
                with pytest.raises(ValueError):
                    m.inverse()
            else:
                assert m.inverse() == expected, m
        assert signs == {-1, 0, 1} and singular > 10

    def test_products_and_apply(self):
        rng = random.Random(199)
        cases = _integer_core_cases(rng)
        for a in cases:
            vec = Matrix.from_columns([[F(_big(rng, 30), rng.randint(1, 9)) for _ in range(a.cols)]], a.cols)
            assert a * vec == fraction_product(a, vec), (a, vec)
            for cols in (0, 1, rng.randint(2, 6)):
                b = rng.choice([m for m in cases if m.rows == a.cols and m.cols == cols]
                               or [Matrix([[random_fraction(rng) for _ in range(cols)]
                                           for _ in range(a.cols)], cols=cols)])
                assert a * b == fraction_product(a, b), (a, b)

    def test_eval_matrix_on_rational_and_big_entries(self):
        rng = random.Random(211)
        for _ in range(40):
            n = rng.randint(0, 4)
            mixed = Matrix([[F(rng.randint(-9, 9), den) for _ in range(n)]
                            for den in rng.choices((1, 2, 3, 5), k=n)], cols=n)
            big = Matrix([[F(_big(rng, 40), rng.randint(1, 50)) for _ in range(n)]
                          for _ in range(n)], cols=n)
            degree = rng.randint(0, 12)
            p = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)]
                        + [F(rng.randint(1, 5), rng.randint(1, 5))])
            for m in (mixed, big):
                assert p.eval_matrix(m) == horner_eval_matrix(p, m), (p, m)


def _poly_factor(rng, big):
    """A seeded polynomial of degree 1 to 3 whose leading coefficient is
    rarely 1: small rational coefficients, or 100-digit ones over
    denominators up to 41 digits."""
    degree = rng.randint(1, 3)
    if big:
        dens = (1, 1, 3, 10**40 + 1)
        return RatPoly([F(_big(rng), rng.choice(dens)) for _ in range(degree + 1)])
    lead = F(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))
    return RatPoly([random_fraction(rng) for _ in range(degree)] + [lead])


def _polynomial_cases(rng):
    """Zero, constants, and seeded products of _poly_factor powers, times a
    rational constant: up to three factors, cubes at most, or every other
    time up to two 100-digit factors, squares at most."""
    cases = [RatPoly([]), RatPoly([1]), RatPoly([F(-3, 7)]), RatPoly([_big(rng)])]
    for k in range(60):
        p = RatPoly([F(rng.choice((-5, -1, 1, 2, 7)), rng.randint(1, 3))])
        for _ in range(rng.randint(1, 3 - k % 2)):
            p = p * _poly_factor(rng, big=k % 2 == 1) ** rng.randint(1, 3 - k % 2)
        cases.append(p)
    return cases


def _sturm_case(rng, qj):
    """A seeded polynomial, up to squares of its factors, with rational
    roots exactly at 0 and at 4qj, inside, just outside (1/10^30 away) and
    well outside [0, 4qj], and quadratic factors with complex roots or
    with irrational real roots around 2qj."""
    hi = 4 * qj
    f = RatPoly([F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))])
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(7)
        if kind == 5:
            c = F(rng.randint(1, 9), rng.randint(1, 3))
            factor = RatPoly([c, F(rng.randint(-2, 2)), 1])  # complex roots when c > b^2/4
        elif kind == 6:
            c = qj * qj * F(rng.choice((2, 3, 5, 7, 17)), rng.choice((2, 3, 5, 7, 17)) ** 2)
            factor = RatPoly([qj * qj * 4 - c, -4 * qj, 1])  # 2qj +- sqrt(c)
        else:
            root = (F(0), hi, hi * F(rng.randint(1, 99), 100), hi + F(1, 10**30), F(-1, 10**30),
                    hi + F(rng.randint(1, 50), rng.randint(1, 7)))[kind]
            factor = RatPoly([-root, 1])
        f = f * factor ** rng.randint(1, 2)
    return f


def _monic_gcd(a, b):
    """The primitive integer gcd of two polynomials' numerators, made monic."""
    g = _int_gcd(a._num, b._num)
    return RatPoly._over(g, g[-1]) if g else RatPoly([])


def _scaled_roots(f, k):
    """The integer coefficients of a positive multiple of f(x / k), whose
    roots are f's times k: the numerators of f times k^(n - i), n = deg f."""
    n = f.degree
    return [x * k ** (n - i) for i, x in enumerate(f._num)]


def _integer_target(q, j):
    """(q^j, c, k) for c = q^|j| and k = c^2 if j < 0 else 1: with the roots
    times k, the interval [0, 4q^j] of the Sturm count becomes [0, 4c]."""
    c = q ** abs(j)
    return F(q) ** j, c, c * c if j < 0 else 1


class TestIntegerPolynomials:
    """The integer gcd, Yun loop and Sturm count against the Fraction
    versions they replaced (tests/oracles.py)."""

    def test_gcd_matches_euclid_over_q(self):
        rng = random.Random(223)
        cases = _polynomial_cases(rng)
        nontrivial = 0
        small = [p for p in cases[4::2] if p.degree <= 9]
        for a in cases:
            b, common = rng.choice(small), _poly_factor(rng, big=False)
            for x, y in ((a, b), (a * common, b * common), (a, RatPoly([])), (a, a)):
                got = _monic_gcd(x, y)
                assert got == fraction_poly_gcd(x, y) == _monic_gcd(y, x), (x, y)
                nontrivial += 0 < got.degree < min(x.degree, y.degree)
        assert _int_gcd([], []) == []
        assert nontrivial > 30

    def test_squarefree_decomposition_matches_yun_over_q(self):
        rng = random.Random(227)
        multiplicities = set()
        for p in _polynomial_cases(rng)[1:]:
            got = squarefree_decomposition(p)
            assert got == fraction_squarefree_decomposition(p), p
            multiplicities.update(m for _, m in got)
        assert multiplicities == {1, 2, 3}

    def test_sturm_counts_match_the_fraction_sequence(self):
        rng = random.Random(229)
        verdicts, ends = [], set()
        for q in (2, 3, 5):
            for j in (-1, 0, 1, 2):
                qj, c, k = _integer_target(q, j)
                for _ in range(40):
                    f = _sturm_case(rng, qj)
                    expected = fraction_sturm_sequence(f)
                    x_rand = F(rng.randint(-99, 99), rng.randint(1, 9))
                    s = k * x_rand.denominator  # with the roots times s, every point is an int
                    seq = _sturm_sequence(_scaled_roots(f, s))
                    assert len(seq) == len(expected), f
                    for x in (F(0), 4 * qj, -4 * qj, qj, x_rand):
                        got = _sign_changes(seq, int(x * s))
                        assert got == fraction_sign_changes(expected, x), (f, x)
                    got = _roots_in(_scaled_roots(f, k), 0, 4 * c)
                    assert got == fraction_roots_in(f, F(0), 4 * qj), (f, qj)
                    verdicts.append(got)
                    if got:  # a root at an end of the interval counts as inside
                        ends.update(end for end in (0, 4 * qj) if horner(f.coeffs, end) == 0)
        assert verdicts.count(True) > 60 and verdicts.count(False) > 150
        assert 0 in ends and len(ends) > 5

    def test_oracles_reach_no_integer_kernel(self, monkeypatch):
        # the oracles check the Z[x] kernels under _int_gcd, Yun and the
        # Sturm count, so they must not run on those kernels themselves
        rng = random.Random(251)
        polys = _polynomial_cases(rng)[1:24]
        common = _poly_factor(rng, big=False)
        sturm = [(_sturm_case(rng, F(q)), F(q)) for q in (2, 3, 5) for _ in range(4)]

        def oracles():
            return (
                [fraction_poly_gcd(p * common, polys[-1] * common) for p in polys],
                [fraction_squarefree_decomposition(p) for p in polys],
                [fraction_sturm_sequence(f) for f, _ in sturm],
                [fraction_sign_changes(fraction_sturm_sequence(f), qj) for f, qj in sturm],
                [fraction_roots_in(f, F(0), 4 * qj) for f, qj in sturm],
            )

        expected = oracles()

        def refuse(*args):
            raise AssertionError("an oracle reached a Z[x] kernel")

        for module in (ratlin, monodromy, polyfactor):
            for name in ("_int_divmod", "_int_gcd", "_int_prem", "_int_exact_div", "_int_derivative"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert oracles() == expected
        with pytest.raises(AssertionError, match="reached a Z"):
            squarefree_decomposition(polys[-1])  # the patch is live


def _kernels_of_h(phi, q):
    """The weight components as kernels of h_j(Phi), each h_j evaluated by
    Horner's rule at full size."""
    by_weight = factoring_weights(faddeev_leverrier_char_poly(phi), q)
    return {j: kernel(horner_eval_matrix(h, phi)) for j, h in by_weight.items()}


def _block_diagonal(blocks):
    d = sum(b.rows for b in blocks)
    rows = [[F(0)] * d for _ in range(d)]
    pos = 0
    for b in blocks:
        for i, row in enumerate(b.row_tuples):
            rows[pos + i][pos : pos + b.rows] = row
        pos += b.rows
    return Matrix(rows, cols=d)


def _hessenberg_cases(rng):
    """Square matrices for char_poly: 0x0, 1x1 and 2x2, the rows of
    Berkowitz's loop that take no matrix-vector product, integral and
    rational, nilpotent, block upper triangular, and ones whose first column
    makes the Hessenberg reduction of the reference swap rows or skip a zero
    column below the diagonal."""
    cases = [Matrix([], cols=0), Matrix([[F(-7, 3)]]), Matrix([[0]]), Matrix.zero(2, 2),
             Matrix([[0, 1], [0, 0]]), Matrix([[F(1, 2), -3], [F(5, 4), F(-2, 7)]])]
    for _ in range(25):
        n = rng.randint(1, 7)
        cases.append(Matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]))
        cases.append(random_matrix(rng, n, n))
        cases.append(_jordan_sum(rng, [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]))
        top, bottom = rng.randint(1, 3), rng.randint(1, 3)
        rows = [list(r) for r in random_matrix(rng, top + bottom, top + bottom).row_tuples]
        for i in range(top, top + bottom):
            rows[i][:top] = [F(0)] * top
        cases.append(Matrix(rows))
        n = rng.randint(3, 7)
        rows = [list(r) for r in random_matrix(rng, n, n).row_tuples]
        rows[1][0] = F(0)  # below-diagonal pivot must come from a lower row
        rows[rng.randrange(2, n)][0] = F(rng.choice([-2, -1, 1, 3]))
        cases.append(Matrix(rows))
        rows = [list(r) for r in random_matrix(rng, n, n).row_tuples]
        for i in range(1, n):
            rows[i][0] = F(0)  # nothing to reduce in the first column
        cases.append(Matrix(rows))
    return cases


class _MulCounter:
    """Counts the integer matrix products, which Matrix.__mul__ and
    eval_matrix both take."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = ratlin._int_product

        def counting(rows, cols):
            self.calls += 1
            return original(rows, cols)

        monkeypatch.setattr(ratlin, "_int_product", counting)


def _trace_poly(p, qj, m):
    """x^m P(x + q^j/x) for P of degree at most m: the sum of
    p_k (x^2 + q^j)^k x^(m-k)."""
    shift = [qj, 0, 1]
    g, power = [], [1]
    for k, c in enumerate(p.coeffs):
        g = long_sum(g, long_product(power, [0] * (m - k) + [c]))
        power = long_product(power, shift)
    return RatPoly(g)


def _trace_factor(rng, q, j):
    """(g, built_pure): g = x^m P(x + q^j/x), m <= 3, for a seeded monic P,
    built as the sum of p_k (x^2 + q^j)^k x^(m-k).  P has random
    coefficients (mostly impure), or is a product of y - a and y^2 - c with
    a^2, c in [0, 4q^j) (pure), in the impure case times one y - b with
    b^2 > 4q^j."""
    qj = F(q) ** j
    while True:
        m = rng.randint(1, 3)
        kind = rng.randrange(3)
        if kind == 2:
            p = RatPoly([rng.randint(-6, 6) for _ in range(m)] + [1])
        else:
            p = RatPoly.one()
            if kind == 1:
                b = 2 * qj + rng.randint(1, 5)
                p = RatPoly([rng.choice([-b, b]), 1])
            while p.degree < m:
                a = F(rng.randint(-12, 12), rng.randint(1, 3))
                if a * a < 4 * qj:
                    quadratic = p.degree + 2 <= m and rng.random() < 0.4
                    p = p * (RatPoly([-abs(a), 0, 1]) if quadratic else RatPoly([-a, 1]))
        g = _trace_poly(p, qj, m)
        if len(_int_gcd(g._num, _int_derivative(g._num))) == 1:  # simple roots, for the numeric side
            return g, kind == 0


def _reciprocal_poly(rng, q):
    """(g, (deg g mod 2, sign of c0)): a seeded monic g of degree 3 to 8 with
    x^n g(q^j/x) = c0 g(x), c0 = +-q^(jn/2), j even when n is odd.  With
    c0 > 0 and n = 2m, g = x^m P(x + q^j/x) for a P with coefficients
    near the largest a P with every root in [-2 sqrt(q^j), 2 sqrt(q^j)]
    can have, so both verdicts are common; otherwise the upper half of
    the coefficients is random and the lower half follows from it."""
    n = rng.randint(3, 8)
    sign = rng.choice((1, -1))
    j = rng.choice((0, 2) if n % 2 else (-1, 0, 1, 2, 3))
    qj = F(q) ** j
    if n % 2 == 0 and sign == 1:
        m = n // 2
        bound = 2 * math.isqrt(int(4 * qj) + 1)
        p = RatPoly([rng.randint(-c, c) for c in
                     (math.comb(m, k) * bound ** (m - k) // 2 for k in range(m))] + [1])
        return _trace_poly(p, qj, m), (0, 1)
    c0 = sign * qj ** (n // 2) * (F(q) ** (j // 2) if n % 2 else 1)
    coeffs = [c0] + [F(0)] * (n - 1) + [F(1)]
    for i in range(1, (n + 1) // 2):
        coeffs[n - i] = F(rng.randint(-4, 4))
        coeffs[i] = coeffs[n - i] * qj ** (n - i) / c0
    return RatPoly(coeffs), (n % 2, sign)


#: (g, q, j): x^2 - 1/4 at q = 2, x + 1/2 at q = 4, and
#: x^4 - x^3/2 - 3x^2/4 - x/4 + 1/4 at q = 2, which is 2^-4 h(2x) for
#: h = x^2 P(x + 2/x), P = y^2 - y - 7, whose root (1 + sqrt 29)/2 is above 2 sqrt 2
_NEGATIVE_WEIGHT_EDGES = [
    (RatPoly([F(-1, 4), 0, 1]), 2, -2),
    (RatPoly([F(1, 2), 1]), 4, -1),
    (RatPoly([F(1, 4), F(-1, 4), F(-3, 4), F(-1, 2), 1]), 2, -1),
]


def _weight_or_none(weight, g, q):
    try:
        return weight(g, q)
    except NotPureError:
        return None


class TestHessenbergAndPatersonStockmeyer:
    def test_char_poly_matches_faddeev_leverrier(self, monkeypatch):
        rng = random.Random(157)
        cases = _hessenberg_cases(rng)
        firsts = {(m[1, 0] == 0, any(m[i, 0] != 0 for i in range(2, m.rows)))
                  for m in cases if m.rows >= 3}
        assert firsts >= {(True, True), (True, False)}  # a swap, and a zero column
        # mixed row denominators, permutations and 100-digit entries
        cases += [m for m in _integer_core_cases(rng) if m.is_square() and m.rows <= 5]
        expected = [faddeev_leverrier_char_poly(m) for m in cases]
        assert expected == [hessenberg_char_poly(m) for m in cases]
        counter = _MulCounter(monkeypatch)
        for m, cp in zip(cases, expected):
            assert char_poly(m) == cp, m
        assert counter.calls == 0

    def test_eval_matrix_matches_horner(self, monkeypatch):
        rng = random.Random(163)
        products = 0
        for degree in range(-1, 31):
            for m in (Matrix([], cols=0), Matrix([[F(2, 3)]]), random_matrix(rng, 3, 3),
                      _jordan_sum(rng, [2, 2]), random_matrix(rng, 4, 4, num_bound=3)):
                p = RatPoly([random_fraction(rng) for _ in range(degree)] + [rng.randint(1, 3)]
                            if degree >= 0 else [])
                expected = horner_eval_matrix(p, m)
                counter = _MulCounter(monkeypatch)
                assert p.eval_matrix(m) == expected, (p, m)
                monkeypatch.undo()
                assert counter.calls <= 2 * math.isqrt(max(p.degree, 0)) + 2, p
                products = max(products, counter.calls)
        assert products >= 8  # the bound is reached, so the count is live

    def test_exact_purity_matches_numeric(self):
        # the edges of the j < 0 scaling: real pure roots +-1/2, a rational
        # root -sqrt(q^j), and a reciprocal quartic that only the Sturm count
        # rejects; weil_weight and _exactly_pure both meet the numeric check
        for g, q, j in _NEGATIVE_WEIGHT_EDGES:
            c = q**-j
            numeric = _weight_or_none(numeric_weil_weight, g, q)
            assert _weight_or_none(weil_weight, g, q) == numeric, g
            assert _exactly_pure(_scaled_roots(g, c), c) == (numeric == j), g
        assert [_exactly_pure(_scaled_roots(g, q**-j), q**-j)
                for g, q, j in _NEGATIVE_WEIGHT_EDGES] == [True, True, False]
        rng = random.Random(167)
        verdicts = []
        for q in (2, 3, 5):
            for _ in range(135):
                j = rng.choice([-1, 0, 1, 1, 2, 2, 3])
                g, built_pure = _trace_factor(rng, q, j)
                c = q ** abs(j)
                exact = _exactly_pure(_scaled_roots(g, c if j < 0 else 1), c)
                assert exact or not built_pure, g  # a pure construction is decided pure
                assert exact == (_weight_or_none(numeric_weil_weight, g, q) == j), (g, q, j)
                verdicts.append(exact)
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100

    def test_exact_purity_is_complete(self):
        # weil_weight and the numeric check agree on every irreducible factor
        # of seeded reciprocal polynomials, those that fail the constant-term
        # or reciprocity condition and those decided by _exactly_pure alone
        rng = random.Random(191)
        shapes, decided = set(), {}
        for q in (2, 3, 5):
            for _ in range(100):
                g, shape = _reciprocal_poly(rng, q)
                shapes.add(shape)
                for f, _ in factor_rational(g):
                    try:
                        exact = weil_weight(f, q)
                    except NotPureError as err:
                        exact = None
                        if not err.reason.startswith("a root has squared modulus"):
                            assert _weight_or_none(numeric_weil_weight, f, q) is None, f
                            continue
                    assert exact == _weight_or_none(numeric_weil_weight, f, q), (f, q)
                    key = (f.degree, exact is not None)
                    decided[key] = decided.get(key, 0) + 1
        assert shapes == {(0, 1), (0, -1), (1, 1), (1, -1)}  # (degree mod 2, sign of c0)
        assert sum(decided.values()) > 500
        assert all(decided.get((d, v), 0) >= 10 for d in (2, 4, 6) for v in (True, False))

    def test_weight_components_are_kernels_of_h(self):
        rng = random.Random(173)
        singles = 0
        for k in range(40):
            q = rng.choice([2, 3, 5])
            if k % 2:  # one weight: the component is the whole space
                w = rng.randint(0, 3)
                blocks = [weight_block(rng, q, w) for _ in range(rng.randint(1, 3))]
                phi = _block_diagonal(blocks)
                p = random_invertible(rng, phi.rows)
                phi = p * phi * p.inverse()
            else:
                phi = random_wmc_pair(rng, q, max_dim=6)[1]
            expected = _kernels_of_h(phi, q)
            assert weight_decomposition(FrobeniusData(phi, q)).components == expected, phi
            singles += len(expected) == 1
        assert 20 <= singles < 40

    def test_weight_components_of_deep_defective_and_rational_splits(self):
        # 3 to 5 weights on up to Q^12, so the split recurses twice; half the
        # blocks are Jordan blocks [[B, I], [0, B]], whose component is a
        # generalized eigenspace; conjugators with fractional entries put
        # denominators into every restriction of Phi
        rng = random.Random(211)
        defective = 0
        for _ in range(12):
            q = rng.choice([2, 3, 5])
            while True:
                blocks, jordan = [], 0
                for w in rng.sample(range(-1, 6), rng.randint(3, 5)):
                    b = weight_block(rng, q, w)
                    if rng.random() < 0.5:
                        jordan += 1
                        ident = Matrix.identity(b.rows).row_tuples
                        b = Matrix([[*r, *i] for r, i in zip(b.row_tuples, ident)]
                                   + [[0] * b.rows + list(r) for r in b.row_tuples])
                    blocks.append(b)
                if sum(b.rows for b in blocks) <= 12:
                    defective += jordan
                    break
            phi = _block_diagonal(blocks)
            while (p := random_matrix(rng, phi.rows, phi.rows)).det() == 0:
                pass
            phi = p * phi * p.inverse()
            assert not phi.is_integral()
            expected = _kernels_of_h(phi, q)
            assert 3 <= len(expected) <= 5
            assert weight_decomposition(FrobeniusData(phi, q)).components == expected, phi
        assert defective >= 12


def _no_factoring(p):
    raise AssertionError(f"factor_rational reached on {p!r}")


def _scaled_cyclotomic(m, w, q):
    """Phi_m with its roots times q^(w/2), for even w: pure of weight w."""
    c = load_workloads()._cyclotomic(m)
    n = len(c) - 1
    return RatPoly([ck * F(q) ** (w // 2 * (n - k)) for k, ck in enumerate(c)])


def _weil_quadratic(rng, q, w):
    """x^2 - a x + q^w with a^2 < 4 q^w, a rational: pure of weight w."""
    while True:
        a = F(rng.randint(-12, 12), rng.randint(1, 3))
        if a * a < 4 * F(q) ** w:
            return RatPoly([F(q) ** w, -a, 1])


def _pure_char_polys(rng):
    """(cp, q) with cp pure at every root: products of weight blocks at
    weights -3..5 and of scaled cyclotomics (Phi_1 and Phi_2 give the real
    roots +-q^k) and Weil quadratics with rational traces, each to a power
    up to 3, characteristic polynomials of random_wmc_pair, and the real
    roots 1 and 25 of (x - 1)(x - 25) at q = 5."""
    yield RatPoly([25, -26, 1]), 5
    for k in range(240):
        q = rng.choice([2, 3, 5, 7])
        if k % 3 == 0:
            yield char_poly(random_wmc_pair(rng, q, max_dim=rng.randint(1, 8))[1]), q
            continue
        cp = RatPoly.one()
        for _ in range(rng.randint(1, 4)):
            w = rng.randint(-3, 5)
            if k % 3 == 1:
                factor = char_poly(weight_block(rng, q, w))
            elif w % 2 == 0:
                factor = _scaled_cyclotomic(rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12]), w, q)
            else:
                factor = _weil_quadratic(rng, q, w)
            cp = cp * factor ** rng.choice([1, 1, 2, 3])
        yield cp, q


def _weights(cp, q):
    try:
        return factoring_weights(cp, q)
    except NotPureError as err:
        return str(err)


class TestWeightsWithoutFactoring:
    def test_split_matches_factoring(self, monkeypatch):
        rng = random.Random(229)
        cases = [(cp, q, factoring_weights(cp, q)) for cp, q in _pure_char_polys(rng)]
        monkeypatch.setattr(monodromy, "factor_rational", _no_factoring)
        for cp, q, want in cases:
            assert _weigh(cp, q) == want, (cp, q)
        # every kind is drawn: several weights, repeated roots, negative
        # weights, the real roots +-q^k, rational coefficients, q = 2
        assert sum(len(want) >= 3 for _, _, want in cases) > 30
        assert sum(len(_int_gcd(cp._num, _int_derivative(cp._num))) > 1 for cp, _, _ in cases) > 30
        assert sum(min(want) < 0 for _, _, want in cases) > 30
        assert sum(any(horner(h.coeffs, r) == 0 for j, h in want.items() if j % 2 == 0
                       for r in (F(q) ** (j // 2), -F(q) ** (j // 2)))
                   for _, q, want in cases) > 30
        assert sum(cp._den > 1 for cp, _, _ in cases) > 30
        assert sum(q == 2 for _, q, _ in cases) > 30

    def test_impure_input_falls_back(self, monkeypatch):
        # x^2 - 7x + 5 has roots of product 5 and squared moduli about 38 and
        # 0.7, so the gcd at weight 1 is the whole polynomial and only the
        # purity check turns it down; times pure factors of higher weight,
        # the split takes those out first and factoring sees x^2 - 7x + 5
        # alone: the real root 25 in phase (a), Phi_35 with its roots times
        # 5 (weight 2) and a quadratic of weight 4001 in phase (b).  Random
        # monic rationals are mostly impure, and every other one is times
        # pure factors that the split may take out before it meets the
        # impure rest
        rng = random.Random(233)
        impure = RatPoly([5, -7, 1])
        peeled = [impure * RatPoly([-25, 1]), impure * _scaled_cyclotomic(35, 2, 5),
                  impure * RatPoly([5**4001, -1, 1]) * RatPoly([-25, 1]) ** 2]
        cases = [(impure, 5), *((cp, 5) for cp in peeled)]
        for k in range(300):
            q = rng.choice([2, 3, 5])
            cp = RatPoly([F(rng.randint(-30, 30), rng.randint(1, 2))
                          for _ in range(rng.randint(1, 5))] + [1])
            if k % 2:
                cp = cp * RatPoly([-(q**2), 1]) * _weil_quadratic(rng, q, 3)
            if cp._num[0]:
                cases.append((cp, q))
        factored = []
        original = monodromy.factor_rational

        def spy(p):
            factored.append(p)
            return original(p)

        monkeypatch.setattr(monodromy, "factor_rational", spy)
        impure_count = lower = 0
        for cp, q in cases:
            want = _weights(cp, q)
            del factored[:]
            try:
                got = _weigh(cp, q)
            except NotPureError as err:
                got = str(err)
            assert got == want, (cp, q)
            # factoring is reached exactly when the split leaves a rest, and
            # only on that rest
            _, rest = _split_weights(list(cp._num), q)
            assert factored == ([RatPoly._over(rest, rest[-1])] if len(rest) > 1 else []), (cp, q)
            assert cp not in peeled or factored == [impure], cp
            if isinstance(want, str):
                impure_count += 1
                lower += factored[0].degree < cp.degree
        assert _weights(*cases[0]) == (
            "RatPoly(x^2 - 7*x + 5) is not weight-pure for q=5: "
            "a root has squared modulus other than q^1"
        )
        assert impure_count > 200 and len(cases) - impure_count >= 5
        assert lower > 100

    def test_pure_factors_of_the_rest_are_placed(self, monkeypatch):
        # _weigh places each pure irreducible factor of the rest at its
        # weight, g**mult into h_j: at q = (2^61 - 1)(2^127 - 1), which both
        # _SPLIT_PRIMES divide, the split returns at once and factoring
        # places all of diag(1, q, q);
        # before x^2 - 7x + 5 the rest's first factor x^2 + x + 1 goes to
        # weight 0, and then the impure one raises
        placed = []
        original = RatPoly.__pow__
        monkeypatch.setattr(RatPoly, "__pow__", lambda g, k: placed.append((g, k)) or original(g, k))
        q = (2**61 - 1) * (2**127 - 1)
        cp = char_poly(Matrix.diagonal([1, q, q]))
        assert _split_weights(list(cp._num), q) == ({}, list(cp._num))
        want = factoring_weights(cp, q)
        del placed[:]
        assert _weigh(cp, q) == want == {0: RatPoly([-1, 1]), 2: RatPoly([q * q, -2 * q, 1])}
        assert placed == [(RatPoly([-q, 1]), 2), (RatPoly([-1, 1]), 1)]  # factor_rational's order
        phi = [[1, 0, 0], [0, q, 0], [0, 0, q]]
        report = cli.run(cli.JobSpec("weight-filtration", {"phi": phi, "q": q})).to_dict()
        assert report["status"] == "pass"
        assert {w: c["dim"] for w, c in report["payload"]["weights"].items()} == {"0": 1, "2": 2}

        cp = RatPoly([1, 1, 1]) * RatPoly([5, -7, 1])
        assert _split_weights(list(cp._num), 5) == ({}, list(cp._num))
        detail = _weights(cp, 5)
        assert detail == (
            "RatPoly(x^2 - 7*x + 5) is not weight-pure for q=5: "
            "a root has squared modulus other than q^1"
        )
        del placed[:]
        with pytest.raises(NotPureError) as err:
            _weigh(cp, 5)
        assert str(err.value) == detail
        assert placed == [(RatPoly([1, 1, 1]), 1)]

    def test_part_that_does_not_divide_raises(self, monkeypatch):
        # a part is a primitive divisor of f, so by Gauss' lemma it divides
        # f exactly; a part that does not, here x^2 - x + 5 in place of the
        # gcd x^2 + x + 5 at weight 1, breaks the split, not hands back a rest
        calls = []

        def gcd(a, b):
            calls.append(1)
            return [5, -1, 1] if len(calls) == 1 else _int_gcd(a, b)

        monkeypatch.setattr(monodromy, "_int_gcd", gcd)
        with pytest.raises(ArithmeticError, match="non-integral quotient"):
            _split_weights([5, 1, 1], 5)
        assert len(calls) > 1  # the purity test on the part ran first

    @pytest.mark.parametrize("factors, weights", [
        ([[-1, 1], [-(5**4000), 1]], [0, 8000]),
        ([[-1, 1], [5**4001, -1, 1]], [0, 4001]),
        ([[5, -1, 1], [5**4001, -1, 1]], [1, 4001]),
    ], ids=["x-1,x-5^4000", "x-1,x^2-x+5^4001", "x^2-x+5,x^2-x+5^4001"])
    def test_wide_weight_ranges(self, monkeypatch, factors, weights):
        # phase (b)'s gcds are bounded by the number of weights, not by the
        # weight range: after each part the bound is taken again
        cp = RatPoly(factors[0]) * RatPoly(factors[1])
        want = factoring_weights(cp, 5)
        assert sorted(want) == weights
        steps = []
        monkeypatch.setattr(monodromy, "factor_rational", _no_factoring)
        monkeypatch.setattr(monodromy, "_mx_gcd",
                            lambda *a: steps.append(1) or _mx_gcd(*a))  # fmt: skip
        assert _weigh(cp, 5) == want
        assert len(steps) <= len(want) * (2 + math.log(4 * cp.degree**2, 5))

    def test_benchmark_jobs_never_factor_when_pure(self, monkeypatch):
        # every pure seed-0 job of the two monodromy workloads gives the same
        # report with factoring made to fail; the two impure ones factor
        workloads = load_workloads()
        jobs = [job for name in ("weights_mix", "wmc_tate") for job in workloads.generate(name, 0)]
        reports = [cli.render_json(cli.run(cli.JobSpec(job.command, job.payload))) for job in jobs]
        monkeypatch.setattr(monodromy, "factor_rational", _no_factoring)
        impure = 0
        for job, report in zip(jobs, reports):
            spec = cli.JobSpec(job.command, job.payload)
            if job.rung == "impure":
                impure += 1
                with pytest.raises(AssertionError, match="factor_rational reached"):
                    cli.run(spec)
                continue
            got = cli.run(spec)
            assert job.oracle(got.to_dict()) is None
            assert cli.render_json(got) == report
        assert impure == 2


def _witness_cases(rng, count):
    """(variant, bundle, section) on seeded rank-1 bundles: each canonical
    witness, the same with a base value whose denominator is coprime to
    alpha's, and with one slope, the slope increment, the value increment
    or the number of cells perturbed."""
    cases = []
    for _ in range(count):
        sign = rng.choice((1, -1))
        k = rng.choice((1, 1, 2, 3, 5, 8, 13))
        alpha = F(rng.randint(1, 6), rng.choice((1, 2, 3, 4, 9)))
        lattice = TropicalLattice(Matrix([[sign * alpha * k]]))
        b = BundleData(lattice, Matrix([[rng.randint(-3, 3)]]), [alpha * rng.randint(-9, 9)])
        f = construct_f(b, CellWidth(alpha))
        p = next(p for p in (5, 7, 11, 13) if f.alpha.denominator % p)
        slopes = list(f.slopes)
        slopes[rng.randrange(k)] += rng.choice((1, -1))
        cases += [
            ("canonical", b, f),
            ("base_value", b, _perturbed(f, base_value=F(rng.randint(1, p - 1), p) - 3)),
            ("slope", b, _perturbed(f, slopes=tuple(slopes))),
            ("slope_increment", b, _perturbed(f, slope_increment=f.slope_increment - 1)),
            ("value_increment", b, _perturbed(f, value_increment=f.value_increment + F(1, 3))),
            ("period", b, _perturbed(f, slopes=f.slopes + (0,))),
        ]
    return cases


def _perturbed(f, **changes):
    """f with some fields changed, built by the constructor, so that the
    perturbed witness passes TropicalSection's checks as parsed input does
    (NamedTuple._replace would skip them)."""
    return TropicalSection(**{**f._asdict(), **changes})


def _face_fields(report) -> list[tuple]:
    """Every field of every face, read through the properties, so that the
    comparison covers the values they build as well as the stored integers."""
    return [
        (f.position, f.left_slope, f.right_slope, f.slope_difference)
        + (f.left_value, f.right_value, f.continuous)
        for f in report.faces
    ]


class TestLinearWitnessCheck:
    def test_faces_match_the_corner_value_loop(self):
        seen = set()
        for variant, b, f in _witness_cases(random.Random(191), 40):
            report = verify_section(b, f)
            expected = verify_section_by_corner_value(b, f)
            assert report == expected, (variant, b, f)
            got = (report.ok, report.failures, _face_fields(report))
            assert got == (expected.ok, expected.failures, _face_fields(expected)), (variant, b, f)
            assert report.ok == (variant in ("canonical", "base_value")), (variant, b, f)
            seen.add(variant)
            if b.lattice.generators[0, 0] < 0:
                seen.add("negative generator")
            if f.slope_increment < 0:
                seen.add("negative increment")
            if f.period_cells == 1:
                seen.add("one cell")
        assert seen == {
            "canonical", "base_value", "slope", "slope_increment", "value_increment", "period",
            "negative generator", "negative increment", "one cell",
        }


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy_rational(sympy, x: F):
    return sympy.Rational(x.numerator, x.denominator)


def _to_sympy(sympy, m: Matrix):
    entries = [_to_sympy_rational(sympy, x) for r in m.row_tuples for x in r]
    return sympy.Matrix(m.rows, m.cols, entries)


def _to_sympy_poly(sympy, x, p: RatPoly):
    return sympy.Poly([_to_sympy_rational(sympy, c) for c in reversed(p.coeffs)] or [0], x,
                      domain="QQ")


def _monic(sympy, p):
    """p over QQ, divided by its leading coefficient (the zero polynomial stays)."""
    p = sympy.Poly(p, domain="QQ")
    return p.monic() if not p.is_zero else p


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
            reduced, pivots = _rref(m.row_tuples)
            expected, expected_pivots = _to_sympy(sympy, m).rref()
            assert _to_sympy(sympy, Matrix(reduced, cols=m.cols)) == expected
            assert pivots == list(expected_pivots)
            assert kernel(m).dim == len(_to_sympy(sympy, m).nullspace())

    def test_intersection_dimension(self, sympy):
        rng = random.Random(113)
        for ambient, u, v in _subspace_pairs(rng, 80):
            got = subspace_intersect(u, v)
            stacked = Matrix(u.basis.row_tuples + v.basis.row_tuples, cols=ambient)
            assert got.dim == u.dim + v.dim - _to_sympy(sympy, stacked).rank()
            if got.dim:
                basis = _to_sympy(sympy, got.basis)
                assert basis.rref()[0] == basis

    def test_det(self, sympy):
        rng = random.Random(137)
        for m in _square_cases(rng, 80):
            if m.rows:
                assert _to_sympy(sympy, m).det() == _to_sympy_rational(sympy, m.det()), m

    def test_char_poly(self, sympy):
        rng = random.Random(139)
        x = sympy.Symbol("x")
        for m in _square_cases(rng, 60):
            if not m.rows:
                continue
            expected = _to_sympy(sympy, m).charpoly(x).all_coeffs()[::-1]
            got = char_poly(m).coeffs
            assert [_to_sympy_rational(sympy, c) for c in got] == expected, m

    def test_factor_rational(self, sympy):
        rng = random.Random(149)
        x = sympy.Symbol("x")
        for _ in range(40):
            p = RatPoly([random_fraction(rng)])
            if p.is_zero():
                p = RatPoly([1])
            for _ in range(rng.randint(1, 4)):
                degree = rng.randint(1, 3)
                factor = RatPoly([rng.randint(-3, 3) for _ in range(degree)] + [rng.randint(1, 2)])
                p = p * factor ** rng.randint(1, 2)
            expr = sum(_to_sympy_rational(sympy, c) * x**i for i, c in enumerate(p.coeffs))
            _, sym_factors = sympy.factor_list(expr, x, domain="QQ")
            expected = sorted(
                (tuple(sympy.Poly(f, x).monic().all_coeffs()[::-1]), k) for f, k in sym_factors
            )
            got = sorted(
                (tuple(_to_sympy_rational(sympy, c) for c in f.coeffs), k)
                for f, k in factor_rational(p)
            )
            assert got == expected, p

    def test_poly_gcd(self, sympy):
        rng = random.Random(233)
        x = sympy.Symbol("x")
        cases = _polynomial_cases(rng)
        small = [p for p in cases[4::2] if p.degree <= 9]
        for a in cases:
            b, common = rng.choice(small), _poly_factor(rng, big=False)
            for u, v in ((a, b), (a * common, b * common)):
                expected = sympy.gcd(_to_sympy_poly(sympy, x, u), _to_sympy_poly(sympy, x, v))
                got = _to_sympy_poly(sympy, x, _monic_gcd(u, v))
                assert got == _monic(sympy, expected), (u, v)

    def test_squarefree_decomposition(self, sympy):
        rng = random.Random(239)
        x = sympy.Symbol("x")
        for p in _polynomial_cases(rng)[1:]:
            _, parts = sympy.sqf_list(_to_sympy_poly(sympy, x, p))
            expected = [(_monic(sympy, f), k) for f, k in parts]
            got = [(_to_sympy_poly(sympy, x, f), k) for f, k in squarefree_decomposition(p)]
            assert sorted(got, key=str) == sorted(expected, key=str), p

    def test_sturm_count(self, sympy):
        rng = random.Random(241)
        x = sympy.Symbol("x")
        for q in (2, 3, 5):
            for j in (-1, 0, 1, 2):
                qj, c, k = _integer_target(q, j)
                for _ in range(15):
                    f = _sturm_case(rng, qj)
                    sf = sympy.sqf_part(_to_sympy_poly(sympy, x, f))
                    hi = _to_sympy_rational(sympy, 4 * qj)
                    expected = sf.count_roots(0, hi) == sf.degree()
                    assert _roots_in(_scaled_roots(f, k), 0, 4 * c) == expected, (f, qj)

    def test_lattice_hnf_spans_the_lattice(self, sympy):
        rng = random.Random(151)
        for _ in range(60):
            lat = random_lattice(rng, rng.randint(1, 5))
            gens = _to_sympy(sympy, lat.generators)  # generators are the columns
            basis = _to_sympy(sympy, lattice_hnf(lat)).T  # basis vectors are the rows
            assert abs(basis.det()) == abs(gens.det()), lat
            # each side's generators have integer coordinates on the other's
            for m in (basis.inv() * gens, gens.inv() * basis):
                assert all(e.is_integer for e in m), lat
