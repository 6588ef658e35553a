import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import random_fraction, random_lattice
from oracles import rational_gcd_bruteforce
from wmtrop.ratlin import FACTOR_LIMIT, Matrix, prime_factors
from wmtrop.troplattice import (
    CELL_LIMIT,
    CellWidth,
    LEVEL_LIMIT,
    InvalidResidueError,
    LevelLimitError,
    NotPrimeError,
    QuotientModel,
    TropicalLattice,
    UnsupportedRankError,
    descriptor,
    divides,
    dual_graph,
    lattice_hnf,
    max_dividing_width,
    quotient_components,
    tower_preimages,
    tower_project,
)


class TestWidths:
    def test_unit_generator(self):
        assert max_dividing_width(TropicalLattice.from_columns([[1]])).alpha == 1

    def test_mixed_denominators(self):
        lat = TropicalLattice.from_columns([[F(3, 4), F(1, 2)], [1, 0]])
        assert max_dividing_width(lat).alpha == F(1, 4)

    def test_integer_generator(self):
        assert max_dividing_width(TropicalLattice.from_columns([[2]])).alpha == 2

    def test_divides(self):
        assert divides(CellWidth(1), TropicalLattice.from_columns([[2]]))
        assert not divides(CellWidth(1), TropicalLattice.from_columns([[F(1, 2)]]))
        lat = TropicalLattice.from_columns([[F(3, 4), F(1, 2)], [1, 0]])
        assert divides(CellWidth(F(1, 4)), lat)
        assert not divides(CellWidth(F(1, 3)), lat)

    def test_max_width_against_bruteforce(self):
        rng = random.Random(61)
        for _ in range(60):
            lat = random_lattice(rng, rng.randint(1, 4))
            entries = [x for row in lat.generators.row_tuples for x in row]
            expect = rational_gcd_bruteforce(entries)
            got = max_dividing_width(lat)
            assert got.alpha == expect
            assert divides(got, lat)
            for c in (2, 3, 5):
                assert not divides(CellWidth(got.alpha * c), lat)

    def test_divides_monotone_under_refinement(self):
        rng = random.Random(67)
        for _ in range(30):
            lat = random_lattice(rng, rng.randint(1, 3))
            alpha = max_dividing_width(lat)
            for m in (2, 3, 6):
                assert divides(CellWidth(alpha.alpha / m), lat)

    @given(
        entries=st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=24), min_size=9, max_size=9
        ),
        rank=st.integers(1, 3),
        alpha=st.fractions(min_value=F(1, 60), max_value=20, max_denominator=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_divides_matches_fraction_rule(self, entries, rank, alpha):
        # divides tests the integer numerators; the rule it replaced divided
        # each generator entry, as a Fraction, by alpha
        cols = [entries[i * rank : (i + 1) * rank] for i in range(rank)]
        try:
            lat = TropicalLattice.from_columns(cols)
        except ValueError:
            return
        width = CellWidth(alpha)
        old = all((x / alpha).denominator == 1 for col in cols for x in col)
        assert divides(width, lat) == old
        # and a width that does divide, so that both answers are checked
        assert divides(CellWidth(max_dividing_width(lat).alpha / alpha.denominator), lat)

    def test_cell_width_positive(self):
        with pytest.raises(ValueError, match="^cell width must be positive$"):
            CellWidth(F(0))
        with pytest.raises(ValueError, match="^cell width must be positive$"):
            CellWidth(F(-1, 2))


class TestQuotientModels:
    TATE = TropicalLattice.from_columns([[2]])

    def test_invariant_checked(self):
        with pytest.raises(ValueError, match=r"^alpha / p\^level must divide the lattice$"):
            QuotientModel(TropicalLattice.from_columns([[F(1, 2)]]), CellWidth(1), 2, 0)
        with pytest.raises(NotPrimeError, match="^p must be prime$"):
            QuotientModel(self.TATE, CellWidth(1), 4, 0)
        with pytest.raises(NotPrimeError, match=r"^p is above the primality-test limit 10\*\*12$"):
            QuotientModel(self.TATE, CellWidth(1), 2**61 - 1, 0)  # prime, but too large to test
        with pytest.raises(ValueError, match="^level must be nonnegative$"):
            QuotientModel(self.TATE, CellWidth(1), 2, -1)

    def test_level_is_bounded(self):
        top = QuotientModel(self.TATE, CellWidth(1), 3, LEVEL_LIMIT)
        assert quotient_components(top) == 2 * 3**LEVEL_LIMIT
        for level in (LEVEL_LIMIT + 1, 10**100):  # rejected before 3**level is taken
            with pytest.raises(LevelLimitError, match="^level is above the level limit 64$"):
                QuotientModel(self.TATE, CellWidth(1), 3, level)

    def test_trial_division_is_bounded(self):
        assert prime_factors(FACTOR_LIMIT) == (2, 5)
        assert prime_factors(999999999989) == (999999999989,)  # the largest prime below
        with pytest.raises(ValueError):
            prime_factors(FACTOR_LIMIT + 1)

    def test_component_counts(self):
        q = QuotientModel(self.TATE, CellWidth(1), 3, 0)
        assert quotient_components(q) == 2
        assert quotient_components(q.at_level(1)) == 6
        assert quotient_components(q.at_level(2)) == 18

    def test_single_cell(self):
        assert quotient_components(QuotientModel(self.TATE, CellWidth(2), 2, 0)) == 1

    def test_rank2_count(self):
        lat = TropicalLattice.from_columns([[1, 0], [0, 2]])
        q = QuotientModel(lat, CellWidth(F(1, 2)), 2, 0)
        assert quotient_components(q) == 8  # det 2 / (1/2)^2

    def test_count_multiplies_by_p_to_rank(self):
        rng = random.Random(73)
        for _ in range(20):
            rank = rng.randint(1, 3)
            p = rng.choice([2, 3, 5])
            # triangular with positive diagonal: integral and invertible
            cols = [
                [
                    F(rng.randint(1, 4)) if i == j else (F(rng.randint(0, 2)) if i < j else F(0))
                    for i in range(rank)
                ]
                for j in range(rank)
            ]
            lat = TropicalLattice.from_columns(cols)
            q = QuotientModel(lat, CellWidth(1), p, 0)
            for level in range(2):
                a = quotient_components(q.at_level(level))
                b = quotient_components(q.at_level(level + 1))
                assert b == a * p**rank


class TestDualGraph:
    TATE = TropicalLattice.from_columns([[2]])

    def test_two_components_doubled_edge(self):
        g = dual_graph(QuotientModel(self.TATE, CellWidth(1), 3, 0))
        assert g.vertices == (0, 1)
        assert g.edges == ((0, 1, 2),)

    def test_four_cycle(self):
        g = dual_graph(QuotientModel(self.TATE, CellWidth(F(1, 2)), 2, 0))
        assert g.vertices == (0, 1, 2, 3)
        assert set(g.edges) == {(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)}

    def test_single_vertex_loop(self):
        g = dual_graph(QuotientModel(self.TATE, CellWidth(2), 2, 0))
        assert g.vertices == (0,)
        assert g.edges == ((0, 0, 1),)

    def test_every_vertex_degree_two(self):
        rng = random.Random(79)
        for _ in range(20):
            lam = rng.randint(1, 6)
            q = QuotientModel(
                TropicalLattice.from_columns([[lam]]), CellWidth(1), rng.choice([2, 3]), rng.randint(0, 1)
            )
            g = dual_graph(q)
            assert len(g.vertices) == quotient_components(q)
            for v in g.vertices:
                # a loop counts twice, matching a node of a component with itself
                degree = sum(mult * ((a == v) + (b == v)) for a, b, mult in g.edges)
                assert degree == 2

    def test_higher_rank_unsupported(self):
        lat = TropicalLattice.from_columns([[1, 0], [0, 1]])
        with pytest.raises(UnsupportedRankError):
            dual_graph(QuotientModel(lat, CellWidth(1), 2, 0))

    def test_cell_limit(self):
        over = QuotientModel(self.TATE, CellWidth(F(2, CELL_LIMIT + 1)), 2, 0)
        message = f"^{CELL_LIMIT + 1} components are above the cell limit {CELL_LIMIT}$"
        with pytest.raises(ValueError, match=message):
            dual_graph(over)
        with pytest.raises(ValueError, match="^20000000 components"):
            dual_graph(QuotientModel(self.TATE, CellWidth(F(1, 10**7)), 2, 0))


class TestTower:
    TATE = TropicalLattice.from_columns([[2]])

    def q(self, level=0, p=3):
        return QuotientModel(self.TATE, CellWidth(1), p, level)

    def test_project_examples(self):
        assert tower_project(5, self.q(0)) == 1
        assert tower_project(0, self.q(0)) == 0
        assert tower_project(7, self.q(1)) == 1

    def test_preimage_examples(self):
        assert tower_preimages(0, self.q(0), 1) == [0, 2, 4]
        assert tower_preimages(1, self.q(0), 1) == [1, 3, 5]
        assert tower_preimages(1, self.q(0), 0) == [1]

    def test_invalid_residue(self):
        with pytest.raises(InvalidResidueError):
            tower_project(6, self.q(0))
        with pytest.raises(InvalidResidueError):
            tower_preimages(2, self.q(0))

    def test_preimage_limit(self):
        assert len(tower_preimages(0, self.q(0, p=2), 19)) == 2**19
        limit = f"preimages are above the cell limit {CELL_LIMIT}$"
        with pytest.raises(ValueError, match=rf"^2\*\*20 {limit}"):
            tower_preimages(0, self.q(0, p=2), 20)
        with pytest.raises(ValueError, match=rf"^1000003\*\*1 {limit}"):
            tower_preimages(0, self.q(0, p=1000003), 1)
        # decided from the bit length alone: 2**(10**9) is never computed
        with pytest.raises(ValueError, match=rf"^2\*\*1000000000 {limit}"):
            tower_preimages(0, self.q(0, p=2), 10**9)

    def test_functoriality(self):
        rng = random.Random(83)
        for _ in range(30):
            lam = rng.randint(1, 5)
            p = rng.choice([2, 3, 5])
            level = rng.randint(0, 2)
            q = QuotientModel(TropicalLattice.from_columns([[lam]]), CellWidth(1), p, level)
            count = quotient_components(q)
            e = rng.randrange(count)
            m = rng.randint(1, 2)
            pre = tower_preimages(e, q, m)
            assert len(pre) == p**m
            assert len(set(pre)) == p**m
            for x in pre:
                y = x
                for step in range(m, 0, -1):
                    y = tower_project(y, q.at_level(level + step - 1))
                assert y == e


class TestDescriptor:
    def test_reflexive(self):
        lat = TropicalLattice.from_columns([[2]])
        q = QuotientModel(lat, CellWidth(1), 3, 0)
        assert descriptor(q) == descriptor(q)
        assert descriptor(q).canonical_string() == descriptor(q).canonical_string()

    def test_levels_differ(self):
        lat = TropicalLattice.from_columns([[2]])
        d0 = descriptor(QuotientModel(lat, CellWidth(1), 3, 0))
        d1 = descriptor(QuotientModel(lat, CellWidth(1), 3, 1))
        assert d0 != d1
        assert d0.components == 2 and d1.components == 6

    def test_sign_normalized(self):
        a = QuotientModel(TropicalLattice.from_columns([[2]]), CellWidth(1), 3, 0)
        b = QuotientModel(TropicalLattice.from_columns([[-2]]), CellWidth(1), 3, 0)
        assert descriptor(a) == descriptor(b)

    def test_rank_zero(self):
        lat = TropicalLattice(Matrix([], cols=0))
        assert lattice_hnf(lat) == Matrix([], cols=0)
        assert lat.covolume() == 1
        d = descriptor(QuotientModel(lat, CellWidth(1), 2, 0))
        assert d.canonical_string() == "rank=0|lattice=[]|alpha=1|p=2|level=0|components=1"

    def test_hnf_basis_change_invariance(self):
        # same rank-2 lattice presented by different generator pairs
        a = TropicalLattice.from_columns([[2, 0], [0, 3]])
        b = TropicalLattice.from_columns([[2, 0], [2, 3]])  # second gen + first
        assert lattice_hnf(a) == lattice_hnf(b)

    def test_hnf_random_unimodular_invariance(self):
        from gens import random_unimodular

        rng = random.Random(89)
        for _ in range(25):
            rank = rng.randint(1, 3)
            g = Matrix(
                [[random_fraction(rng) for _ in range(rank)] for _ in range(rank)]
            )
            if g.det() == 0:
                continue
            u = random_unimodular(rng, rank)
            lat1 = TropicalLattice(g)
            lat2 = TropicalLattice(g * u)  # same column span over Z
            assert lattice_hnf(lat1) == lattice_hnf(lat2)
