import enum
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import count_fractions, random_bundle, random_rank1_bundle
from oracles import section_ok_bruteforce
from wmtrop.ratlin import Matrix
from wmtrop.tropbundle import (
    BundleData,
    FaceTransition,
    ModelUndefinedError,
    NoPLevelError,
    TropicalSection,
    ample_check,
    chi_valuation,
    construct_f,
    extends_to,
    form_matrix,
    minimal_level,
    tensor_power,
    verify_section,
)
from wmtrop.troplattice import CELL_LIMIT, CellWidth, TropicalLattice, divides

TATE = TropicalLattice.from_columns([[2]])


def tate_bundle(d, v):
    return BundleData(TATE, Matrix([[d]]), [v])


def chi_by_cocycle(b, a):
    """Independent valuation via repeated application of the pairing rule."""
    s = form_matrix(b)
    r = b.rank

    def pair(x, y):
        return sum(x[i] * s[i, j] * y[j] for i in range(r) for j in range(r))

    def rec(vec):
        if all(c == 0 for c in vec):
            return F(0)
        i = next(k for k, c in enumerate(vec) if c != 0)
        step = [0] * r
        step[i] = 1 if vec[i] > 0 else -1
        rest = list(vec)
        rest[i] -= step[i]
        if step[i] == 1:
            base = b.chi_vals[i]
        else:
            base = s[i, i] - b.chi_vals[i]
        return rec(rest) + base + pair(rest, step)

    return rec(list(a))


class TestFormAndAmple:
    def test_tate_form(self):
        assert form_matrix(tate_bundle(3, 0)) == Matrix([[6]])

    def test_translation_invariant_form_is_zero(self):
        assert form_matrix(tate_bundle(0, F(7, 3))) == Matrix.zero(1, 1)

    def test_asymmetric_rejected(self):
        lat = TropicalLattice.from_columns([[1, 0], [0, 2]])
        with pytest.raises(ValueError, match="^induced bilinear form is not symmetric$"):
            BundleData(lat, Matrix([[2, 1], [1, 1]]), [0, 0])

    def test_non_integer_sigma_rejected(self):
        with pytest.raises(ValueError, match="^sigma must have integer entries$"):
            BundleData(TATE, Matrix([[F(1, 2)]]), [0])

    def test_ample_degree_one(self):
        assert ample_check(tate_bundle(1, 0))

    def test_degenerate_not_ample(self):
        assert not ample_check(tate_bundle(0, 0))

    def test_indefinite_not_ample(self):
        lat = TropicalLattice.from_columns([[1, 0], [0, 1]])
        b = BundleData(lat, Matrix([[2, 3], [3, 2]]), [0, 0])
        assert not ample_check(b)

    def test_positive_definite_rank2(self):
        lat = TropicalLattice.from_columns([[1, 0], [0, 1]])
        b = BundleData(lat, Matrix([[2, 1], [1, 2]]), [0, 0])
        assert ample_check(b)

    def test_ample_invariant_under_tensor_power(self):
        rng = random.Random(97)
        for _ in range(30):
            b = random_bundle(rng, rng.randint(1, 3))
            expected = ample_check(b)
            for n in (1, 2, 5):
                assert ample_check(tensor_power(b, n)) == expected


class TestChiValuation:
    def test_generator(self):
        assert chi_valuation(tate_bundle(1, 3), (1,)) == 3

    def test_doubled_generator(self):
        assert chi_valuation(tate_bundle(1, 3), (2,)) == 8

    def test_zero(self):
        assert chi_valuation(tate_bundle(1, 3), (0,)) == 0

    def test_cocycle_identity_random(self):
        rng = random.Random(101)
        for _ in range(60):
            b = random_bundle(rng, rng.randint(1, 3))
            s = form_matrix(b)
            a1 = [rng.randint(-4, 4) for _ in range(b.rank)]
            a2 = [rng.randint(-4, 4) for _ in range(b.rank)]
            both = [x + y for x, y in zip(a1, a2)]
            pairing = sum(
                a1[i] * s[i, j] * a2[j] for i in range(b.rank) for j in range(b.rank)
            )
            assert chi_valuation(b, both) == chi_valuation(b, a1) + chi_valuation(b, a2) + pairing

    def test_against_cocycle_oracle(self):
        rng = random.Random(103)
        for _ in range(40):
            b = random_bundle(rng, rng.randint(1, 3))
            a = [rng.randint(-3, 3) for _ in range(b.rank)]
            assert chi_valuation(b, a) == chi_by_cocycle(b, a)

    @given(
        seed=st.integers(0, 10**6),
        a1=st.lists(st.integers(-5, 5), min_size=3, max_size=3),
        a2=st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_cocycle_identity_hypothesis(self, seed, a1, a2):
        b = random_bundle(random.Random(seed), 3)
        s = form_matrix(b)
        pairing = sum(a1[i] * s[i, j] * a2[j] for i in range(3) for j in range(3))
        both = [x + y for x, y in zip(a1, a2)]
        assert chi_valuation(b, both) == chi_valuation(b, a1) + chi_valuation(b, a2) + pairing

    def test_tensor_power_scales_valuation(self):
        rng = random.Random(107)
        for _ in range(20):
            b = random_bundle(rng, rng.randint(1, 3))
            a = [rng.randint(-3, 3) for _ in range(b.rank)]
            assert chi_valuation(tensor_power(b, 3), a) == 3 * chi_valuation(b, a)


class TestExtension:
    def test_trivial_extends(self):
        assert extends_to(tate_bundle(0, 0), CellWidth(1))

    def test_fractional_valuation_blocks(self):
        assert not extends_to(tate_bundle(0, F(1, 5)), CellWidth(1))

    def test_refined_width_recovers(self):
        assert extends_to(tate_bundle(0, F(1, 5)), CellWidth(F(1, 5)))

    def test_model_must_exist(self):
        with pytest.raises(ModelUndefinedError):
            extends_to(tate_bundle(0, 0), CellWidth(F(3, 4)))

    def test_monotone_under_refinement(self):
        rng = random.Random(109)
        for _ in range(30):
            b = random_bundle(
                rng, rng.randint(1, 3), lattice_multiple=F(1, 2), chi_multiple=F(1, 2)
            )
            if not extends_to(b, CellWidth(F(1, 2))):
                continue
            for m in (2, 3, 4):
                assert extends_to(b, CellWidth(F(1, 2 * m)))

    def test_form_entries_in_alpha_Z(self):
        rng = random.Random(113)
        for _ in range(30):
            alpha = F(rng.randint(1, 3), rng.randint(1, 3))
            b = random_bundle(rng, rng.randint(1, 3), lattice_multiple=alpha)
            assert divides(CellWidth(alpha), b.lattice)
            s = form_matrix(b)
            for row in s.row_tuples:
                for x in row:
                    assert (x / alpha).denominator == 1

    def test_formal_roots_implication(self):
        rng = random.Random(127)
        for _ in range(60):
            p = rng.choice([2, 3, 5])
            alpha = F(rng.randint(1, 3), rng.randint(1, 3))
            # lattice in alpha Z, valuations in (alpha/p) Z: the p-th power
            # then extends at alpha and the implication has real content
            b = random_bundle(
                rng, rng.randint(1, 3), lattice_multiple=alpha, chi_multiple=alpha / p
            )
            if rng.random() < 0.5:
                # sometimes coarsen chi to alpha itself
                b = BundleData(
                    b.lattice, b.sigma, [v * p for v in b.chi_vals], b.abelian_part_ample
                )
            if extends_to(tensor_power(b, p), CellWidth(alpha)):
                assert extends_to(b, CellWidth(alpha / p))


class TestMinimalLevel:
    def test_integral_is_level_zero(self):
        assert minimal_level(tate_bundle(0, 0), CellWidth(1), 5) == 0

    def test_one_refinement(self):
        assert minimal_level(tate_bundle(0, F(1, 5)), CellWidth(1), 5) == 1

    def test_no_p_level(self):
        with pytest.raises(NoPLevelError) as err:
            minimal_level(tate_bundle(0, F(1, 3)), CellWidth(1), 2)
        assert err.value.offending_primes == (3,)

    def test_deep_level(self):
        assert minimal_level(tate_bundle(0, F(7, 8)), CellWidth(1), 2) == 3

    def test_matches_extends(self):
        rng = random.Random(131)
        for _ in range(30):
            p = rng.choice([2, 3])
            alpha = F(1, rng.randint(1, 3))
            n = rng.randint(0, 3)
            v = alpha / p**n * rng.choice([1, 3, 7])
            b = BundleData(TropicalLattice.from_columns([[alpha * 4]]), Matrix([[0]]), [v])
            if (v / alpha).denominator == 1:
                continue
            level = minimal_level(b, CellWidth(alpha), p)
            assert extends_to(b, CellWidth(alpha / p**level))
            if level > 0:
                assert not extends_to(b, CellWidth(alpha / p ** (level - 1)))


class TestConstructVerify:
    def test_trivial_balanced(self):
        s = construct_f(tate_bundle(0, 0), CellWidth(1))
        assert s.slopes == (0, 0)
        assert s.base_value == 0 and s.slope_increment == 0 and s.value_increment == 0
        assert verify_section(tate_bundle(0, 0), s).ok

    def test_refined_slope_one(self):
        p = 5
        s = construct_f(tate_bundle(0, F(1, p)), CellWidth(F(1, p)))
        assert s.slopes == (1,) + (0,) * (2 * p - 1)
        assert verify_section(tate_bundle(0, F(1, p)), s).ok

    def test_single_cell_period(self):
        b = BundleData(TropicalLattice.from_columns([[1]]), Matrix([[1]]), [1])
        s = construct_f(b, CellWidth(1))
        assert s.slopes == (1,) and s.slope_increment == 1 and s.value_increment == 1
        assert verify_section(b, s).ok

    def test_alternative_slopes_accepted(self):
        alt = TropicalSection(
            alpha=F(1), slopes=(1, -1), base_value=F(0), slope_increment=0, value_increment=F(0)
        )
        report = verify_section(tate_bundle(0, 0), alt)
        assert report.ok
        face = next(f for f in report.faces if f.position == 1)
        assert face.slope_difference == 2
        assert face.left_value == 1
        assert face.continuous

    def test_wrong_sum_fails_periodicity(self):
        bad = TropicalSection(
            alpha=F(1), slopes=(1, 0), base_value=F(0), slope_increment=0, value_increment=F(0)
        )
        report = verify_section(tate_bundle(0, 0), bad)
        assert not report.ok
        assert any("slopes sum" in msg for msg in report.failures)

    def test_requires_extension(self):
        with pytest.raises(ModelUndefinedError):
            construct_f(tate_bundle(0, F(1, 5)), CellWidth(1))

    def test_rank1_only(self):
        lat = TropicalLattice.from_columns([[1, 0], [0, 1]])
        b = BundleData(lat, Matrix([[1, 0], [0, 1]]), [0, 0])
        with pytest.raises(ValueError):
            construct_f(b, CellWidth(1))

    def test_cell_limit(self):
        message = f"^20000000 cells per period are above the cell limit {CELL_LIMIT}$"
        with pytest.raises(ValueError, match=message):
            construct_f(tate_bundle(0, F(1, 5)), CellWidth(F(1, 10**7)))

    def test_construct_always_verifies(self):
        rng = random.Random(137)
        for _ in range(50):
            b, alpha = random_rank1_bundle(rng)
            s = construct_f(b, CellWidth(alpha))
            report = verify_section(b, s)
            assert report.ok, report.failures
            assert sum(s.slopes) * s.alpha == s.value_increment

    def test_verify_agrees_with_bruteforce(self):
        rng = random.Random(139)
        for _ in range(80):
            b, alpha = random_rank1_bundle(rng)
            s = construct_f(b, CellWidth(alpha))
            slopes = list(s.slopes)
            base, inc, vinc = s.base_value, s.slope_increment, s.value_increment
            variant = rng.randrange(8)
            if variant == 1 and len(slopes) > 1:
                # redistribute slope mass: still a valid witness
                i, j = rng.sample(range(len(slopes)), 2)
                slopes[i] += 2
                slopes[j] -= 2
            elif variant == 2:
                slopes[rng.randrange(len(slopes))] += rng.choice([-1, 1])  # break the sum
            elif variant == 3:
                inc += rng.choice([-1, 1])  # wrong slope increment
            elif variant == 4:
                vinc += F(rng.choice([-1, 1]), rng.randint(1, 3))  # wrong value increment
            elif variant == 5:
                base += F(rng.randint(-3, 3), rng.randint(1, 4))  # base shifts stay valid
            elif variant == 6:
                slopes.append(0)  # cells no longer tile the period
            elif variant == 7 and len(slopes) > 1:
                slopes[0] += 1
                slopes[-1] -= 1
            s = TropicalSection(s.alpha, tuple(slopes), base, inc, vinc)
            assert verify_section(b, s).ok == section_ok_bruteforce(b, s)

    def test_negative_generator_period_normalized(self):
        b = BundleData(TropicalLattice.from_columns([[-2]]), Matrix([[0]]), [0])
        s = construct_f(b, CellWidth(1))
        assert verify_section(b, s).ok
        assert section_ok_bruteforce(b, s)


class TestFaceTransition:
    """Faces are stored as integers in lowest terms; their values are built on demand."""

    def test_values_on_demand(self):
        face = FaceTransition(
            pos_num=2, pos_den=3, left_slope=3, right_slope=-1,
            left_num=-5, left_den=2, right_num=-5, right_den=2,
        )  # fmt: skip
        assert face.position == F(2, 3) and type(face.position) is F
        assert face.left_value == face.right_value == F(-5, 2)
        assert face.slope_difference == 4
        assert face.continuous
        for broken, value in ((face._replace(right_num=-9, right_den=4), F(-9, 4)),
                              (face._replace(right_den=1), F(-5))):  # fmt: skip
            assert not broken.continuous and broken.right_value == value

    def test_faces_are_in_lowest_terms(self):
        # each stored fraction is reduced with a positive denominator, so
        # tuple equality and hash are the values'
        rng = random.Random(151)
        seen = set()
        for _ in range(150):
            sign = rng.choice((1, -1))
            alpha = F(rng.randint(1, 6), rng.choice((1, 2, 3, 4, 6, 9)))
            k = rng.randint(1, 8)
            lattice = TropicalLattice(Matrix([[sign * alpha * k]]))
            b = BundleData(lattice, Matrix([[rng.randint(-3, 3)]]), [alpha * rng.randint(-9, 9)])
            f = construct_f(b, CellWidth(alpha))
            slopes = tuple(s + rng.choice((0, 0, 1, -2)) for s in f.slopes)
            base = rng.choice((F(0), F(rng.randint(-6, 6), rng.randint(1, 12))))
            f = TropicalSection(f.alpha, slopes, base, f.slope_increment, f.value_increment)
            faces = verify_section(b, f).faces
            assert len(faces) == 2 * k
            for face in faces:
                values = [(face.left_num, face.left_den), (face.right_num, face.right_den)]
                for num, den in [(face.pos_num, face.pos_den), *values]:
                    assert den > 0 and math.gcd(num, den) == 1, face
                seen.update("zero value" for num, _ in values if num == 0)
                seen.update("value with denominator" for _, den in values if den > 1)
                if not face.continuous:
                    seen.add("discontinuity")
            if sign < 0:
                seen.add("negative generator")
            if alpha.denominator > 1:
                seen.add("alpha with denominator")
        assert seen == {
            "zero value", "value with denominator", "discontinuity", "negative generator",
            "alpha with denominator",
        }  # fmt: skip

    def test_verify_section_builds_no_fraction_per_face(self, monkeypatch):
        counts = []
        for k in (1, 20, 400):
            alpha = F(2, 3)
            b = BundleData(TropicalLattice(Matrix([[k * alpha]])), Matrix([[-2]]), [alpha * (3 * k + 1)])
            f = construct_f(b, CellWidth(alpha))
            f = TropicalSection(f.alpha, f.slopes, F(-3, 7), f.slope_increment, f.value_increment)
            assert verify_section(b, f).ok
            counts.append(count_fractions(monkeypatch, verify_section, b, f))
        assert counts[0] > 0 and counts == [counts[0]] * 3, counts


class TestSlopeCheck:
    """TropicalSection takes any int but a bool, other subclasses included,
    and nothing else, as `parse_section` does."""

    class Slope(enum.IntEnum):
        UP = 1

    def section(self, slopes):
        return TropicalSection(F(1), slopes, F(0), 0, F(0))

    def test_integers_accepted(self):
        for slopes in ((0, -3, 2**80), (self.Slope.UP, 2)):
            assert self.section(slopes).slopes == slopes

    def test_others_rejected(self):
        for slopes in ((1.0,), (1, "2"), (1, None), (F(1),), (1, [2]), (True, False), (1, True)):
            with pytest.raises(ValueError, match="^slopes must be integers$"):
                self.section(slopes)
        with pytest.raises(ValueError, match="^at least one cell per period required$"):
            self.section(())
