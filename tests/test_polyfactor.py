import math
import random
from fractions import Fraction as F

import pytest

from gens import swinnerton_dyer
from wmtrop import polyfactor as pf
from wmtrop.polyfactor import factor_rational, squarefree_decomposition
from wmtrop.ratlin import RatPoly


def remultiply(factors):
    out = RatPoly.one()
    for g, mult in factors:
        out = out * g**mult
    return out


def test_difference_of_squares():
    got = factor_rational(RatPoly([-1, 0, 1]))
    assert got == [(RatPoly([-1, 1]), 1), (RatPoly([1, 1]), 1)]


def test_negative_discriminant_quadratic_is_irreducible():
    p = RatPoly([5, -1, 1])  # discriminant -19 < 0, no rational roots
    assert factor_rational(p) == [(p, 1)]


def test_repeated_root():
    p = RatPoly([-1, 1]) ** 2 * RatPoly([-5, 1])
    got = factor_rational(p)
    assert sorted(got, key=str) == sorted(
        [(RatPoly([-1, 1]), 2), (RatPoly([-5, 1]), 1)], key=str
    )


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        factor_rational(RatPoly([]))
    with pytest.raises(ValueError):
        squarefree_decomposition(RatPoly([]))


def test_constant_polynomial():
    assert factor_rational(RatPoly([7])) == []


def test_x4_plus_1_needs_recombination():
    # splits into quadratics mod every prime but is irreducible over Q
    p = RatPoly([1, 0, 0, 0, 1])
    assert factor_rational(p) == [(p, 1)]


def test_x10_minus_1_cyclotomic_split():
    p = RatPoly([-1] + [0] * 9 + [1])
    got = factor_rational(p)
    degrees = sorted(g.degree for g, _ in got)
    assert degrees == [1, 1, 4, 4]
    assert remultiply(got) == p


def test_x12_minus_1_cyclotomic_split():
    p = RatPoly([-1] + [0] * 11 + [1])
    got = factor_rational(p)
    assert sorted(g.degree for g, _ in got) == [1, 1, 2, 2, 2, 4]
    assert remultiply(got) == p


def test_swinnerton_dyer_quartic():
    # minimal polynomial of sqrt(2)+sqrt(3): splits mod every prime, so the
    # recombination has to reassemble all the modular pieces
    sd = RatPoly([1, 0, -10, 0, 1])
    assert factor_rational(sd) == [(sd, 1)]
    x4p1 = RatPoly([1, 0, 0, 0, 1])
    got = factor_rational(sd * x4p1)
    assert dict(got) == {sd: 1, x4p1: 1}


def test_product_of_quadratic_surds():
    parts = [RatPoly([-c, 0, 1]) for c in (2, 3, 5, 6)]
    p = RatPoly.one()
    for part in parts:
        p = p * part
    assert dict(factor_rational(p)) == {part: 1 for part in parts}


def test_rational_leading_and_denominators():
    # 4x^2 - 1 = 4 (x - 1/2)(x + 1/2)
    got = factor_rational(RatPoly([-1, 0, 4]))
    assert got == [(RatPoly([F(-1, 2), 1]), 1), (RatPoly([F(1, 2), 1]), 1)]


def test_nontrivial_multiplicity_tower():
    p = RatPoly([1, 1]) ** 3 * RatPoly([2, 0, 1]) ** 2 * RatPoly([-3, 1])
    got = factor_rational(p)
    assert dict((g, m) for g, m in got) == {
        RatPoly([1, 1]): 3,
        RatPoly([2, 0, 1]): 2,
        RatPoly([-3, 1]): 1,
    }
    assert remultiply(got) == p.monic()


def test_squarefree_decomposition_multiplicities():
    p = RatPoly([-1, 1]) ** 2 * RatPoly([-5, 1])
    got = dict((g, m) for g, m in squarefree_decomposition(p))
    assert got == {RatPoly([-5, 1]): 1, RatPoly([-1, 1]): 2}


def test_squarefree_decomposition_top_multiplicity():
    # rounds 1 and 2 leave c = x - 1 as it is; only the multiplicity bound
    # limits the loop, and multiplicity = degree is still allowed
    for k in (3, 5):
        assert squarefree_decomposition(RatPoly([-1, 1]) ** k) == [(RatPoly([-1, 1]), k)]


def test_squarefree_decomposition_stalled_loop_raises(monkeypatch):
    # a division that returns its dividend keeps c from ever shrinking;
    # Yun's loop must stop at the degree bound, long before 1000 divisions
    calls = []

    def stalled(a, b):
        calls.append(1)
        if len(calls) > 1000:
            raise RuntimeError("Yun's loop did not stop")
        return a

    monkeypatch.setattr(pf, "_divide", stalled)
    p = RatPoly([-1, 1]) ** 2 * RatPoly([2, 1])
    with pytest.raises(ArithmeticError, match="above the degree 3"):
        squarefree_decomposition(p)
    assert len(calls) < 20


IRREDUCIBLE_STOCK = [
    RatPoly([-1, 1]),
    RatPoly([1, 1]),
    RatPoly([-2, 1]),
    RatPoly([3, 1]),
    RatPoly([5, -1, 1]),
    RatPoly([1, 1, 1]),
    RatPoly([2, 0, 1]),
    RatPoly([1, 0, 0, 0, 1]),
    RatPoly([-2, 0, 0, 1]),  # x^3 - 2
]


def test_random_products_recover_factors():
    rng = random.Random(101)
    for _ in range(40):
        chosen = {}
        budget = 10
        while budget > 0 and rng.random() < 0.85:
            g = rng.choice(IRREDUCIBLE_STOCK)
            if g.degree > budget:
                continue
            mult = rng.randint(1, 2)
            chosen[g] = chosen.get(g, 0) + mult
            budget -= g.degree * mult
        if not chosen:
            continue
        p = RatPoly([rng.randint(1, 5)])
        for g, m in chosen.items():
            p = p * g**m
        got = factor_rational(p)
        assert dict(got) == chosen
        assert remultiply(got) == p.monic()


def test_remultiplication_on_random_polys():
    rng = random.Random(103)
    for _ in range(30):
        deg = rng.randint(1, 6)
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(deg)] + [1]
        p = RatPoly(coeffs)
        got = factor_rational(p)
        assert remultiply(got) == p
        for g, _ in got:
            assert g.monic() == g
        assert got == sorted(got, key=lambda fm: (fm[0].degree, fm[0].coeffs))
    # the order is on the coefficients' values, not on their stored numerators
    got = factor_rational(RatPoly([F(1, 2), 1]) * RatPoly([F(1, 3), 1]))
    assert [g for g, _ in got] == [RatPoly([F(1, 3), 1]), RatPoly([F(1, 2), 1])]


def test_canonical_order_is_stable():
    p = RatPoly([-1, 1]) * RatPoly([1, 1]) * RatPoly([5, -1, 1])
    assert factor_rational(p) == factor_rational(p)
    degrees = [g.degree for g, _ in factor_rational(p)]
    assert degrees == sorted(degrees)


class TestRecombinationLimit:
    def test_the_limit_admits_sixteen_factors_and_refuses_thirty_two(self):
        # SD_5 has 16 factors mod 19 and needs every subset size up to 8;
        # SD_6 has at least 32 and is refused before size 4
        assert sum(math.comb(16, s) for s in range(1, 9)) <= pf.RECOMBINATION_LIMIT
        assert sum(math.comb(32, s) for s in range(1, 5)) > pf.RECOMBINATION_LIMIT

    def test_subsets_are_counted(self, monkeypatch):
        # SD_4 has 8 modular factors: 8 + 28 + 56 + 70 = 162 subsets
        sd4 = swinnerton_dyer([2, 3, 5, 7])
        monkeypatch.setattr(pf, "RECOMBINATION_LIMIT", 162)
        assert factor_rational(sd4) == [(sd4, 1)]
        monkeypatch.setattr(pf, "RECOMBINATION_LIMIT", 161)
        with pytest.raises(pf.RecombinationLimitError, match="recombining 8 modular factors"):
            factor_rational(sd4)

    def test_thirty_two_factors_are_refused_before_size_four(self, monkeypatch):
        # a patched list of 32 lifted factors x + 1 of the irreducible
        # x^32 - 2: every subset reaches the trial division
        trials = []
        monkeypatch.setattr(pf, "_factor_mod_p", lambda f, p, rng: [[1, 1]] * 32)
        monkeypatch.setattr(pf, "_hensel_lift_all", lambda f, factors, p, target: factors)
        original = pf._int_exact_div
        monkeypatch.setattr(pf, "_int_exact_div", lambda a, b: trials.append(b) or original(a, b))
        with pytest.raises(pf.RecombinationLimitError, match="recombining 32 modular factors"):
            factor_rational(RatPoly([-2] + [0] * 31 + [1]))
        assert len(trials) == 32 + math.comb(32, 2) + math.comb(32, 3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_powmod_matches_repeated_products(p):
    rng = random.Random(p)
    for deg in (1, 2, 4):
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        a = pf._trim([rng.randrange(p) for _ in range(deg + 3)])
        want = [1]
        for e in range(41):
            assert pf._mx_powmod(a, e, f, p) == want, (f, a, e)
            want = pf._mx_divmod_monic(pf._mx_mul(want, a, p), f, p)[1]
