"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here, not configurable.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction as F

from gens import random_bundle, random_fraction, random_jordan_nilpotent, random_wmc_pair
from oracles import graded_map_is_bijective, jordan_filtration_pieces, rational_gcd_bruteforce
from wmtrop.cli import JobSpec, main, run
from wmtrop.monodromy import (
    FrobeniusData,
    NilpotentOperator,
    NotPureError,
    check_commutation,
    check_wmc,
    monodromy_filtration,
    weight_decomposition,
    weight_filtration,
    weil_weight,
)
from wmtrop.ratlin import Matrix, RatPoly, apply_to_subspace, contains
from wmtrop.tropbundle import (
    BundleData,
    TropicalSection,
    chi_valuation,
    construct_f,
    extends_to,
    form_matrix,
    minimal_level,
    tensor_power,
    verify_section,
)
from wmtrop.troplattice import (
    CellWidth,
    QuotientModel,
    TropicalLattice,
    divides,
    dual_graph,
    max_dividing_width,
    quotient_components,
    tower_preimages,
)



def report(num: int, name: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_monodromy_filtration_oracle():
    rng = random.Random(2024)
    start = time.monotonic()
    failures = []
    for trial in range(200):
        dim = rng.randint(1, 8)
        n_mat, _ = random_jordan_nilpotent(rng, dim)
        op = NilpotentOperator(n_mat)
        fil = monodromy_filtration(op)
        oracle = jordan_filtration_pieces(n_mat)
        if any(fil.at(j) != oracle[j] for j in range(-dim, dim + 1)):
            failures.append((trial, "oracle mismatch"))
            continue
        for j in range(fil.lo - 1, fil.hi + 2):
            if not contains(fil.at(j - 2), apply_to_subspace(n_mat, fil.at(j))):
                failures.append((trial, f"N Fil_{j} not inside Fil_{j-2}"))
        for j in range(0, fil.hi + 1):
            if fil.graded_dimension(j) != fil.graded_dimension(-j):
                failures.append((trial, f"gr_{j} and gr_{-j} dims differ"))
            elif not graded_map_is_bijective(op, fil, j):
                failures.append((trial, f"N^{j} not bijective on gr_{j}"))
    elapsed = time.monotonic() - start
    report(
        1,
        "monodromy filtration = Jordan oracle, 200 random nilpotents",
        not failures and elapsed < 10.0,
        f"{elapsed:.2f}s" + (f", failures {failures[:3]}" if failures else ""),
    )


def test_criterion_2_tate_curve_wmc():
    n = NilpotentOperator(Matrix([[0, 1], [0, 0]]))
    frob = FrobeniusData(Matrix.diagonal([1, 5]), 5)
    rep = check_wmc(n, frob, 1)
    ok = (
        rep.passed
        and rep.graded_weights == {-1: [(0, 1)], 1: [(2, 1)]}
    )
    perturbed = check_wmc(NilpotentOperator(Matrix.zero(2, 2)), frob, 1)
    ok = ok and not perturbed.passed and not perturbed.filtrations_equal
    ok = ok and any(v["kind"] == "filtration_mismatch" for v in perturbed.violations)
    report(2, "Tate-curve quadruple passes, perturbed N=0 fails", ok)


def test_criterion_3_weil_weight_classification():
    ok = weil_weight(RatPoly([-1, 1]), 5) == 0
    ok = ok and weil_weight(RatPoly([-5, 1]), 5) == 2
    ok = ok and weil_weight(RatPoly([5, -1, 1]), 5) == 1
    try:
        weil_weight(RatPoly([1, -3, 1]), 5)
        ok = False
    except NotPureError:
        pass
    report(3, "weight classification incl. NotPure reciprocal quadratic", ok)


def test_criterion_4_formal_tate_bundle_examples():
    lam2 = TropicalLattice.from_columns([[2]])
    trivial = BundleData(lam2, Matrix([[0]]), [0])
    # example (1): the non-trivial model of the trivial bundle, slopes (1, -1)
    witness = TropicalSection(
        alpha=F(1), slopes=(1, -1), base_value=F(0), slope_increment=0, value_increment=F(0)
    )
    rep = verify_section(trivial, witness)
    face = next(f for f in rep.faces if f.position == 1)
    ok = rep.ok and face.slope_difference == 2
    ok = ok and face.left_value - face.right_value == 0 and face.left_value == 1
    # example (3): valuation 1/p blocks the width-1 model, refining fixes it
    for p in (2, 3, 5):
        frac = BundleData(lam2, Matrix([[0]]), [F(1, p)])
        ok = ok and not extends_to(frac, CellWidth(1))
        ok = ok and minimal_level(frac, CellWidth(1), p) == 1
        section = construct_f(frac, CellWidth(F(1, p)))
        ok = ok and section.slopes == (1,) + (0,) * (2 * p - 1)
        ok = ok and sum(1 for s in section.slopes if s == 1) == 1
        ok = ok and verify_section(frac, section).ok
    report(4, "formal bundle examples on the two-cell quotient", ok)


def test_criterion_5_tower_combinatorics():
    lat = TropicalLattice.from_columns([[2]])
    base = QuotientModel(lat, CellWidth(1), 3, 0)
    counts = [quotient_components(base.at_level(n)) for n in (0, 1, 2)]
    ok = counts == [2, 6, 18]
    for level in (0, 1):
        model = base.at_level(level)
        for cell in range(quotient_components(model)):
            pre = tower_preimages(cell, model, 1)
            ok = ok and len(pre) == 3 and len(set(pre)) == 3
    graph = dual_graph(base)
    ok = ok and graph.vertices == (0, 1) and graph.edges == ((0, 1, 2),)
    report(5, "tower components 2/6/18, triple preimages, doubled edge", ok)


def test_criterion_6_cocycle_suite():
    start = time.monotonic()
    rng = random.Random(2025)
    ok = True
    for _ in range(100):
        b = random_bundle(rng, rng.randint(1, 3))
        s = form_matrix(b)
        a1 = [rng.randint(-4, 4) for _ in range(b.rank)]
        a2 = [rng.randint(-4, 4) for _ in range(b.rank)]
        pairing = sum(a1[i] * s[i, j] * a2[j] for i in range(b.rank) for j in range(b.rank))
        lhs = chi_valuation(b, [x + y for x, y in zip(a1, a2)])
        ok = ok and lhs == chi_valuation(b, a1) + chi_valuation(b, a2) + pairing
    nontrivial = 0
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        alpha = F(rng.randint(1, 3), rng.randint(1, 3))
        b = random_bundle(rng, rng.randint(1, 3), lattice_multiple=alpha, chi_multiple=alpha / p)
        if extends_to(tensor_power(b, p), CellWidth(alpha)):
            nontrivial += 1
            ok = ok and extends_to(b, CellWidth(alpha / p))
    elapsed = time.monotonic() - start
    report(
        6,
        "cocycle identity x100 and p-th power descent x100",
        ok and nontrivial >= 50 and elapsed < 5.0,
        f"{elapsed:.2f}s, {nontrivial} non-vacuous descents",
    )


def test_criterion_7_lattice_width_suite():
    rng = random.Random(2026)
    ok = True
    for _ in range(100):
        rank = rng.randint(1, 4)
        while True:
            cols = [[random_fraction(rng) for _ in range(rank)] for _ in range(rank)]
            try:
                lat = TropicalLattice.from_columns(cols)
                break
            except ValueError:
                continue
        entries = [x for row in lat.generators.row_tuples for x in row]
        width = max_dividing_width(lat)
        ok = ok and width.alpha == rational_gcd_bruteforce(entries)
        ok = ok and divides(width, lat)
        for m in (2, 3, 4):
            ok = ok and divides(CellWidth(width.alpha / m), lat)
        for c in (2, 3, 5):
            ok = ok and not divides(CellWidth(width.alpha * c), lat)
    report(7, "max dividing width = gcd oracle x100, refinement monotone", ok)


def test_criterion_8_n_shifts_weight_filtration():
    rng = random.Random(2027)
    ok = True
    checked = 0
    for _ in range(40):
        q = rng.choice([2, 3, 5])
        n_mat, phi, _ = random_wmc_pair(rng, q, max_dim=8)
        frob = FrobeniusData(phi, q)
        op = NilpotentOperator(n_mat)
        if not check_commutation(op, frob):
            continue
        checked += 1
        fil = weight_filtration(weight_decomposition(frob))
        for m in range(fil.lo - 1, fil.hi + 2):
            moved = apply_to_subspace(n_mat, fil.at(m))
            ok = ok and contains(fil.at(m - 2), moved)
    report(8, "N W_m inside W_(m-2) under commutation", ok and checked >= 30, f"{checked} pairs")


CLI_FIXTURES = [
    ("wmc-check", {"n": [[0, 1], [0, 0]], "phi": [[1, 0], [0, 5]], "q": 5, "i": 1}),
    ("monodromy-filtration", {"n": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}),
    ("weight-filtration", {"phi": [[1, 0], [0, 5]], "q": 5}),
    ("trop-model", {"lattice": {"rank": 1, "generators": [["2"]]}, "alpha": "1"}),
    (
        "trop-tower",
        {"lattice": {"rank": 1, "generators": [["2"]]}, "alpha": "1", "p": 3,
         "op": "preimages", "cell": 0, "steps": 1},
    ),
    (
        "bundle-extend",
        {"bundle": {"lattice": {"rank": 1, "generators": [["2"]]}, "sigma": [[0]],
                    "chi": ["1/5"]}, "alpha": "1", "p": 5},
    ),
    (
        "bundle-minlevel",
        {"bundle": {"lattice": {"rank": 1, "generators": [["2"]]}, "sigma": [[0]],
                    "chi": ["1/5"]}, "alpha": "1", "p": 5},
    ),
    (
        "bundle-construct-f",
        {"bundle": {"lattice": {"rank": 1, "generators": [["2"]]}, "sigma": [[0]],
                    "chi": ["1/5"]}, "alpha": "1/5"},
    ),
    (
        "bundle-verify-f",
        {"bundle": {"lattice": {"rank": 1, "generators": [["2"]]}, "sigma": [[0]],
                    "chi": ["1/5"]},
         "section": {"alpha": "1/5", "slopes": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                     "base_value": "0", "slope_increment": 0, "value_increment": "1/5"}},
    ),
    (
        "bundle-ample",
        {"bundle": {"lattice": {"rank": 1, "generators": [["2"]]}, "sigma": [[1]], "chi": ["0"]}},
    ),
]


def test_criterion_9_cli_determinism_and_roundtrip():
    start = time.monotonic()
    ok = True
    for command, payload in CLI_FIXTURES:
        args = [command, "--json", json.dumps(payload)]
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                main(args)
            outputs.append(buf.getvalue().encode())
        ok = ok and outputs[0] == outputs[1]
        # parse(serialize(parse(x))) == parse(x) at the report level
        rep = run(JobSpec(command, payload))
        doc = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
        ok = ok and doc == rep.to_dict()
    elapsed = time.monotonic() - start
    report(9, "CLI byte-identical reruns and JSON round-trip", ok and elapsed < 2.0, f"{elapsed:.2f}s")
