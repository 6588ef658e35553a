"""Seeded job generators and construction oracles for the three workloads.

Every job is one `wmtrop` CLI command with a JSON payload, plus an oracle
that checks the parsed report against what the construction guarantees.
The generators use only the standard library, never the program, so an
oracle can not inherit a defect of the code it checks.

Seeds change the basis the data is presented in (signed permutations
around a fixed unimodular core), the values, the variants and the job
order.  They do not change the size ladder or the entry sizes, so the
cost of a job mix stays steady from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Q = 5  # residue cardinality for every monodromy/weight job


@dataclass(frozen=True)
class Job:
    command: str
    payload: dict
    oracle: Callable[[dict], str | None]  # parsed report -> None or a reason
    rung: str  # size label for the per-rung medians, e.g. "dim24", "k200"
    cost: int  # relative size, used only to pick cheap jobs


# ---------------------------------------------------------------------------
# integer matrices


def _identity(d: int) -> list[list[int]]:
    return [[int(i == j) for j in range(d)] for i in range(d)]


def _mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _fixed_unimodular(d: int) -> tuple[list[list[int]], list[list[int]]]:
    """(U, U^-1), the same for every seed: d elementary +-1 row operations."""
    rng = random.Random(7919 * d + 17)
    u, u_inv = _identity(d), _identity(d)
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= c * row[i]
    return u, u_inv


def _signed_permutation(rng: random.Random, d: int) -> tuple[list[list[int]], list[list[int]]]:
    perm = list(range(d))
    rng.shuffle(perm)
    p, p_inv = [[0] * d for _ in range(d)], [[0] * d for _ in range(d)]
    for i, j in enumerate(perm):
        s = rng.choice((-1, 1))
        p[i][j] = s
        p_inv[j][i] = s
    return p, p_inv


def conjugator(rng: random.Random, d: int) -> tuple[list[list[int]], list[list[int]]]:
    """Seeded unimodular P = A U B with A, B signed permutations, and P^-1."""
    u, u_inv = _fixed_unimodular(d)
    a, a_inv = _signed_permutation(rng, d)
    b, b_inv = _signed_permutation(rng, d)
    return _mul(_mul(a, u), b), _mul(_mul(b_inv, u_inv), a_inv)


def _conjugate(m, p, p_inv):
    return _mul(_mul(p, m), p_inv)


def _block_diag(blocks: list[list[list[int]]]) -> list[list[int]]:
    d = sum(len(b) for b in blocks)
    out = [[0] * d for _ in range(d)]
    o = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[o + i][o : o + len(row)] = row
        o += len(b)
    return out


def _json_matrix(m) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def _det(rows: list[list[Fraction]]) -> Fraction:
    a = [list(r) for r in rows]
    n, out = len(a), Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise OracleMismatch(reason)


class OracleMismatch(Exception):
    """A report disagrees with what its construction guarantees."""


def _checked(fn: Callable[[dict], None]) -> Callable[[dict], str | None]:
    def oracle(report: dict) -> str | None:
        try:
            fn(report)
        except OracleMismatch as err:
            return str(err)
        except (KeyError, TypeError, ValueError, IndexError) as err:
            return f"malformed report: {err!r}"
        return None

    return oracle


# ---------------------------------------------------------------------------
# wmc_tate: Sym^n of the Tate block, b copies, conjugated


def _tate_blocks(n: int, b: int, reverse_phi: bool) -> tuple[list[list[int]], list[list[int]]]:
    jordan = [[int(j == i + 1) for j in range(n + 1)] for i in range(n + 1)]
    powers = [Q**j for j in range(n + 1)]
    if reverse_phi:
        powers.reverse()
    phi = [[powers[i] if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
    return _block_diag([jordan] * b), _block_diag([phi] * b)


def _wmc_job(rng: random.Random, n: int, b: int, variant: str) -> Job:
    """variant: "pass", "wrong_i" (filtration_mismatch) or "commutation"."""
    d = (n + 1) * b
    nil, phi = _tate_blocks(n, b, reverse_phi=variant == "commutation")
    p, p_inv = conjugator(rng, d)
    i = n + rng.choice((-2, 2)) if variant == "wrong_i" else n
    payload = {
        "n": _json_matrix(_conjugate(nil, p, p_inv)),
        "phi": _json_matrix(_conjugate(phi, p, p_inv)),
        "q": Q,
        "i": i,
    }
    # gr_m (m = -n, -n+2, ..., n) is spanned by the e_j with 2j - n = m, whose
    # Frobenius weight is 2j, or 2(n - j) when Phi is reversed
    jumps = range(-n, n + 1, 2)
    if variant == "commutation":
        weights = {str(m): [[n - m, b]] for m in jumps}
        kinds = {"commutation", "filtration_mismatch", "graded_weight"}
    else:
        weights = {str(m): [[n + m, b]] for m in jumps}
        kinds = set() if variant == "pass" else {"filtration_mismatch", "graded_weight"}

    def check(rep: dict) -> None:
        body = rep["payload"]
        _expect(rep["status"] == ("pass" if variant == "pass" else "fail"), f"status {rep['status']}")
        _expect(body["commutation_ok"] == (variant != "commutation"), "commutation_ok")
        _expect(body["filtrations_equal"] == (variant == "pass"), "filtrations_equal")
        _expect(body["graded_weights"] == weights, "graded weights differ from the construction")
        got = {v["kind"] for v in body["violations"]}
        _expect(got == kinds, f"violation kinds {sorted(got)}, expected {sorted(kinds)}")

    return Job("wmc-check", payload, _checked(check), f"dim{d}", d**3)


# (n, b, variant, copies per cycle), dims 4 to 24.  The median lands in the
# middle of the ten identical (3, 2) jobs and p90 in the middle of the three
# (7, 2) jobs, not on a boundary between rungs of very different cost.
WMC_MIX = [
    (3, 1, "pass", 9), (1, 4, "pass", 4), (3, 2, "wrong_i", 1), (3, 2, "commutation", 1),
    (3, 2, "pass", 10), (2, 4, "pass", 3), (5, 2, "pass", 3), (5, 2, "wrong_i", 1),
    (2, 4, "commutation", 1), (3, 4, "pass", 2), (7, 2, "pass", 3), (4, 4, "pass", 1),
    (3, 6, "pass", 1),
]  # fmt: skip


def wmc_tate(rng: random.Random) -> list[list[Job]]:
    return [[_wmc_job(rng, n, b, variant)] for n, b, variant, k in WMC_MIX for _ in range(k)]


# ---------------------------------------------------------------------------
# weights_mix: Phi with a product of pure Weil factors as char poly


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _cyclotomic(m: int) -> list[int]:
    """Coefficients of Phi_m, lowest degree first."""
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            den = _cyclotomic(d)
            quo = [0] * (len(num) - len(den) + 1)
            for k in range(len(quo) - 1, -1, -1):  # exact division by a monic
                quo[k] = num[k + len(den) - 1]
                for t, c in enumerate(den):
                    num[k + t] -= quo[k] * c
            num = quo
    return num


def _weil_cyclotomic(m: int, w: int) -> list[int]:
    """Phi_m with its roots scaled by q^(w/2): pure of even weight w."""
    c = _cyclotomic(m)
    deg, h = len(c) - 1, w // 2
    return [ck * Q ** (h * (deg - k)) for k, ck in enumerate(c)]


def _weil_quadratic(a: int, w: int) -> list[int]:
    """x^2 - a x + q^w with a^2 < 4 q^w: irreducible and pure of weight w."""
    return [Q**w, -a, 1]


def _companion(poly: list[int]) -> list[list[int]]:
    d = len(poly) - 1
    return [[int(j == i - 1) for j in range(d - 1)] + [-poly[i]] for i in range(d)]


def _weights_job(rng: random.Random, spec: list[tuple], companion: bool) -> Job:
    """spec items: ("cyclo", m, w, mult), Phi_m scaled to even weight w, or
    ("quad", w, mult), a seeded odd-weight quadratic.  `companion` presents
    Phi as one companion matrix of the product, else as conjugated blocks."""
    factors: list[tuple[list[int], int, int]] = []  # (poly, weight, mult)
    for kind, *args in spec:
        if kind == "cyclo":
            m, w, mult = args
            factors.append((_weil_cyclotomic(m, w), w, mult))
        else:
            w, mult = args
            bound = int((4 * Q**w) ** 0.5)
            a = rng.choice([x for x in range(-bound, bound + 1) if x and x * x < 4 * Q**w])
            factors.append((_weil_quadratic(a, w), w, mult))
    polys = [f for f, _, m in factors for _ in range(m)]
    if companion:
        product = [1]
        for f in polys:
            product = _poly_mul(product, f)
        phi = _companion(product)
        p, p_inv = _signed_permutation(rng, len(phi))
    else:
        phi = _block_diag([_companion(f) for f in polys])
        p, p_inv = conjugator(rng, len(phi))
    d = len(phi)
    dims: dict[int, int] = {}
    for f, w, m in factors:
        dims[w] = dims.get(w, 0) + (len(f) - 1) * m
    lo, hi = min(dims), max(dims)
    cumulative = {str(j): sum(v for w, v in dims.items() if w <= j) for j in range(lo, hi + 1)}

    def check(rep: dict) -> None:
        body = rep["payload"]
        _expect(rep["status"] == "pass", f"status {rep['status']}")
        got = {int(w): s["dim"] for w, s in body["weights"].items()}
        _expect(got == dims, f"weight dims {got}, built {dims}")
        fil = body["filtration"]
        _expect((fil["ambient_dim"], fil["lo"], fil["hi"]) == (d, lo, hi), "filtration range")
        _expect({j: s["dim"] for j, s in fil["pieces"].items()} == cumulative, "filtration dims")

    payload = {"phi": _json_matrix(_conjugate(phi, p, p_inv)), "q": Q}
    return Job("weight-filtration", payload, _checked(check), f"deg{d}", d**3)


def _impure_job(rng: random.Random) -> Job:
    """x^2 - a x + q with a^2 > 4q: passes the exact tests, fails the numeric one."""
    a = rng.choice((7, 8, 9))  # a^2 - 4q is not a square, so the factor is irreducible
    blocks = [_companion([Q, -a, 1]), _companion(_weil_quadratic(rng.choice((1, -1, 3)), 1))]
    phi = _block_diag(blocks)
    p, p_inv = conjugator(rng, len(phi))

    def check(rep: dict) -> None:
        _expect(rep["status"] == "error", f"status {rep['status']}")
        _expect("not weight-pure" in " ".join(rep["diagnostics"]), "diagnostic")

    payload = {"phi": _json_matrix(_conjugate(phi, p, p_inv)), "q": Q}
    return Job("weight-filtration", payload, _checked(check), "impure", 64)


# (factors, copies per presentation per cycle).  The cyclotomic factor of each
# rung is fixed, so seeds change only the basis and the quadratics, and the
# cost stays steady.  Of the 44 jobs, 12 run below the sixteen degree-8
# jobs and 16 above them, so the median lands inside them.  The degree-20
# inputs cost about 1.5 times more as conjugated blocks than as companions;
# p90 lands inside the four conjugated ones, under the two degree-24 jobs.
WEIGHTS_MIX = [
    ([("quad", 1, 1), ("quad", 3, 1)], 3),
    ([("cyclo", 12, 2, 1), ("quad", 1, 1)], 2),
    ([("cyclo", 9, 2, 1), ("quad", 3, 1)], 8),
    ([("cyclo", 15, 0, 1), ("quad", 1, 2)], 1),
    ([("cyclo", 21, 2, 1), ("quad", 1, 1)], 1),
    ([("cyclo", 40, 0, 1), ("quad", 3, 1)], 1),
    ([("cyclo", 11, 2, 1), ("cyclo", 24, 0, 1), ("quad", 1, 1)], 4),
    ([("cyclo", 35, 2, 1)], 1),
]


def weights_mix(rng: random.Random) -> list[list[Job]]:
    jobs = [
        _weights_job(rng, spec, companion)
        for spec, copies in WEIGHTS_MIX
        for companion in (False, True)
        for _ in range(copies)
    ]
    jobs += [_impure_job(rng) for _ in range(2)]
    return [[job] for job in jobs]


# ---------------------------------------------------------------------------
# trop_witness: rank-1 witnesses and small-rank lattice models


def _frac_str(x: Fraction) -> str:
    return str(x)


def _rank1_bundle(rng: random.Random, k: int) -> tuple[dict, Fraction, int, Fraction]:
    """Bundle on the lattice (k alpha) Z that extends at width alpha."""
    alpha = Fraction(1, rng.choice((1, 2, 3, 5)))
    d = rng.randint(-3, 3)
    v = rng.randint(-3 * k, 3 * k) * alpha
    bundle = {
        "lattice": {"rank": 1, "generators": [[_frac_str(k * alpha)]]},
        "sigma": [[d]],
        "chi": [_frac_str(v)],
    }
    return bundle, alpha, d, v


def _witness_pair(rng: random.Random, k: int) -> list[Job]:
    """bundle-construct-f, then bundle-verify-f on the section it must return."""
    bundle, alpha, d, v = _rank1_bundle(rng, k)
    total = int(v / alpha)
    base, rem = divmod(total, k)
    canonical = {
        "alpha": _frac_str(alpha),
        "slopes": [base + 1] * rem + [base] * (k - rem),
        "base_value": "0",
        "slope_increment": d,
        "value_increment": _frac_str(v),
    }

    def check(rep: dict) -> None:
        _expect(rep["status"] == "pass", f"status {rep['status']}")
        sec = rep["payload"]["section"]
        slopes = sec["slopes"]
        _expect(len(slopes) == k and all(isinstance(s, int) for s in slopes), "slope count")
        _expect(sum(slopes) == total, "slopes do not sum to v/alpha")
        _expect(max(slopes) - min(slopes) <= 1, "slopes not spread evenly")
        _expect(sec == canonical, "section differs from the canonical witness")

    payload = {"bundle": bundle, "alpha": _frac_str(alpha)}
    construct = Job("bundle-construct-f", payload, _checked(check), f"k{k}", k)
    return [construct, _verify_job(bundle, canonical, k, alpha, "")]


def _perturbed_witness(rng: random.Random, k: int, perturb: str) -> Job:
    """A seeded valid witness, or one broken as `perturb` says ("slope", "increment")."""
    bundle, alpha, d, v = _rank1_bundle(rng, k)
    slopes = [0] * k
    slopes[0] = int(v / alpha)
    for _ in range(k):  # zero-sum moves keep the witness valid
        i, j, t = rng.randrange(k), rng.randrange(k), rng.randint(-2, 2)
        slopes[i] += t
        slopes[j] -= t
    inc = d
    if perturb == "slope":
        slopes[rng.randrange(k)] += rng.choice((-1, 1))
    elif perturb == "increment":
        inc += rng.choice((-1, 1))
    section = {
        "alpha": _frac_str(alpha),
        "slopes": slopes,
        "base_value": _frac_str(Fraction(rng.randint(-5, 5), 7)),
        "slope_increment": inc,
        "value_increment": _frac_str(v),
    }
    return _verify_job(bundle, section, k, alpha, perturb)


def _verify_job(bundle: dict, section: dict, k: int, alpha: Fraction, perturb: str) -> Job:
    # a slope sum off by one breaks continuity exactly at the two period faces
    broken = {_frac_str(k * alpha), _frac_str(2 * k * alpha)} if perturb == "slope" else set()

    def check(rep: dict) -> None:
        _expect(rep["status"] == ("fail" if perturb else "pass"), f"status {rep['status']}")
        faces = rep["payload"]["faces"]
        _expect(len(faces) == 2 * k, f"{len(faces)} faces, expected {2 * k}")
        got = {f["position"] for f in faces if not f["continuous"]}
        _expect(got == broken, f"discontinuities at {sorted(got)}")
        _expect(rep["payload"]["ok"] == (not perturb), "ok flag")

    payload = {"bundle": bundle, "section": section}
    return Job("bundle-verify-f", payload, _checked(check), f"k{k}", k * k)


def _cube_lattice(rng: random.Random, r: int, c: Fraction) -> tuple[dict, list[list[int]]]:
    """Generators c P for a seeded unimodular P, so the lattice is c Z^r; and P^-1."""
    sign = [[rng.choice((-1, 1))]]
    p, p_inv = conjugator(rng, r) if r > 1 else (sign, sign)
    gens = [[_frac_str(c * x) for x in row] for row in p]
    return {"rank": r, "generators": gens}, p_inv


def _model_job(rng: random.Random, r: int) -> Job:
    width = Fraction(1, rng.choice((1, 2, 3)))
    p = rng.choice((2, 3))
    level = rng.choice((0, 1))
    m = rng.choice((1, 2))
    alpha = width * p**level
    c = alpha * m  # generators in alpha Z, so every level up to `level` divides
    lattice, _ = _cube_lattice(rng, r, c)
    count = (c / width) ** r
    basis = ";".join(",".join(_frac_str(c if i == j else Fraction(0)) for j in range(r)) for i in range(r))
    desc = f"rank={r}|lattice=[{basis}]|alpha={alpha}|p={p}|level={level}|components={count}"

    def check(rep: dict) -> None:
        _expect(rep["status"] == "pass", f"status {rep['status']}")
        body = rep["payload"]
        _expect(body["components"] == count, f"components {body['components']}, expected {count}")
        _expect(body["descriptor"] == desc, "descriptor")
        if r == 1:
            _expect(len(body["dual_graph"]["vertices"]) == count, "dual graph")

    payload = {"lattice": lattice, "alpha": _frac_str(alpha), "p": p, "level": level}
    return Job("trop-model", payload, _checked(check), f"rank{r}", r**3)


def _tower_job(rng: random.Random) -> Job:
    p, steps = rng.choice((2, 3, 5)), rng.choice((1, 2, 3))
    count = rng.randint(2, 40)
    alpha = Fraction(1, rng.choice((1, 2, 3)))
    cell = rng.randrange(count)
    expected = [cell + t * count for t in range(p**steps)]
    lattice = {"rank": 1, "generators": [[_frac_str(count * alpha)]]}

    def check(rep: dict) -> None:
        _expect(rep["status"] == "pass", f"status {rep['status']}")
        _expect(rep["payload"]["preimages"] == expected, "preimages")

    payload = {"lattice": lattice, "alpha": _frac_str(alpha), "p": p, "op": "preimages",
               "cell": cell, "steps": steps}  # fmt: skip
    return Job("trop-tower", payload, _checked(check), "rank1", 1)


def _bundle_on_cube(rng: random.Random, r: int, form: list[list[int]], chi: list[Fraction]) -> dict:
    """Bundle on c Z^r (c = 1) whose induced form G^T sigma equals `form`."""
    lattice, p_inv = _cube_lattice(rng, r, Fraction(1))
    # G = P, so sigma = P^-T form, integral because P is unimodular
    sigma = _mul([list(col) for col in zip(*p_inv)], form)
    return {"lattice": lattice, "sigma": _json_matrix(sigma), "chi": [_frac_str(x) for x in chi]}


def _ample_job(rng: random.Random, r: int) -> Job:
    v = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
    form = [[sum(v[t][i] * v[t][j] for t in range(r)) + int(i == j) for j in range(r)] for i in range(r)]
    if rng.random() < 0.3:  # a negative diagonal entry: not positive definite
        s = rng.randrange(r)
        form[s][s] = -form[s][s]
    bundle = _bundle_on_cube(rng, r, form, [Fraction(0)] * r)
    minors = [_det([[Fraction(x) for x in row[:t]] for row in form[:t]]) for t in range(1, r + 1)]
    ample = all(m > 0 for m in minors)

    def check(rep: dict) -> None:
        _expect(rep["status"] == ("pass" if ample else "fail"), f"status {rep['status']}")
        body = rep["payload"]
        _expect(body["ample"] == ample, "ample flag")
        _expect(body["form"] == _json_matrix(form), "form")
        _expect(body["leading_minors"] == [_frac_str(m) for m in minors], "leading minors")

    return Job("bundle-ample", {"bundle": bundle}, _checked(check), f"rank{r}", r**3)


def _level_job(rng: random.Random, r: int, command: str) -> Job:
    """bundle-minlevel or bundle-extend on a degree-0 bundle over Z^r, width 1."""
    p = rng.choice((2, 3))
    exps = [rng.randint(0, 3) for _ in range(r)]
    nums = [t * p + 1 for t in range(-9, 10) if (t * p + 1) % 7]
    chi = [Fraction(rng.choice(nums), p**e) for e in exps]
    bad = rng.random() < 0.25
    if bad:
        chi[rng.randrange(r)] /= 7  # a prime coprime to p in a denominator
    form = [[0] * r for _ in range(r)]
    bundle = _bundle_on_cube(rng, r, form, chi)
    level = max(exps)
    extends = all(x.denominator == 1 for x in chi)

    def check_minlevel(rep: dict) -> None:
        body = rep["payload"]
        if bad:
            _expect(rep["status"] == "fail" and body["offending_primes"] == [7], "offending primes")
        else:
            _expect(rep["status"] == "pass" and body["level"] == level, f"level {body.get('level')}")
            _expect(body["width"] == _frac_str(Fraction(1, p**level)), "width")

    def check_extend(rep: dict) -> None:
        _expect(rep["status"] == ("pass" if extends else "fail"), f"status {rep['status']}")
        _expect(rep["payload"]["extends"] is extends, "extends flag")
        if not extends and not bad:
            _expect(rep["diagnostics"] == [f"minimal level {level}"], "minimal level diagnostic")

    check = check_minlevel if command == "bundle-minlevel" else check_extend
    payload = {"bundle": bundle, "alpha": "1", "p": p}
    return Job(command, payload, _checked(check), f"rank{r}", r**3)


# cell counts of the rank-1 witnesses; k = 2000 (about 27 s per verify) is
# left out.  p90 lands inside the eight k = 200 verifies.
WITNESS_KS = (20, 50, 100, 200, 350, 500)
PERTURBED = ((200, ""), (200, "increment"), (200, "slope"), (50, "slope")) * 2
# standalone constructs, mostly parsing and rendering k slopes: the small
# lattice commands around them change cost with the seed, so p50 is put
# inside this group of alike jobs
MEDIAN_K, MEDIAN_COPIES = 1200, 16


def trop_witness(rng: random.Random) -> list[list[Job]]:
    groups = [_witness_pair(rng, k) for k in WITNESS_KS]
    groups += [_witness_pair(rng, MEDIAN_K)[:1] for _ in range(MEDIAN_COPIES)]
    groups += [[_perturbed_witness(rng, k, how)] for k, how in PERTURBED]
    for r in range(2, 9):
        groups += [[_model_job(rng, r)], [_ample_job(rng, r)]]
        groups += [[_level_job(rng, r, "bundle-minlevel")], [_level_job(rng, r, "bundle-extend")]]
    groups += [[_model_job(rng, 1)], [_tower_job(rng)], [_tower_job(rng)]]
    return groups


WORKLOADS = {"wmc_tate": wmc_tate, "weights_mix": weights_mix, "trop_witness": trop_witness}


def generate(workload: str, seed: int) -> list[Job]:
    """The job list of one cycle: groups of jobs (a construct and the verify
    that follows it) in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    groups = WORKLOADS[workload](rng)
    rng.shuffle(groups)
    return [job for group in groups for job in group]
