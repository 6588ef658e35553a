"""Independent oracles: deliberately different computation paths from the
production code, used to cross-check it.

They read matrices through `row_tuples` and `m[i, j]` and do their own
arithmetic in Fractions: a matrix applied to a vector is a Fraction
product, a vector lies in a span when adding it keeps the Fraction rank,
and a map induced on quotients is solved for by a Fraction RREF, so the
induced-map oracles never run on ratlin's integer elimination.  The
polynomial oracles run on Fraction coefficient lists, lowest degree
first, with long division, the derivative and Horner of their own, so
none of them reaches one of ratlin's Z[x] kernels.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

import mpmath

from wmtrop.cli import DIMENSION_LIMIT, SchemaError, _rational_ints
from wmtrop.monodromy import (
    Filtration,
    FrobeniusData,
    NilpotentOperator,
    NotPureError,
    WeightDecomposition,
    _weigh,
    monodromy_filtration,
    weight_decomposition,
    weight_filtration,
    weil_weight,
)
from wmtrop.polyfactor import factor_rational
from wmtrop.ratlin import (
    Matrix,
    RatPoly,
    Subspace,
    char_poly,
    image,
    kernel,
    subspace_intersect,
    subspace_sum,
)
from wmtrop.tropbundle import (
    BundleData,
    FaceTransition,
    SectionReport,
    TropicalSection,
    _rank1_generator_data,
    form_matrix,
)


def fraction_echelon(rows: list[list[Fraction]]) -> tuple[list[int], Fraction]:
    """In-place row echelon form with unit pivots, in Fraction arithmetic.

    Returns the pivot columns and the signed product of the pivots divided
    out (the sign flips on each row swap): for a square input with a pivot
    in every column, that product is the determinant.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    scale = Fraction(1)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            scale = -scale
        piv = rows[r][c]
        if piv != 1:
            scale *= piv
            inv = 1 / piv
            rows[r] = [v * inv for v in rows[r]]
        rr = rows[r]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f != 0:
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
    return pivots, scale


def fraction_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form in Fraction arithmetic: forward
    elimination with unit pivots, then back substitution."""
    pivots, _ = fraction_echelon(rows)
    for r in range(len(pivots) - 1, 0, -1):
        c, rr = pivots[r], rows[r]
        for i in range(r):
            f = rows[i][c]
            if f != 0:
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rr)]
    return rows, pivots


def _rows(m: Matrix) -> list[list[Fraction]]:
    """m's entries as fresh lists, for an elimination in place."""
    return [list(r) for r in m.row_tuples]


def fraction_rank(rows) -> int:
    """The rank of Fraction or int rows, by fraction_echelon."""
    return len(fraction_echelon([list(r) for r in rows])[0])


def fraction_apply(m: Matrix, v) -> tuple[Fraction, ...]:
    """m v, one Fraction dot product per row."""
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m.row_tuples)


def fraction_product(a: Matrix, b: Matrix) -> Matrix:
    """a * b with one Fraction multiply-add per nonzero term."""
    rows_b = b.row_tuples
    cols_b = [[r[j] for r in rows_b] for j in range(b.cols)]
    out = []
    for row in a.row_tuples:
        out_row = []
        for col in cols_b:
            acc = Fraction(0)
            for x, y in zip(row, col):
                if x and y:
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return Matrix(out, cols=b.cols)


def fraction_power(m: Matrix, k: int) -> Matrix:
    """m^k, for a square m and k >= 0, by k fraction_products."""
    out = Matrix.identity(m.rows)
    for _ in range(k):
        out = fraction_product(out, m)
    return out


def power_ranks(n_matrix: Matrix) -> tuple[int, ...] | None:
    """(rank N^0, ..., rank N^index) of a nilpotent N, each power by
    fraction_product and each rank by fraction_rank, or None when
    N^d != 0, d = dim, so that N is not nilpotent."""
    d = n_matrix.rows
    power, ranks = Matrix.identity(d), [d]
    while ranks[-1]:
        if len(ranks) > d:
            return None
        power = fraction_product(power, n_matrix)
        ranks.append(fraction_rank(power.row_tuples))
    return tuple(ranks)


def fraction_det(m: Matrix) -> Fraction:
    pivots, scale = fraction_echelon(_rows(m))
    return scale if len(pivots) == m.rows else Fraction(0)


def fraction_inverse(m: Matrix) -> Matrix | None:
    """The inverse from the RREF of [m | I], or None if m is singular."""
    n = m.rows
    aug = [list(r) + [Fraction(i == j) for j in range(n)] for i, r in enumerate(m.row_tuples)]
    rows, pivots = fraction_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return Matrix([r[n:] for r in rows], cols=n)


def fraction_kernel(m: Matrix) -> Subspace:
    """The kernel read off the Fraction RREF, one vector per free column,
    and brought to canonical form by a second Fraction RREF."""
    rows, pivots = fraction_rref(_rows(m))
    n = m.cols
    vecs = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        vecs.append(v)
    basis, pivots = fraction_rref(vecs)
    return Subspace(n, Matrix(basis[: len(pivots)], cols=n))


def jordan_filtration_pieces(n_matrix: Matrix) -> dict[int, Subspace]:
    """Filtration of a nilpotent matrix built from an explicit Jordan basis.

    Chains are extracted greedily from the kernels of the powers, top
    length first; a chain of length s contributes its vectors at indices
    s-1, s-3, ..., 1-s, and piece j is the span of everything at index
    <= j.  Independent of both the recurrence and the closed formula.
    """
    d = n_matrix.rows
    powers = [Matrix.identity(d)]
    for _ in range(d):
        powers.append(powers[-1] * n_matrix)
    kers = [kernel(p) for p in powers]
    nilp = next(k for k in range(d + 1) if kers[k].dim == d)

    chains: list[tuple[tuple[Fraction, ...], int]] = []
    for s in range(nilp, 0, -1):
        covered = list(kers[s - 1].basis.row_tuples)
        for top, length in chains:
            covered.append(fraction_apply(powers[length - s], top))
        rank = fraction_rank(covered)
        for w in kers[s].basis.row_tuples:
            if fraction_rank(covered + [w]) > rank:
                chains.append((w, s))
                covered.append(w)
                rank += 1

    indexed: list[tuple[int, tuple[Fraction, ...]]] = []
    all_vecs = []
    for top, s in chains:
        assert all(x == 0 for x in fraction_apply(powers[s], top))
        assert any(x != 0 for x in fraction_apply(powers[s - 1], top))
        for k in range(s):
            vec = fraction_apply(powers[k], top)
            indexed.append((s - 1 - 2 * k, vec))
            all_vecs.append(vec)
    assert Subspace.span(d, all_vecs).dim == d, "Jordan chain vectors must form a basis"

    return {
        j: Subspace.span(d, [v for idx, v in indexed if idx <= j]) for j in range(-d, d + 1)
    }


def closed_formula_pieces(n_matrix: Matrix) -> dict[int, Subspace]:
    """Pieces Fil_j, -d-1 <= j <= d, of the filtration of a nilpotent matrix
    by Deligne's closed formula: Fil_j is the sum over j1 - j2 = j,
    j1, j2 >= 0, of ker N^(j1+1) /\\ im N^(j2).  Every term is built, with
    no reuse between indices and no early exit.
    """
    d = n_matrix.rows
    powers = [Matrix.identity(d)]
    for _ in range(2 * d + 1):
        powers.append(powers[-1] * n_matrix)
    kers = [kernel(p) for p in powers]
    ims = [image(p) for p in powers]
    pieces = {}
    for j in range(-d - 1, d + 1):
        acc = Subspace.zero(d)
        for j1 in range(max(0, j), d + 1):
            acc = subspace_sum(acc, subspace_intersect(kers[j1 + 1], ims[j1 - j]))
        pieces[j] = acc
    return pieces


def kernel_intersect(u: Subspace, v: Subspace) -> Subspace:
    """u /\\ v from the kernel of [U^T | -V^T]: x*U = y*V gives the vector x*U."""
    if u.is_zero() or v.is_zero():
        return Subspace.zero(u.ambient_dim)
    u_rows = u.basis.row_tuples
    cols = [list(r) for r in u_rows] + [[-x for x in r] for r in v.basis.row_tuples]
    stacked = Matrix.from_columns(cols, u.ambient_dim)
    vecs = []
    for coeffs in kernel(stacked).basis.row_tuples:
        vec = [Fraction(0)] * u.ambient_dim
        for c, row in zip(coeffs[: u.dim], u_rows):
            vec = [a + c * b for a, b in zip(vec, row)]
        vecs.append(vec)
    return Subspace.span(u.ambient_dim, vecs)


def running_sum_weight_filtration(w: WeightDecomposition) -> Filtration:
    """W_m as the running subspace_sum of the components of weight <= m,
    from the zero space up, one sum per weight: no end taken as given."""
    if not w.components:
        return Filtration.trivial(w.ambient_dim)
    ws = w.weights()
    pieces = []
    acc = Subspace.zero(w.ambient_dim)
    for j in range(ws[0], ws[-1] + 1):
        if j in w.components:
            acc = subspace_sum(acc, w.components[j])
        pieces.append(acc)
    return Filtration(w.ambient_dim, ws[0], pieces)


def greedy_quotient_reps(big: Subspace, small: Subspace) -> list[tuple[Fraction, ...]]:
    """Rows of big's basis independent modulo small, one rank test each."""
    reps = []
    current = list(small.basis.row_tuples)
    for v in big.basis.row_tuples:
        if fraction_rank(current + [v]) > len(current):
            reps.append(v)
            current.append(v)
    return reps


def solve_induced_matrix(
    op: Matrix, src_big: Subspace, src_small: Subspace, dst_big: Subspace, dst_small: Subspace
) -> Matrix:
    """Induced map on quotients: the image of each source representative
    is solved for on [dst_small | dst reps] by a Fraction RREF of its own."""
    src_reps = greedy_quotient_reps(src_big, src_small)
    dst_reps = greedy_quotient_reps(dst_big, dst_small)
    basis = [*dst_small.basis.row_tuples, *dst_reps]
    cols = []
    for v in src_reps:
        w = fraction_apply(op, v)
        rows, pivots = fraction_rref([[*(b[r] for b in basis), x] for r, x in enumerate(w)])
        if len(basis) in pivots:
            raise ArithmeticError("operator does not map into the target subspace")
        cols.append([rows[k][-1] for k in range(dst_small.dim, len(basis))])
    return Matrix.from_columns(cols, len(dst_reps))


def gaussian_det(m: Matrix) -> Fraction:
    """Determinant by its own elimination: pivots stay unscaled, only the
    rows below a pivot are cleared, each row swap flips the sign, and the
    first column without a pivot ends the loop with 0."""
    n = m.rows
    a = _rows(m)
    sign = 1
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            sign = -sign
        piv = a[c][c]
        out *= piv
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / piv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out * sign


def exact_q_power_recursive(r: Fraction, q: int) -> int | None:
    """m with r == q**m, or None: divides an integer r > 1 by q until it
    stops, and reduces r < 1 to its reciprocal."""
    if r <= 0:
        return None
    if r == 1:
        return 0
    if r > 1:
        if r.denominator != 1:
            return None
        num, m = r.numerator, 0
        while num % q == 0:
            num //= q
            m += 1
        return m if num == 1 and m > 0 else None
    inv = exact_q_power_recursive(1 / r, q)
    return -inv if inv is not None else None


def numeric_weil_weight(g: RatPoly, q: int) -> int:
    """weil_weight by a numeric check of every root's modulus.

    The weight j comes from the constant term, |c0|^2 = q^(j deg g), and
    every complex root, found by mpmath at 64+ decimal digits, must have
    squared modulus within 10^-20 of q^j; that also makes the roots
    stable under r -> q^j / r, so no reciprocity test runs.  Raises
    NotPureError otherwise.
    """
    n, c0 = g.degree, g.coeffs[0]
    m = exact_q_power_recursive(c0 * c0, q) if c0 else None
    if m is None or m % n:
        raise NotPureError(g, q, "constant term is not a power of q of the right degree")
    j = m // n
    # enough digits that the absolute comparison against q^j stays sharp
    # even when q^j itself is large
    dps = max(64, 50 + abs(j) * len(str(q)))
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(g.coeffs)]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=2 * dps)
        target = mpmath.mpf(q) ** j
        if any(abs(abs(r) ** 2 - target) > mpmath.mpf(10) ** -20 for r in roots):
            raise NotPureError(g, q, f"a root has squared modulus away from q^{j}")
    return j


def factoring_weights(cp: RatPoly, q: int) -> dict[int, RatPoly]:
    """monodromy._weigh by factoring over Q: h_j is the product, with
    multiplicity, of the irreducible factors that weil_weight puts at
    weight j; NotPureError at the first factor of no integer weight."""
    by_weight: dict[int, RatPoly] = {}
    for g, mult in factor_rational(cp):
        j = weil_weight(g, q)
        by_weight[j] = by_weight.get(j, RatPoly.one()) * g**mult
    return by_weight


# polynomials as coefficient lists, lowest degree first, with no trailing
# zero: the zero polynomial is []


def trimmed(c) -> list:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def long_sum(a: list, b: list) -> list:
    return trimmed([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def long_product(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def long_divmod(a: list, b: list) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder over Q, long-hand on Fraction lists, for b != []."""
    rem, quo = [Fraction(x) for x in a], [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = rem[k + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[k + j] -= quo[k] * y
    return trimmed(quo), trimmed(rem)


def derivative(a: list) -> list:
    return [k * c for k, c in enumerate(a)][1:]


def horner(a, x) -> Fraction:
    """The value at x of the polynomial with coefficients a."""
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def _euclid(a: list, b: list) -> list[Fraction]:
    """The monic gcd of two coefficient lists by Euclid's remainders over Q."""
    while b:
        a, b = b, long_divmod(a, b)[1]
    return [Fraction(x) / a[-1] for x in a]


def fraction_poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd by the Euclidean algorithm over Q, in Fraction arithmetic."""
    return RatPoly(_euclid(list(a.coeffs), list(b.coeffs)))


def fraction_squarefree_decomposition(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """Yun's algorithm over Q on the monic input, with Euclid's gcd."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    f = _euclid(list(p.coeffs), [])
    fp = derivative(f)
    g = _euclid(f, fp)
    c = long_divmod(f, g)[0]
    d = long_sum(long_divmod(fp, g)[0], [-x for x in derivative(c)])
    out = []
    i = 1
    while len(c) > 1:
        a = _euclid(c, d)
        c = long_divmod(c, a)[0]
        d = long_sum(long_divmod(d, a)[0], [-x for x in derivative(c)])
        if len(a) > 1:
            out.append((RatPoly(a), i))
        i += 1
    return out


def fraction_sign_changes(seq: list[list[Fraction]], x: Fraction) -> int:
    signs = [v > 0 for v in (horner(a, x) for a in seq) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def fraction_sturm_sequence(f: RatPoly) -> list[list[Fraction]]:
    """The classical Sturm sequence of f's squarefree part, as coefficient
    lists: negated remainders over Q."""
    a = list(f.coeffs)
    sf = long_divmod(a, _euclid(a, derivative(a)))[0]
    seq = [sf, derivative(sf)]
    while len(seq[-1]) > 1:
        seq.append([-x for x in long_divmod(seq[-2], seq[-1])[1]])
    return seq


def fraction_roots_in(f: RatPoly, lo: Fraction, hi: Fraction) -> bool:
    """Whether every complex root of f is real and in [lo, hi]: the Sturm
    sequence counts the squarefree part's distinct roots in (lo, hi]."""
    seq = fraction_sturm_sequence(f)
    sf = seq[0]
    inside = fraction_sign_changes(seq, lo) - fraction_sign_changes(seq, hi) + (horner(sf, lo) == 0)
    return inside == len(sf) - 1


def _rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    num = math.gcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


def rational_gcd_fold(values: list[Fraction]) -> Fraction:
    """gcd of rationals folded pairwise: each step takes the gcd of two
    numerators over the lcm of two denominators, 0 acting as identity."""
    g = Fraction(0)
    for x in values:
        g = _rational_gcd(g, x)
    return g


def rational_gcd_bruteforce(values: list[Fraction]) -> Fraction:
    """gcd of rationals via a single common denominator and integer gcd."""
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    g = 0
    for v in values:
        g = math.gcd(g, abs(int(v * den)))
    return Fraction(g, den)


def slope_in_cell(f: TropicalSection, j: int) -> int:
    """The slope of f on the cell [j*alpha, (j+1)*alpha], for any integer j."""
    t, i = divmod(j, len(f.slopes))
    return f.slopes[i] + t * f.slope_increment


def section_value(f: TropicalSection, u) -> Fraction:
    """f(u): the value at the corner left of u plus the cell's slope times
    the distance from it."""
    u = Fraction(u)
    j = math.floor(u / f.alpha)
    return f.corner_value(j) + slope_in_cell(f, j) * (u - j * f.alpha)


def section_ok_bruteforce(b: BundleData, f: TropicalSection) -> bool:
    """Sample-based verdict on a rank-1 witness.

    Samples the function at every cell corner and midpoint over one
    period plus one translate and checks affineness with integer slopes,
    matching one-sided limits at faces, and the periodic identity
    f(u + period) = f(u) + z(u) with z computed directly from the bundle
    fields.  Exact Fraction arithmetic throughout.
    """
    g = b.lattice.generators[0, 0]
    lam = abs(g)
    sign = 1 if g > 0 else -1
    if f.alpha * len(f.slopes) != lam:
        return False
    s11 = form_matrix(b)[0, 0]
    z_slope = sign * b.sigma[0, 0]
    z_const = sign * b.chi_vals[0] + (Fraction(sign * (sign - 1), 2)) * s11

    k = len(f.slopes)
    half = f.alpha / 2
    for j in range(2 * k):
        left = j * f.alpha
        mid = left + half
        right = left + f.alpha
        v_left, v_mid, v_right = (section_value(f, u) for u in (left, mid, right))
        slope = (v_mid - v_left) / half
        if slope.denominator != 1:
            return False
        # the affine piece extrapolated to the right corner must meet the
        # value there (the right corner itself evaluates via the next cell)
        if v_mid + slope * half != v_right:
            return False
    # one-sided limits agree at every interior face (continuity)
    for j in range(1, 2 * k + 1):
        c = j * f.alpha
        left_limit = 2 * section_value(f, c - half) - section_value(f, c - f.alpha)
        if left_limit != section_value(f, c):
            return False
    # periodicity against the bundle's own affine data
    for j in range(2 * k):
        for u in (j * f.alpha, j * f.alpha + half):
            if section_value(f, u + lam) - section_value(f, u) != z_slope * u + z_const:
                return False
    return True


def verify_section_by_corner_value(b: BundleData, f: TropicalSection) -> SectionReport:
    """verify_section with its quadratic face loop: each face calls
    corner_value, which re-sums the slope prefix in Fractions."""
    lam, d_eff, v_eff = _rank1_generator_data(b)
    failures: list[str] = []
    if f.alpha * f.period_cells != lam:
        failures.append(
            f"period mismatch: {f.period_cells} cells of width {f.alpha} "
            f"do not tile a period of length {lam}"
        )
        return SectionReport(ok=False, failures=tuple(failures), faces=())
    if f.slope_increment != d_eff:
        failures.append(
            f"periodicity (slope): increment per period is {f.slope_increment}, "
            f"the bundle requires {d_eff}"
        )
    if f.value_increment != v_eff:
        failures.append(
            f"periodicity (value): increment per period is {f.value_increment}, "
            f"the bundle requires {v_eff}"
        )
    slope_sum = sum(f.slopes) * f.alpha
    if slope_sum != f.value_increment:
        failures.append(
            f"periodicity: slopes sum to {slope_sum} over one period "
            f"but the value increment is {f.value_increment}"
        )
    k = f.period_cells
    faces = []
    for j in range(2 * k):
        pos = (j + 1) * f.alpha
        left_slope = slope_in_cell(f, j)
        right_slope = slope_in_cell(f, j + 1)
        left_value = f.corner_value(j) + left_slope * f.alpha
        right_value = f.corner_value(j + 1)
        faces.append(
            FaceTransition(
                pos_num=pos.numerator,
                pos_den=pos.denominator,
                left_slope=left_slope,
                right_slope=right_slope,
                left_num=left_value.numerator,
                left_den=left_value.denominator,
                right_num=right_value.numerator,
                right_den=right_value.denominator,
            )
        )
        if left_value != right_value:
            failures.append(
                f"discontinuity at u={pos}: left piece gives {left_value}, "
                f"right piece gives {right_value}"
            )
    return SectionReport(ok=not failures, failures=tuple(failures), faces=tuple(faces))


def faddeev_leverrier_char_poly(m: Matrix) -> RatPoly:
    """det(xI - m) by Faddeev-LeVerrier: n dense Fraction products, one
    trace each, and the only divisions are by the integers 1..n."""
    n = m.rows
    if n == 0:
        return RatPoly.one()
    coeffs_high = [Fraction(1)]  # x^n, then x^(n-1), ...
    work = Matrix.identity(n)
    for k in range(1, n + 1):
        work = fraction_product(m, work)
        ck = -sum(work[i, i] for i in range(n)) / k
        coeffs_high.append(ck)
        if k < n:
            work = work + Matrix.identity(n).scale(ck)
    return RatPoly(list(reversed(coeffs_high)))


def hessenberg_char_poly(m: Matrix) -> RatPoly:
    """Characteristic polynomial det(xI - m), monic, in Fraction arithmetic.

    Reduces m to upper Hessenberg form H by similarity (a row swap with
    the matching column swap; row r -= u * row piv together with column
    piv += u * column r), then runs the recurrence for the characteristic
    polynomials p_k of the leading k-by-k blocks of H (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.2.9).  O(n^3) field
    operations and no matrix product.
    """
    n = m.rows
    h = _rows(m)
    for c in range(n - 2):
        piv = c + 1
        pr = next((i for i in range(piv, n) if h[i][c] != 0), None)
        if pr is None:
            continue
        if pr != piv:
            h[pr], h[piv] = h[piv], h[pr]
            for row in h:
                row[pr], row[piv] = row[piv], row[pr]
        t = h[piv][c]
        for r in range(piv + 1, n):
            if h[r][c] == 0:
                continue
            u = h[r][c] / t
            h[r] = [a - u * b if b else a for a, b in zip(h[r], h[piv])]
            for row in h:
                if row[r]:
                    row[piv] += u * row[r]
    # p[k] = det(xI - H_k) on coefficient lists, lowest degree first
    p = [[Fraction(1)]]
    for k in range(n):
        nxt = [Fraction(0)] + p[k]
        for i, a in enumerate(p[k]):
            nxt[i] -= h[k][k] * a
        t = Fraction(1)
        for i in range(k - 1, -1, -1):
            t *= h[i + 1][i]
            if t == 0:
                break
            f = t * h[i][k]
            if f:
                for e, a in enumerate(p[i]):
                    nxt[e] -= f * a
        p.append(nxt)
    return RatPoly(p[n])


def horner_eval_matrix(p: RatPoly, m: Matrix) -> Matrix:
    """p(m) by Horner's rule: one dense Fraction product per coefficient."""
    out = Matrix.zero(m.rows, m.cols)
    for c in reversed(p.coeffs):
        out = fraction_product(out, m) + Matrix.identity(m.rows).scale(c)
    return out


def graded_map_is_bijective(n: NilpotentOperator, fil: Filtration, j: int) -> bool:
    """Whether N^j induces an isomorphism gr_j -> gr_(-j)."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    dim_src = fil.graded_dimension(j)
    dim_dst = fil.graded_dimension(-j)
    if dim_src != dim_dst:
        return False
    if dim_src == 0:
        return True
    if j >= n.nilpotency_index:
        return False  # N^j = 0 kills a nonzero graded piece
    induced = solve_induced_matrix(
        fraction_power(n.n_matrix, j), fil.at(j), fil.at(j - 1), fil.at(-j), fil.at(-j - 1)
    )
    return fraction_rank(induced.row_tuples) == dim_src


def graded_weights_every_piece(
    mono: Filtration, f: FrobeniusData, i: int
) -> tuple[dict[int, list[tuple[int, int]]], list[dict], dict[int, bool]]:
    """The graded-piece part of check_wmc on the N-filtration `mono`,
    with no shortcut.

    Every jump piece is tested for Phi-stability by a Fraction rank, and
    the map Phi induces on every gr_j whose Fil_j and Fil_(j-1) are both
    stable is solved for (solve_induced_matrix) and weighed.  Returns the
    graded weights, the graded violations in check_wmc's order, and each
    jump piece's stability.
    """
    graded_weights: dict[int, list[tuple[int, int]]] = {}
    violations: list[dict] = []
    stable_at: dict[int, bool] = {}
    below_stable = True
    for j in mono.jump_indices():
        piece = mono.at(j)
        rows = list(piece.basis.row_tuples)
        images = [fraction_apply(f.phi_matrix, v) for v in rows]
        stable = stable_at[j] = piece.is_full() or fraction_rank(rows + images) == piece.dim
        if not stable:
            violations.append(
                {
                    "kind": "graded_not_phi_stable",
                    "index": j,
                    "detail": "Phi does not preserve the filtration piece",
                }
            )
        weighed = stable and below_stable
        below_stable = stable
        if not weighed:
            continue
        below = mono.at(j - 1)
        induced = solve_induced_matrix(f.phi_matrix, piece, below, piece, below)
        try:
            pairs = sorted((w, h.degree) for w, h in _weigh(char_poly(induced), f.q).items())
        except NotPureError as err:
            violations.append({"kind": "graded_not_pure", "index": j, "detail": str(err)})
            continue
        graded_weights[j] = pairs
        for w, mult in pairs:
            if w != i + j:
                violations.append(
                    {
                        "kind": "graded_weight",
                        "index": j,
                        "weight": w,
                        "multiplicity": mult,
                        "expected": i + j,
                    }
                )
    return graded_weights, violations, stable_at


def filtration_mismatches(n: NilpotentOperator, f: FrobeniusData, i: int) -> list[dict]:
    """check_wmc's filtration_mismatch violations by the full comparison:
    both filtrations built, and Fil_j compared with W_(i+j) as subspaces
    at every index of both ranges and one below.  Raises NotPureError when
    Phi is not pure."""
    mono = monodromy_filtration(n)
    weight_fil = weight_filtration(weight_decomposition(f))
    lo = min(mono.lo, weight_fil.lo - i)
    hi = max(mono.hi, weight_fil.hi - i)
    return [
        {
            "kind": "filtration_mismatch",
            "index": j,
            "monodromy_dim": mono.at(j).dim,
            "weight_index": i + j,
            "weight_dim": weight_fil.at(i + j).dim,
        }
        for j in range(lo - 1, hi + 1)
        if mono.at(j) != weight_fil.at(i + j)
    ]


def parse_matrix_by_entry(value, fieldname: str = "matrix") -> Matrix:
    """cli.parse_matrix with every entry read on its own by
    cli._rational_ints, as before integer rows were read in one match."""
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SchemaError(fieldname, "expected an array of arrays")
    if value and any(len(r) != len(value[0]) for r in value):
        raise SchemaError(fieldname, "ragged matrix")
    for count, what in ((len(value), "rows"), (len(value[0]) if value else 0, "columns")):
        if count > DIMENSION_LIMIT:
            raise SchemaError(
                fieldname, f"{count} {what} are above the dimension limit {DIMENSION_LIMIT}"
            )
    rows = []
    for i, r in enumerate(value):
        row = []
        for j, x in enumerate(r):
            try:
                row.append(_rational_ints(x, fieldname))
            except SchemaError:
                _rational_ints(x, f"{fieldname}[{i}][{j}]")  # raises again, naming the entry
        rows.append(row)
    if not rows:
        raise SchemaError(fieldname, "matrix must have at least one row")
    entries = [[Fraction(a, b) for a, b in row] for row in rows]
    return Matrix(entries, cols=len(rows[0]))
