#!/usr/bin/env python3
"""End-to-end walkthrough on the two-cell rank-1 quotient (a Tate-type curve).

Runs the whole pipeline on one example: the weight/monodromy comparison
for the standard degenerate H^1 data, the special-fiber combinatorics of
the quotient model and its p-tower, and the line-bundle story at width 1
versus the refined width 1/p.

Usage: python scripts/tate_curve_demo.py [p]
"""

import sys
from fractions import Fraction as F

from wmtrop import (
    BundleData,
    CellWidth,
    FrobeniusData,
    Matrix,
    NilpotentOperator,
    QuotientModel,
    TropicalLattice,
    check_wmc,
    construct_f,
    descriptor,
    dual_graph,
    extends_to,
    minimal_level,
    quotient_components,
    tower_preimages,
    verify_section,
)


def main() -> int:
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 5

    print("== weight/monodromy comparison for the degenerate H^1 data ==")
    n = NilpotentOperator(Matrix([[0, 1], [0, 0]]))
    frob = FrobeniusData(Matrix.diagonal([1, p]), p, n)
    report = check_wmc(n, frob, 1)
    print(f"  N Phi = q Phi N: {report.commutation_ok}")
    print(f"  filtrations agree: {report.filtrations_equal}")
    for j, weights in sorted(report.graded_weights.items()):
        print(f"  gr_{j}: Frobenius weights {weights}")

    print()
    print("== quotient model: period 2, cell width 1 ==")
    lat = TropicalLattice.from_columns([[2]])
    model = QuotientModel(lat, CellWidth(1), p, 0)
    print(f"  descriptor: {descriptor(model).canonical_string()}")
    graph = dual_graph(model)
    print(f"  special fiber: {len(graph.vertices)} components, edges {graph.edges}")
    for level in (0, 1, 2):
        count = quotient_components(model.at_level(level))
        print(f"  level {level}: {count} components")
    print(f"  preimages of cell 0 one level up: {tower_preimages(0, model, 1)}")

    print()
    print("== line bundles on the quotient ==")
    trivial = BundleData(lat, Matrix([[0]]), [0])
    print(f"  v=0 extends at width 1: {extends_to(trivial, CellWidth(1))}")
    frac = BundleData(lat, Matrix([[0]]), [F(1, p)])
    print(f"  v=1/{p} extends at width 1: {extends_to(frac, CellWidth(1))}")
    level = minimal_level(frac, CellWidth(1), p)
    print(f"  minimal refinement level: {level}")
    section = construct_f(frac, CellWidth(F(1, p)))
    print(f"  witness slopes at width 1/{p}: {section.slopes}")
    print(f"  witness verifies: {verify_section(frac, section).ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
