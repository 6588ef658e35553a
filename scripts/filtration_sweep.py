#!/usr/bin/env python3
"""Sweep random nilpotent operators and tabulate jump patterns.

For each random conjugated Jordan type the centered filtration is
computed by its descending recurrence; the sweep records the
jump indices and graded dimensions, which recover the Jordan type - a
quick empirical illustration that the filtration sees exactly the block
structure and nothing else.

Usage: python scripts/filtration_sweep.py [count] [max_dim] [seed]
"""

import random
import sys
import time
from collections import Counter
from fractions import Fraction

from wmtrop import Matrix, NilpotentOperator, monodromy_filtration


def random_nilpotent(rng: random.Random, dim: int) -> tuple[Matrix, tuple[int, ...]]:
    blocks = []
    remaining = dim
    while remaining:
        b = rng.randint(1, remaining)
        blocks.append(b)
        remaining -= b
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    pos = 0
    for b in blocks:
        for i in range(b - 1):
            rows[pos + i][pos + i + 1] = Fraction(1)
        pos += b
    while True:
        p = Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)])
        if dim == 0 or p.det() != 0:
            break
    j = Matrix(rows)
    return p * j * p.inverse(), tuple(sorted(blocks, reverse=True))


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    max_dim = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    rng = random.Random(seed)

    patterns: Counter = Counter()
    start = time.monotonic()
    for _ in range(count):
        dim = rng.randint(1, max_dim)
        n_mat, jordan_type = random_nilpotent(rng, dim)
        fil = monodromy_filtration(NilpotentOperator(n_mat))
        graded = tuple(
            (j, fil.graded_dimension(j))
            for j in range(fil.lo, fil.hi + 1)
            if fil.graded_dimension(j)
        )
        patterns[(jordan_type, graded)] += 1
    elapsed = time.monotonic() - start

    print(f"{count} operators, max dim {max_dim}, {elapsed:.2f}s")
    print(f"{'jordan type':<18} {'graded dims (index: dim)':<40} count")
    for (jordan_type, graded), n in sorted(patterns.items()):
        graded_str = ", ".join(f"{j}:{d}" for j, d in graded)
        print(f"{str(jordan_type):<18} {graded_str:<40} {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
