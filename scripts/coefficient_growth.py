#!/usr/bin/env python3
"""Empirical probe: how fast does the worst observed weight coefficient grow?

Random search over uniform-range instances at doubling sizes, reporting the
maximum observed coefficient next to the proven 2*log_{5/4} n ceiling. This is
informational only; no instance family with a matching logarithmic lower bound
is generated here.
"""
import argparse
import math
import sys

from sdglab.decomposition import Prepared, lightness_bound, weight_coefficient
from sdglab.instances import gen_random_euclidean, gen_random_matrix_metric, gen_random_ranges, mix_seed
from sdglab.sweep import emit_svg


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, default=200, help="instances per size")
    ap.add_argument("--sizes", default="8,16,32,64,128,256")
    ap.add_argument("--svg", default=None)
    args = ap.parse_args()

    sizes = [int(x) for x in args.sizes.split(",")]
    print(f"{'n':>5} {'max coef':>10} {'argmax seed':>20} {'2*log_5/4 n':>12}")
    by_n = {}
    index = 0
    for n in sizes:
        best, best_seed = 0.0, None
        for _ in range(args.trials):
            seed = mix_seed(args.seed, index)
            index += 1
            if index % 3 == 0:
                m = gen_random_matrix_metric(n, seed)
            else:
                m = gen_random_euclidean(n, 1 + index % 3, [1.0, 2.0, math.inf][index % 3], seed)
            r = gen_random_ranges(m, "uniform", mix_seed(seed, 1))
            coef = weight_coefficient(Prepared(m, r)).coefficient
            if coef > best:
                best, best_seed = coef, seed
        print(f"{n:>5} {best:>10.4f} {best_seed:>20} {lightness_bound(n):>12.4f}")
        by_n[n] = best

    if args.svg:
        emit_svg(by_n, args.svg)
        print(f"chart -> {args.svg}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
