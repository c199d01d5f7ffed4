#!/usr/bin/env python3
"""Sweep the node pipeline over a seed range for one degree type.

Useful for checking count stability beyond the pinned manifest seeds,
e.g.

    python scripts/seed_sweep.py --type "(1,1,3)" --d 5 --delta 0 \
        --seeds 1 20 --workers 4
"""

import argparse
from collections import Counter

from symmetroids.fields import DEFAULT_PRIME, PrimeField
from symmetroids.groebner import CertificateError, ResourceBudgetError
from symmetroids.matrices import DegenerateMatrixError
from symmetroids.nodes import ChartMismatchError, DegenerateSurfaceError
from symmetroids.scenarios import _sweep, type_seed_report


def run_seed(payload):
    d, delta, degrees, p, seed = payload
    try:
        report = type_seed_report(d, delta, degrees, PrimeField(p), seed)
    except (
        DegenerateMatrixError,
        DegenerateSurfaceError,
        ChartMismatchError,
        CertificateError,
        ResourceBudgetError,
    ) as exc:
        return seed, f"{type(exc).__name__}"
    return seed, (report.t, report.reduced_certified, report.rank_drop_consistent)


def parse_type(text):
    inner = text.strip().strip("()")
    return tuple(int(x) for x in inner.split(","))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--type", type=parse_type, required=True)
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--delta", type=int, choices=(0, 1), default=0)
    parser.add_argument("--p", type=int, default=DEFAULT_PRIME)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 10),
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    first, last = args.seeds
    payloads = [
        (args.d, args.delta, args.type, args.p, seed)
        for seed in range(first, last + 1)
    ]
    results = _sweep(run_seed, payloads, args.workers)

    tally = Counter()
    for seed, outcome in results:
        print(f"seed {seed}: {outcome}")
        tally[outcome] += 1
    print("tally:", dict(tally))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
