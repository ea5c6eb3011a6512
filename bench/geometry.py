"""The benchmark's ``geometry`` workload: critical points, stable subspaces, inversion.

Runs the public descentlab API on the four objectives of the acceptance
suite's diffeomorphism criterion, each at ``alpha = 0.5 / L``.  Per
objective it searches for critical points, computes the stable subspace of
every strict saddle it finds, and runs the round-trip and injectivity
checks of the gradient map.  Everything the benchmark checks goes to
``result.json`` in the output directory, written with ``repr`` floats so two
runs of one seed compare byte for byte.

    PYTHONPATH=src python3 bench/geometry.py --seed 3 --samples 1000 --out DIR

Names are looked up on the ``descentlab`` package at call time, so a tracer
that patches them after this module is imported still sees every call.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

import descentlab as dl


def objectives():
    return [
        dl.DiagonalQuadratic([1.0, -1.0]),
        dl.StronglyConvexQuadratic([1.0, 3.0]),
        dl.NesterovExample(),
        dl.QuarticCopositive(np.eye(2)),
    ]


def run(seed: int, samples: int) -> list:
    results = []
    for objective in objectives():
        gmap = dl.GradientMap(objective, 0.5 / objective.lipschitz_bound())
        records = dl.find_critical_points(objective, seed=seed)
        saddle_stable_dimensions = [
            [int(record.stable_dimension), int(dl.stable_subspace(gmap, record).shape[1])]
            for record in records
            if record.is_strict_saddle
        ]
        trip = dl.roundtrip_check(gmap, samples, seed=seed)
        margin = dl.injectivity_margin_check(gmap, samples, seed=seed)
        results.append({
            "objective": objective.name,
            "found": [
                {"location": [float(v) for v in r.location],
                 "classification": r.classification.value}
                for r in records
            ],
            "known": [
                {"location": [float(v) for v in p.location],
                 "classification": p.expected_class.value}
                for p in objective.known_critical_points()
            ],
            "saddle_stable_dimensions": saddle_stable_dimensions,
            "roundtrip": trip.to_dict(),
            "injectivity": margin.to_dict(),
        })
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    results = run(args.seed, args.samples)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
