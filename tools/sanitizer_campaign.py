#!/usr/bin/env python
"""Run the rung ladders through the schedule explorer; write race reports.

Two ladder families share the certification bar: the OpenMP k-means
reduction ladder and the align wavefront ladder (``repro.align``). The
CI ``sanitizer`` job runs this across a fixed seed matrix and uploads
the reports as artifacts:

    python tools/sanitizer_campaign.py --seed 0 --schedules 50 --out sanitizer-reports

Exit status is the certificate: 0 iff, for every family, the racy rung
is flagged AND every guarded rung (critical / atomic / reduction) is
race-free across all explored schedules. The per-rung plain-text
reports (including the replay command for every racy schedule) are
written either way, so a red run leaves its evidence behind.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.align import align_openmp, generate_pair
from repro.align.openmp_align import ALL_VARIANTS as ALIGN_VARIANTS
from repro.kmeans.initialization import init_random_points
from repro.kmeans.openmp_kmeans import ALL_VARIANTS, kmeans_openmp
from repro.kmeans.termination import TerminationCriteria
from repro.sanitizer import explore, write_report


def make_body(points, init, variant):
    criteria = TerminationCriteria(max_iterations=2)

    def body():
        result = kmeans_openmp(
            points, 2, num_threads=2, variant=variant,
            initial_centroids=init, criteria=criteria,
        )
        return (tuple(result.changes_history), result.centroids.tobytes())

    return body


def make_align_body(a, b, variant):
    def body():
        # tile=2: 16 tiles on the 8 x 8 pair, so both threads flush the
        # statistics on most tile diagonals (one tile would leave one).
        result = align_openmp(a, b, num_threads=2, variant=variant, tile=2)
        return (result.match_events, result.best_score, result.best_cell)

    return body


def run_family(family, variants, body_for, args) -> list[str]:
    """Explore every rung of one ladder; return the misbehaving rungs."""
    failures = []
    for variant in variants:
        result = explore(body_for(variant), schedules=args.schedules, seed=args.seed)
        path = args.out / f"{family}-{variant}-seed{args.seed}.txt"
        write_report(result, path, title=f"{family} variant={variant!r} seed={args.seed}")
        expected_racy = variant == "racy"
        ok = result.race_free != expected_racy
        verdict = "race-free" if result.race_free else f"{len(result.races)} distinct race(s)"
        status = "ok" if ok else "UNEXPECTED"
        print(
            f"[{status}] {family}:{variant:<9} seed={args.seed} "
            f"schedules={result.schedules_run} "
            f"distinct={result.distinct_interleavings()} -> {verdict}  ({path})"
        )
        if not ok:
            failures.append(f"{family}:{variant}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="schedule-stream seed")
    parser.add_argument("--schedules", type=int, default=50, help="schedules per rung")
    parser.add_argument("--out", type=Path, default=Path("sanitizer-reports"))
    args = parser.parse_args(argv)

    rng = np.random.default_rng(11)
    points = rng.normal(size=(24, 2))
    init = init_random_points(points, 2, seed=3)
    a, b = generate_pair(5, 8)

    failures = run_family(
        "kmeans", ALL_VARIANTS, lambda v: make_body(points, init, v), args
    )
    failures += run_family(
        "align", ALIGN_VARIANTS, lambda v: make_align_body(a, b, v), args
    )

    if failures:
        print(f"sanitizer campaign FAILED for: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"sanitizer campaign passed (seed={args.seed}); reports in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
