"""Figure 2 — the NYC arrests-per-100k-per-NTA heat map pipeline.

Runs the full aggregation → cleaning → spatial-join → normalization
pipeline over synthetic stand-ins for the four NYC Open Data datasets
(arrests historic + current year, NTA boundaries, NTA population) and
renders the heat-map matrix the figure colors. The run is timed and
recorded as ``BENCH_fig2.json``; every rate and tally must equal a
plain-Python recount that locates each arrest with the linear
:func:`~repro.pipeline.nyc.locate_nta` scan instead of the pipeline's
grid index.
"""

import numpy as np

from repro.pipeline import arrests_per_100k, generate_arrests, generate_ntas, heat_map_matrix
from repro.pipeline.nyc import locate_nta
from repro.spark import SparkContext
from repro.trace.history import result_digest
from repro.util.timing import time_call

ROWS, COLS = 6, 8
SEED, WORKERS, YEAR = 7, 4, 2021
HISTORIC, CURRENT = 12_000, 6_000
REPEATS = 5


def _shade(matrix: np.ndarray) -> str:
    """ASCII choropleth (darker glyph = higher rate)."""
    glyphs = " .:-=+*#%@"
    hi = matrix.max() or 1.0
    out = []
    for row in matrix:
        out.append("".join(glyphs[min(int(v / hi * (len(glyphs) - 1)), len(glyphs) - 1)] for v in row))
    return "\n".join(out)


def linear_recount(datasets, ntas, year):
    """(rates, diagnostics) by one plain pass with the linear NTA scan."""
    counts = dict.fromkeys((nta.code for nta in ntas), 0)
    tally = {"dropped": 0, "unlocated": 0}
    for arrest in (a for dataset in datasets for a in dataset if a.year == year):
        if not (arrest.valid and 0.0 <= arrest.x <= 1.0 and 0.0 <= arrest.y <= 1.0):
            tally["dropped"] += 1
            continue
        code = locate_nta(arrest.x, arrest.y, ntas)
        if code is None:
            tally["unlocated"] += 1
        else:
            counts[code] += 1
    population = {nta.code: nta.population for nta in ntas}
    rates = {code: 100_000.0 * n / population[code] if n else 0.0 for code, n in counts.items()}
    return rates, tally


def test_fig2_nyc_arrests_heatmap(benchmark, report_writer, bench_json_writer):
    ntas = generate_ntas(ROWS, COLS, seed=SEED)
    historic = generate_arrests(HISTORIC, ntas, year=YEAR - 1, seed=1)
    current = generate_arrests(CURRENT, ntas, year=YEAR, seed=1)

    def run():
        with SparkContext(num_workers=WORKERS) as sc:
            return arrests_per_100k(sc, [historic, current], ntas, year_filter=YEAR)

    rates, diagnostics = benchmark(run)
    seconds, _ = time_call(run, repeats=REPEATS)
    bit_identical = (rates, diagnostics) == linear_recount([historic, current], ntas, YEAR)
    bench_json_writer(
        "fig2",
        {"pipeline": seconds},
        workload="fig2_nyc_pipeline",
        config={
            "seed": SEED, "rows": ROWS, "cols": COLS, "workers": WORKERS,
            "historic": HISTORIC, "current": CURRENT, "year_filter": YEAR,
            "repeats": REPEATS,
        },
        bit_identical=bit_identical,
        digest=result_digest((rates, diagnostics)),
        **diagnostics,
    )
    assert bit_identical

    # Shape checks: every NTA reported, rates vary across neighborhoods,
    # dirty rows were dropped by the cleaning stage.
    assert set(rates) == {nta.code for nta in ntas}
    values = np.array(list(rates.values()))
    assert values.max() > 2 * max(values.min(), 1.0)
    assert diagnostics["dropped"] > 0

    matrix = heat_map_matrix(rates, ROWS, COLS)
    top = sorted(rates.items(), key=lambda kv: -kv[1])[:5]
    lines = [
        f"Figure 2 reproduction: arrests per 100,000 residents per NTA ({YEAR})",
        f"NTAs={len(ntas)} arrests_in={len(historic) + len(current)} "
        f"dropped_by_cleaning={diagnostics['dropped']} outside_all_ntas={diagnostics['unlocated']}",
        "",
        "top-5 NTAs by rate:",
    ]
    for code, rate in top:
        lines.append(f"  {code}: {rate:8.1f} per 100k")
    lines.append("")
    lines.append("heat map (darker = more arrests per 100k):")
    lines.append(_shade(matrix))
    report_writer("fig2_nyc_pipeline", "\n".join(lines) + "\n")
