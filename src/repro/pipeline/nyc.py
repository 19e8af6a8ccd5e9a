"""The Figure 2 exemplar: arrests per 100 000 residents per NTA.

The student project the paper showcases combines four NYC Open Data
datasets — arrests (historic + current year), NTA boundaries, and NTA
population — into a pipeline that "identifies the spatial positions of
all arrests, accumulates the number of arrests in each neighborhood,
and plots a heat map".

Offline substitution (per DESIGN.md): synthetic generators produce the
same relational shape — a grid of NTA polygons with populations, and
arrest events with coordinates, year, and offense category, including a
controlled fraction of dirty rows for the cleaning stage to catch.

:func:`arrests_per_100k` is the pipeline itself, written on
:mod:`repro.spark` exactly as the course teaches it: parallelize →
filter (clean) → spatial join via a broadcast boundary index →
reduceByKey → join with population → normalize. The index
(:class:`NTAIndex`) is a uniform grid over the NTAs' bounding boxes, so
each arrest is tested against the few polygons near it instead of all
of them; :func:`locate_nta` is the linear scan it must agree with.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.pipeline.geometry import Polygon
from repro.spark import SparkContext
from repro.util.validation import require_positive_int

__all__ = [
    "NTA",
    "Arrest",
    "generate_ntas",
    "generate_arrests",
    "locate_nta",
    "NTAIndex",
    "arrests_per_100k",
    "nyc_arrests_pipeline",
    "heat_map_matrix",
]

_BOROUGHS = ["Bronx", "Brooklyn", "Manhattan", "Queens", "Staten Island"]
_OFFENSES = ["assault", "larceny", "burglary", "fraud", "mischief", "robbery"]


@dataclass(frozen=True)
class NTA:
    """One Neighborhood Tabulation Area: boundary + census population."""

    code: str
    name: str
    borough: str
    polygon: Polygon
    population: int


@dataclass(frozen=True)
class Arrest:
    """One arrest record (the two arrest datasets share this schema)."""

    x: float
    y: float
    year: int
    offense: str
    valid: bool = True  # generator marks rows with corrupted coordinates


def generate_ntas(rows: int, cols: int, seed: int = 0) -> list[NTA]:
    """A ``rows × cols`` grid of rectangular NTAs over the unit square.

    Populations are log-uniform between 10k and 150k — roughly the
    spread of real NTA populations.
    """
    require_positive_int("rows", rows)
    require_positive_int("cols", cols)
    rng = np.random.default_rng(seed)
    ntas: list[NTA] = []
    for r in range(rows):
        for c in range(cols):
            code = f"NTA{r:02d}{c:02d}"
            poly = Polygon.rectangle(c / cols, r / rows, (c + 1) / cols, (r + 1) / rows)
            population = int(np.exp(rng.uniform(np.log(10_000), np.log(150_000))))
            ntas.append(
                NTA(
                    code=code,
                    name=f"Neighborhood {r}-{c}",
                    borough=_BOROUGHS[(r * cols + c) % len(_BOROUGHS)],
                    polygon=poly,
                    population=population,
                )
            )
    return ntas


def generate_arrests(
    n: int,
    ntas: list[NTA],
    year: int,
    seed: int = 0,
    *,
    dirty_fraction: float = 0.02,
) -> list[Arrest]:
    """``n`` arrest events for one year.

    Each NTA's arrest intensity is population times a per-NTA crime
    factor, so rates per 100k genuinely differ across neighborhoods.
    ``dirty_fraction`` of rows get out-of-range coordinates, which the
    cleaning stage must drop.

    The stream is ``default_rng(seed + year)``: the crime factors and
    the NTA choices are drawn through the Generator, then the raw PCG64
    words for every arrest in one ``random_raw`` call. Arrest ``i``
    reads, in order, one word each for x, y and the dirty test, then
    one 32-bit half for the offense (see :func:`_arrests_from_words`).
    The output is bit-identical, Python types included, to calling the
    Generator's ``uniform``, ``uniform``, ``random`` and ``integers(6)``
    per arrest.
    """
    require_positive_int("n", n)
    if not ntas:
        raise ValueError("need at least one NTA")
    if not 0.0 <= dirty_fraction < 1.0:
        raise ValueError("dirty_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed + year)
    crime_factor = rng.uniform(0.3, 3.0, size=len(ntas))
    weights = np.array([nta.population for nta in ntas]) * crime_factor
    weights = weights / weights.sum()
    choices = rng.choice(len(ntas), size=n, p=weights)
    # Three words and half a word per arrest; a rejected offense draw
    # (probability 4 / 2**32) reads on, one word at a time.
    bit_generator = rng.bit_generator
    words = itertools.chain(
        bit_generator.random_raw(3 * n + (n + 1) // 2).tolist(),
        iter(bit_generator.random_raw, None),
    )
    boxes = [
        (box.min_x, box.max_x - box.min_x, box.min_y, box.max_y - box.min_y)
        for box in (nta.polygon.bbox for nta in ntas)
    ]
    return _arrests_from_words(choices.tolist(), boxes, year, dirty_fraction, words)


#: numpy's ``next_double``: the top 53 bits of a word, scaled to [0, 1).
_DOUBLE_UNIT = 2.0**-53
#: Lemire's rejection threshold for ``integers(len(_OFFENSES))``.
_OFFENSE_THRESHOLD = (2**32 - len(_OFFENSES)) % len(_OFFENSES)


def _arrests_from_words(
    choices: list[int],
    boxes: list[tuple[float, float, float, float]],
    year: int,
    dirty_fraction: float,
    words: Iterable[int],
) -> list[Arrest]:
    """The arrests numpy's Generator would draw from the raw words ``words``.

    ``boxes[i]`` is NTA ``i``'s ``(min_x, width, min_y, height)``. Per
    arrest, in stream order:

    - ``uniform(lo, hi)`` is ``lo + (hi - lo) * next_double``, for x
      then y, and ``random() < dirty_fraction`` reads one more double;
    - ``integers(6)`` is Lemire's bounded draw on PCG64's buffered
      ``next_uint32``: a fresh word yields its low half now and keeps
      its high half for the next draw. A half ``h`` is rejected while
      ``(h * 6) & 0xFFFFFFFF < (2**32 - 6) % 6``; otherwise the draw is
      ``(h * 6) >> 32``.
    """
    next_word = iter(words).__next__
    bound = len(_OFFENSES)
    high = None  # the buffered high half of the last word split for a draw
    arrests: list[Arrest] = []
    for idx in choices:
        min_x, width, min_y, height = boxes[idx]
        x = min_x + width * ((next_word() >> 11) * _DOUBLE_UNIT)
        y = min_y + height * ((next_word() >> 11) * _DOUBLE_UNIT)
        dirty = (next_word() >> 11) * _DOUBLE_UNIT < dirty_fraction
        while True:
            if high is None:
                word = next_word()
                half, high = word & 0xFFFFFFFF, word >> 32
            else:
                half, high = high, None
            product = half * bound
            if product & 0xFFFFFFFF >= _OFFENSE_THRESHOLD:
                break
        if dirty:
            x, y = -999.0, -999.0
        arrests.append(
            Arrest(x=x, y=y, year=year, offense=_OFFENSES[product >> 32], valid=not dirty)
        )
    return arrests


def locate_nta(x: float, y: float, ntas: list[NTA]) -> str | None:
    """Code of the NTA containing (x, y), or None if outside all of them."""
    for nta in ntas:
        if nta.polygon.contains(x, y):
            return nta.code
    return None


class NTAIndex:
    """A uniform grid over the NTAs' bounding boxes for the spatial join.

    Built once on the driver and broadcast to the tasks. Each cell lists,
    in the original NTA order, the NTAs whose bounding box spans it, and
    :meth:`locate` tests only that list — so the first match, and with
    it the owner of a shared edge or corner, is the one
    :func:`locate_nta`'s linear scan finds. A polygon's cell range comes
    from the monotone :meth:`_cell`, and :meth:`candidates` maps points
    with the same expression written inline, so a point in a polygon's
    closed bounding box always lands in a cell listing that polygon,
    with no epsilon. The grid has ``2 * (isqrt(n) + 1)`` cells
    per side for ``n`` NTAs: about two ``contains`` calls per arrest on
    the 6 × 8 exemplar grid, against about 24 for the scan.
    """

    def __init__(self, ntas: list[NTA]) -> None:
        if not ntas:
            raise ValueError("need at least one NTA")
        boxes = [nta.polygon.bbox for nta in ntas]
        self.min_x = min(box.min_x for box in boxes)
        self.min_y = min(box.min_y for box in boxes)
        self.max_x = max(box.max_x for box in boxes)
        self.max_y = max(box.max_y for box in boxes)
        self.side = 2 * (math.isqrt(len(ntas)) + 1)
        self._scale_x = self._scale(self.max_x - self.min_x)
        self._scale_y = self._scale(self.max_y - self.min_y)
        cells: list[list[NTA]] = [[] for _ in range(self.side * self.side)]
        for nta, box in zip(ntas, boxes):
            for row in range(self._row(box.min_y), self._row(box.max_y) + 1):
                for col in range(self._col(box.min_x), self._col(box.max_x) + 1):
                    cells[row * self.side + col].append(nta)
        self._cells = [tuple(cell) for cell in cells]

    def _scale(self, extent: float) -> float:
        # Cells per unit along one axis. A zero extent (say, collinear
        # vertices) or one so thin that the division overflows puts every
        # point in cell 0 of that axis.
        scale = self.side / extent if extent > 0.0 else 0.0
        return scale if scale < math.inf else 0.0

    def _cell(self, value: float, low: float, scale: float) -> int:
        # Monotone in ``value``: IEEE subtraction and multiplication by a
        # non-negative constant preserve order, as do truncation and min.
        return min(int((value - low) * scale), self.side - 1)

    def _col(self, x: float) -> int:
        return self._cell(x, self.min_x, self._scale_x)

    def _row(self, y: float) -> int:
        return self._cell(y, self.min_y, self._scale_y)

    def candidates(self, x: float, y: float) -> tuple[NTA, ...]:
        """The NTAs, in list order, whose bounding box spans the cell of
        (x, y); empty outside the union bounding box. The row and column
        are :meth:`_cell`'s expression written inline, since this runs
        once per arrest."""
        if not (self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y):
            return ()
        last = self.side - 1
        row = min(int((y - self.min_y) * self._scale_y), last)
        col = min(int((x - self.min_x) * self._scale_x), last)
        return self._cells[row * self.side + col]

    def locate(self, x: float, y: float) -> str | None:
        """Code of the NTA containing (x, y), or None — always the answer
        of :func:`locate_nta` over the NTA list the index was built from."""
        for nta in self.candidates(x, y):
            if nta.polygon.contains(x, y):
                return nta.code
        return None


def _is_clean(arrest: Arrest) -> bool:
    """The cleaning rule: a valid row with coordinates in the unit square."""
    return arrest.valid and 0.0 <= arrest.x <= 1.0 and 0.0 <= arrest.y <= 1.0


def _union(sc: SparkContext, datasets: list[list[Arrest]], year_filter: int | None):
    """Aggregation: the raw datasets as one RDD, optionally one year of it."""
    rdd = sc.parallelize(datasets[0])
    for extra in datasets[1:]:
        rdd = rdd.union(sc.parallelize(extra))
    if year_filter is not None:
        rdd = rdd.filter(lambda a: a.year == year_filter)
    return rdd


def _clean(sc: SparkContext, rdd):
    """Cleaning: keep the rows :func:`_is_clean` accepts; returns the
    clean RDD and an accumulator counting the dropped rows."""
    dropped = sc.accumulator(0)

    def keep(arrest: Arrest) -> bool:
        if _is_clean(arrest):
            return True
        dropped.add(1)
        return False

    return rdd.filter(keep), dropped


def _locator(sc: SparkContext, ntas: list[NTA]):
    """The spatial join's lookup: broadcast one :class:`NTAIndex` and
    return ``arrest -> NTA code`` (None outside every NTA)."""
    index = sc.broadcast(NTAIndex(ntas))
    return lambda arrest: index.value.locate(arrest.x, arrest.y)


def _rates_per_100k(sc: SparkContext, clean, ntas: list[NTA]):
    """Analysis: spatial join, count per NTA, join with the population
    table and normalize per 100k. Returns the rates (every NTA present,
    zero when it has no arrests) and an accumulator counting the rows
    outside every NTA."""
    locate = _locator(sc, ntas)
    unlocated = sc.accumulator(0)

    def to_nta(arrest: Arrest):
        code = locate(arrest)
        if code is None:
            unlocated.add(1)
            return []
        return [(code, 1)]

    counts = clean.flat_map(to_nta).reduce_by_key(lambda a, b: a + b)
    population = sc.parallelize([(nta.code, nta.population) for nta in ntas])
    rates = (
        counts.join(population)
        .map_values(lambda cp: 100_000.0 * cp[0] / cp[1])
        .collect_as_map()
    )
    # NTAs with zero arrests still appear (rate 0), as a real report would show.
    for nta in ntas:
        rates.setdefault(nta.code, 0.0)
    return rates, unlocated


def arrests_per_100k(
    sc: SparkContext,
    arrest_datasets: list[list[Arrest]],
    ntas: list[NTA],
    *,
    year_filter: int | None = None,
) -> tuple[dict[str, float], dict[str, int]]:
    """The Figure 2 pipeline on mini-Spark.

    ``arrest_datasets`` is the list of raw datasets (e.g. historic +
    current-year arrests). Returns (rates, diagnostics) where ``rates``
    maps NTA code → arrests per 100 000 residents and ``diagnostics``
    reports rows dropped by cleaning and rows outside every NTA.
    """
    if not ntas:
        raise ValueError("need at least one NTA")
    clean, dropped = _clean(sc, _union(sc, arrest_datasets, year_filter))
    rates, unlocated = _rates_per_100k(sc, clean, ntas)
    return rates, {"dropped": dropped.value, "unlocated": unlocated.value}


def nyc_arrests_pipeline(
    ntas: list[NTA],
    rows: int,
    cols: int,
    *,
    year_filter: int | None = None,
    num_workers: int = 4,
    fault_plan=None,
    max_task_retries: int = 3,
    memory_budget: int | None = None,
    spill_compress: bool = False,
    verify_reads: bool = False,
):
    """Figure 2 as a four-stage :class:`~repro.pipeline.stages.SparkPipeline`.

    The same computation as :func:`arrests_per_100k` plus the heat-map
    step, expressed in the workflow framework's terms — one stage per
    rubric kind (aggregation → cleaning → analysis → visualization) —
    and with the engine's robustness knobs surfaced: pass a
    ``fault_plan`` (:class:`~repro.spark.SparkFaultPlan`) and the run
    executes under deterministic fault injection + recovery, returning a
    heat-map matrix bit-identical to the fault-free run; pass a
    ``memory_budget`` (bytes) and the shuffle tier runs out-of-core,
    spilling (optionally zlib-compressed) sorted runs to disk — again
    bit-identical to the unbounded run.

    ``pipeline.run(arrest_datasets)`` (the list of raw datasets, e.g.
    historic + current-year) returns the matrix; after a run,
    ``pipeline.rates`` and ``pipeline.diagnostics`` hold the
    intermediate rates map and the cleaning/locating tallies, and
    ``pipeline.last_fault_report`` the fired-fault evidence.
    """
    from repro.pipeline.stages import SparkPipeline, StageKind

    if not ntas:
        raise ValueError("need at least one NTA")
    require_positive_int("rows", rows)
    require_positive_int("cols", cols)
    pipeline = SparkPipeline(
        "nyc-arrests-per-100k",
        num_workers=num_workers,
        fault_plan=fault_plan,
        max_task_retries=max_task_retries,
        memory_budget=memory_budget,
        spill_compress=spill_compress,
        verify_reads=verify_reads,
    )
    pipeline.rates = None
    pipeline.diagnostics = None
    state: dict = {}

    def aggregate(sc: SparkContext, datasets: list[list[Arrest]]):
        return _union(sc, datasets, year_filter)

    def clean(sc: SparkContext, rdd):
        clean_rdd, state["dropped"] = _clean(sc, rdd)
        return clean_rdd

    def analyze(sc: SparkContext, clean_rdd):
        rates, unlocated = _rates_per_100k(sc, clean_rdd, ntas)
        pipeline.rates = rates
        # The actions just ran, so the accumulators are final here.
        pipeline.diagnostics = {
            "dropped": state["dropped"].value,
            "unlocated": unlocated.value,
        }
        return rates

    def visualize(_sc: SparkContext, rates: dict[str, float]):
        return heat_map_matrix(rates, rows, cols)

    pipeline.add_stage("aggregate", StageKind.AGGREGATION, aggregate)
    pipeline.add_stage("clean", StageKind.CLEANING, clean)
    pipeline.add_stage("analyze", StageKind.ANALYSIS, analyze)
    pipeline.add_stage("visualize", StageKind.VISUALIZATION, visualize)
    return pipeline


def arrests_dataframe(sc: SparkContext, arrests: list[Arrest], ntas: list[NTA]):
    """The cleaned, located arrest table as a :class:`~repro.spark.DataFrame`.

    Columns: ``nta``, ``borough``, ``year``, ``offense``. Rows with
    corrupt coordinates or falling outside every NTA are dropped — the
    same cleaning contract as :func:`arrests_per_100k`, but expressed in
    the DataFrame dialect most student teams actually submit in.
    """
    from repro.spark.dataframe import DataFrame

    locate = _locator(sc, ntas)
    borough_of = {nta.code: nta.borough for nta in ntas}

    def to_row(arrest: Arrest):
        code = locate(arrest) if _is_clean(arrest) else None
        if code is None:
            return []
        return [
            {
                "nta": code,
                "borough": borough_of[code],
                "year": arrest.year,
                "offense": arrest.offense,
            }
        ]

    rows_rdd = sc.parallelize(arrests).flat_map(to_row)
    return DataFrame(rows_rdd, ["nta", "borough", "year", "offense"])


def rates_via_dataframe(
    sc: SparkContext, arrests: list[Arrest], ntas: list[NTA]
) -> dict[str, float]:
    """Figure 2's rates computed through the DataFrame API.

    ``arrests_dataframe → group_by("nta").count → join(population) →
    with_column(rate)`` — must agree exactly with the RDD pipeline
    (asserted in tests).
    """
    from repro.spark.dataframe import DataFrame

    counts = arrests_dataframe(sc, arrests, ntas).group_by("nta").count()
    population = DataFrame.from_rows(
        sc, [{"nta": n.code, "population": n.population} for n in ntas]
    )
    rates = (
        counts.join(population, on="nta")
        .with_column("rate", lambda r: 100_000.0 * r["count"] / r["population"])
        .select("nta", "rate")
    )
    out = {row["nta"]: row["rate"] for row in rates.collect()}
    for nta in ntas:
        out.setdefault(nta.code, 0.0)
    return out


def heat_map_matrix(rates: dict[str, float], rows: int, cols: int) -> np.ndarray:
    """Visualization: the rates arranged on the NTA grid.

    The matrix is what Figure 2's choropleth colors — entry (r, c) is
    the rate of ``NTA{r}{c}``.
    """
    require_positive_int("rows", rows)
    require_positive_int("cols", cols)
    matrix = np.zeros((rows, cols))
    for r in range(rows):
        for c in range(cols):
            matrix[r, c] = rates.get(f"NTA{r:02d}{c:02d}", 0.0)
    return matrix
