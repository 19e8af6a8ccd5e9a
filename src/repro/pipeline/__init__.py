"""Data-science pipelines on mini-Spark — Peachy assignment §4.

The assignment is an open-ended three-week project: teams pick ≥2
real-world datasets, formulate ≥3 analysis problems, implement them in
Spark, and traverse a full workflow (aggregation, cleaning, analysis,
visualization). This package provides:

- :mod:`repro.pipeline.stages` — the workflow framework: typed stages,
  run reports, and a validator encoding the assignment's rubric;
- :mod:`repro.pipeline.nyc` — the exemplar project from the paper
  (Figure 2): NYC arrests joined spatially against Neighborhood
  Tabulation Areas (through a broadcast grid index over their
  polygons) and census population, producing arrests-per-100k rates
  and a heat-map matrix — with synthetic stand-ins for the
  data.cityofnewyork.us datasets;
- :mod:`repro.pipeline.geometry` — point-in-polygon and friends for the
  spatial join;
- :mod:`repro.pipeline.survey` — the classroom-evaluation data of
  Table 1, stored as raw survey records and re-aggregated through a
  Spark pipeline that must reproduce the table exactly.
"""

from repro.pipeline.geometry import BoundingBox, Polygon
from repro.pipeline.nyc import (
    NTA,
    Arrest,
    arrests_per_100k,
    generate_arrests,
    generate_ntas,
    heat_map_matrix,
    nyc_arrests_pipeline,
)
from repro.pipeline.stages import (
    Pipeline,
    ProjectSpec,
    SparkPipeline,
    Stage,
    StageKind,
    validate_project,
)
from repro.pipeline.survey import TABLE1_EXPECTED, aggregate_survey, raw_survey_items
from repro.pipeline.transit import (
    cancellation_by_condition,
    delay_by_condition,
    generate_trips,
    generate_weather,
    worst_routes,
)

__all__ = [
    "Polygon",
    "BoundingBox",
    "Stage",
    "StageKind",
    "Pipeline",
    "SparkPipeline",
    "ProjectSpec",
    "validate_project",
    "NTA",
    "Arrest",
    "generate_ntas",
    "generate_arrests",
    "arrests_per_100k",
    "nyc_arrests_pipeline",
    "heat_map_matrix",
    "TABLE1_EXPECTED",
    "raw_survey_items",
    "aggregate_survey",
    "generate_weather",
    "generate_trips",
    "delay_by_condition",
    "worst_routes",
    "cancellation_by_condition",
]
