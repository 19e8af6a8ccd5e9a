"""Golden digests: today's outputs against the ones recorded in ``digests.json``.

Conformance compares rungs with each other inside one revision; this
test compares the revision with the revisions before it. It recomputes
every entry of ``tests/golden/digests.json`` with ``tools/golden.py``
and fails on the first differing field of each entry that moved.

Integer outputs (every align, kNN and traffic entry) must match on any
platform: the kNN shapes keep every query's k-th and (k+1)-th nearest
distances at least 1e-3 apart, far above any rounding difference. Float
outputs (k-means centroids, inertia and shifts, arrest coordinates, the
Fig. 2 heat map and the serve results built from them) can also move
with the numpy build: a different version, SIMD path or FMA use can
change the last bit of a sum or product. If only float entries fail and
the recorded numpy version differs from this build's, the mismatch says
nothing about the program: regenerate the file on this build at the
parent revision and compare against that. On the recorded build, any
mismatch is an output change, and the change that rewrites the file
(``python tools/golden.py --write``) must say why.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "tools"))

import golden  # noqa: E402


def test_outputs_match_recorded_digests():
    recorded = golden.load()
    problems = golden.diff(recorded["entries"], golden.compute())
    build = (
        f"recorded with numpy {recorded['numpy']}, running numpy {np.__version__}"
        + ("" if recorded["numpy"] == np.__version__ else
           " (float-only mismatches may be the build, see the module docstring)")
    )
    assert not problems, f"{len(problems)} golden entries moved ({build}):\n" + "\n".join(
        problems[:20]
    )


def test_diff_reports_fields_computed_but_not_recorded():
    recorded = {"heat/case": {"digest": "abc"}}
    current = {"heat/case": {"digest": "abc", "stats": "def"}}
    assert golden.diff(recorded, current) == [
        "heat/case: field 'stats' computed but not recorded"
    ]
