"""Every idle-machinery overhead gate at bench scale (see ``gates.py``).

Each gate is held to the 1.05x budget and writes its report to
``out/<name>.txt`` and its schema-v1 record to ``out/BENCH_<name>.json``
(timings per label, with the gated ``ratio`` and ``threshold``).
"""

import pytest

from gates import BENCH, GATES, run_gate


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_overhead_gate(gate, report_writer, bench_json_writer):
    run = run_gate(gate, BENCH)
    report_writer(gate.name, run.report())
    bench_json_writer(
        gate.name,
        run.seconds,
        config=run.config,
        bit_identical=True,  # gate.check asserted the gated results bitwise
        ratio=run.ratio,
        threshold=run.threshold,
        **run.extra,
    )
    assert run.ratio < run.threshold, run.failure()
