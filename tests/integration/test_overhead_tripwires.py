"""Tier-1 tripwires: every overhead gate of ``benchmarks/gates.py`` at tiny scale.

The authoritative 1.05x budgets run at bench scale in
``benchmarks/test_overhead_gates.py``. Here each gate runs on a workload
small enough for every test sweep, against a deliberately loose 2.0x, so
it fires on a *gross* regression (an un-gated hot-path allocation,
accidental always-on machinery) rather than on scheduler noise. The
gate's bit-identity and machinery checks run in full at either scale.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from gates import GATES, TRIPWIRE, run_gate  # noqa: E402


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_overhead_tripwire(gate):
    run = run_gate(gate, TRIPWIRE)
    assert run.ratio < run.threshold, run.failure()
