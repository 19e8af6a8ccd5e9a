"""Serve-tier throughput and fairness under load, measured not assumed.

A small multi-tenant soak (the same generator the acceptance soak uses)
records jobs/second and the max-min fairness share into
``BENCH_serve_soak.json`` so the trial harness can watch both trend
lines. The idle-machinery gate (one job through an idle service vs a
direct call) is ``serve`` in ``gates.py``.
"""

from repro.serve import JobService, generate_traffic, run_soak

SOAK_TENANTS = 3
SOAK_JOBS_PER_TENANT = 6
SOAK_WORKERS = 3


def test_serve_soak_throughput_recorded(bench_json_writer):
    jobs = generate_traffic(17, tenants=SOAK_TENANTS, jobs_per_tenant=SOAK_JOBS_PER_TENANT)
    service = JobService(SOAK_WORKERS, capacity=16, max_retries=1)
    try:
        soak = run_soak(service, jobs, verify=False, timeout=300.0)
    finally:
        service.shutdown()
    assert sum(soak.states.values()) == len(jobs)

    bench_json_writer(
        "serve_soak",
        {"soak_total": soak.duration},
        config={
            "soak_tenants": SOAK_TENANTS,
            "soak_jobs_per_tenant": SOAK_JOBS_PER_TENANT,
            "soak_workers": SOAK_WORKERS,
        },
        throughput_jobs_per_sec=soak.throughput,
        fairness_max_min_share=soak.fairness,
        soak_states=dict(sorted(soak.states.items())),
    )
