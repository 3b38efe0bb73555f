"""Shared benchmark configuration.

Every benchmark module emits a paper-style report table at teardown; the
corpora are scaled down from the paper's testbed (a 2003 C++/Berkeley DB
system on a 662 MHz machine) to laptop-Python sizes — DESIGN.md explains
why the *shapes* survive the substitution even though absolute numbers
do not.

One suite-wide option:

``--no-bench-json``
    skip writing the machine-readable ``BENCH_<name>.json`` snapshots at
    the repo root (modules that define ``bench_json_payload()`` write one
    per run; CI diffs them against the committed baseline).
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--no-bench-json",
        action="store_true",
        default=False,
        help="do not write BENCH_<name>.json snapshots at the repo root",
    )


def pytest_configure(config):
    # Allocation sequences across a full benchmark run are deterministic,
    # so cyclic-GC collections land at *fixed* points — and a gen-2 pause
    # (tens of ms with eight module-scope indexes resident) that happens
    # to fall inside one query's three timed rounds reads as a 4-5x
    # regression of that query on every run.  Keep the collector off
    # during timed rounds (pytest-benchmark re-enables it in between).
    config.option.benchmark_disable_gc = True


@pytest.fixture(scope="module", autouse=True)
def emit_module_report(request):
    """Emit the module's ``REPORT`` and JSON payload after its benchmarks ran."""
    yield
    report = getattr(request.module, "REPORT", None)
    if report is not None and report.rows:
        report.emit()
    builder = getattr(request.module, "bench_json_payload", None)
    if builder is not None and not request.config.getoption("--no-bench-json"):
        from repro.bench.harness import write_bench_json

        result = builder()
        if result is not None:
            name, payload = result
            path = write_bench_json(name, payload)
            print(f"\nwrote {path}")
