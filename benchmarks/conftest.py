"""Shared fixtures for the benchmark harness.

The benchmarks double as the reproduction harness for the paper's
figures: each bench regenerates one table/figure and prints it, so
``pytest benchmarks/ --benchmark-only -s`` reproduces the evaluation.

The grid is fanned out through :mod:`repro.eval.parallel`:

* ``--jobs N`` runs simulation cells over N worker processes
  (``--jobs 0`` = all cores; default 1, serial),
* results are cached under ``--cache-dir`` (default ``.repro-cache``)
  so re-runs only pay for invalidated cells,
* ``--no-cache`` forces every cell to recompute.
"""

import pytest


def pytest_addoption(parser):
    group = parser.getgroup("repro evaluation grid")
    group.addoption(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for evaluation cells (1=serial, 0=all cores)",
    )
    group.addoption(
        "--no-cache", action="store_true", default=False,
        help="bypass the on-disk result cache",
    )
    group.addoption(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default .repro-cache)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure(name): benchmark regenerates a paper figure"
    )


@pytest.fixture(scope="session")
def jobs(request):
    """Worker count for the parallel evaluation runner."""
    return request.config.getoption("--jobs")


@pytest.fixture(scope="session")
def eval_cache(request):
    """The shared on-disk result cache (None with ``--no-cache``)."""
    from repro.eval.parallel import DEFAULT_CACHE_DIR, ResultCache

    if request.config.getoption("--no-cache"):
        return None
    root = request.config.getoption("--cache-dir") or DEFAULT_CACHE_DIR
    return ResultCache(root)


@pytest.fixture(scope="session")
def show():
    """Print helper that survives pytest's capture when -s is absent."""

    def _show(text: str) -> None:
        print("\n" + text)

    return _show
