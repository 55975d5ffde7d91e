"""Suite-wide fixtures and options.

* ``--seed N`` drives the shared :func:`rng` fixture used by the
  random-circuit and serving tests; the seed in use is printed (and shown
  by pytest on failure), so any flake reproduces with
  ``pytest --seed <printed seed>``.
* ``--update-golden`` regenerates the frozen trace fixtures under
  ``tests/fixtures/`` instead of diffing against them (see
  ``tests/core/test_golden_traces.py``).
* Every test runs under a guard that the set of named caches
  (:mod:`repro.telemetry.stats`) is the same after it as before: a name a
  test registers would show up in every later serving report.
"""

import numpy as np
import pytest

import repro  # noqa: F401  (importing both creates every named cache)
import repro.serving  # noqa: F401
from repro.telemetry.stats import all_cache_sizes

DEFAULT_SEED = 2024


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"seed for the shared rng fixture (default {DEFAULT_SEED})",
    )
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden-trace fixtures instead of diffing them",
    )


def pytest_report_header(config):
    return f"rng seed: {config.getoption('--seed')} (override with --seed)"


@pytest.fixture()
def seed(request):
    """The suite seed as a plain int (for APIs that take seeds directly)."""
    return request.config.getoption("--seed")


@pytest.fixture()
def rng(seed):
    """A fresh seeded generator per test; the seed prints on failure."""
    print(f"[rng fixture] seed={seed} (reproduce with: pytest --seed {seed})")
    return np.random.default_rng(seed)


@pytest.fixture()
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.fixture(autouse=True)
def _named_caches_unchanged():
    before = set(all_cache_sizes())
    yield
    assert set(all_cache_sizes()) == before, "the test changed the named caches"
