"""The census cuts a simulation into slices without changing what it does."""

import pytest

from scalebench import use_checkout_sources

use_checkout_sources()

from repro.sim.kernel import Simulator, Timeout  # noqa: E402

from scalebench.round import SLICE_VIRTUAL_S, Census  # noqa: E402


def _simulate(until, **run_kwargs):
    """Three tickers with co-prime periods; returns (log, sim)."""
    sim = Simulator(seed=3)
    log = []

    def ticker(name, period):
        while True:
            yield Timeout(period)
            log.append((round(sim.now, 9), name, sim.rng.random(name)))

    for name, period in (("a", 0.013), ("b", 0.1), ("c", 0.37)):
        sim.spawn(ticker(name, period), name=name)
    sim.run(until=until, **run_kwargs)
    return log, sim


@pytest.fixture
def census():
    original = vars(Simulator)["run"]
    census = Census()
    census.install()
    yield census
    assert census.uninstall() == 0
    assert vars(Simulator)["run"] is original


def test_sliced_run_fires_the_same_events_in_the_same_order(census):
    sliced_log, sliced = _simulate(1.234)
    assert census.uninstall() == 0
    plain_log, plain = _simulate(1.234)
    census.install()
    assert sliced_log == plain_log
    assert (sliced.now, sliced.steps) == (plain.now, plain.steps) == (
        1.234, plain.steps)
    assert census.steps == plain.steps


def test_cuts_fall_on_the_virtual_time_grid(census):
    census.marks = []
    _log, sim = _simulate(0.45)
    # One mark at entry, one per grid point passed, one at the horizon.
    assert len(census.marks) == 1 + int(0.45 / SLICE_VIRTUAL_S) + 1
    assert sim.now == 0.45
    walls = [wall for wall, _cpu in census.marks]
    assert walls == sorted(walls)


def test_nothing_is_recorded_outside_the_timed_section(census):
    _simulate(0.3)
    assert census.marks is None


def test_step_budgets_and_open_horizons_pass_through(census):
    census.marks = []
    _log, sim = _simulate(5.0, max_steps=10)
    assert sim.steps == 10 and census.steps == 10
    assert census.marks == []
