"""Tests for the phi accrual failure detector."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassandra.failure_detector import (
    DEFAULT_PHI_THRESHOLD,
    PHI_FACTOR,
    PhiAccrualFailureDetector,
)
from repro.cassandra.state_columnar import SharedClusterState


class TestArrivalWindow:
    """One target's sliding window of inter-arrival intervals."""

    def test_phi_zero_before_any_arrival(self):
        fd = PhiAccrualFailureDetector()
        assert fd.phi("p", 100.0) == 0.0

    def test_regular_heartbeats_keep_phi_low(self):
        fd = PhiAccrualFailureDetector(expected_interval=1.0)
        for t in range(1, 30):
            fd.report("p", float(t))
        # Just after an arrival, suspicion is tiny.
        assert fd.phi("p", 29.1) < 0.5

    def test_phi_grows_linearly_with_silence(self):
        fd = PhiAccrualFailureDetector(expected_interval=1.0)
        for t in range(1, 30):
            fd.report("p", float(t))
        phi_5 = fd.phi("p", 29.0 + 5.0)
        phi_10 = fd.phi("p", 29.0 + 10.0)
        assert phi_10 == pytest.approx(2 * phi_5)

    def test_phi_formula_matches_cassandra(self):
        fd = PhiAccrualFailureDetector(expected_interval=1.0)
        fd.report("p", 0.0)
        fd.report("p", 1.0)  # mean interval now (0.5 + 1.0) / 2 = 0.75
        assert fd.mean_interval("p") == pytest.approx(0.75)
        expected = PHI_FACTOR * 3.0 / fd.mean_interval("p")
        assert fd.phi("p", 4.0) == pytest.approx(expected)

    def test_window_slides(self):
        fd = PhiAccrualFailureDetector(window_size=3, expected_interval=1.0)
        for t in (1.0, 2.0, 3.0, 4.0, 10.0):
            fd.report("p", t)
        # Window keeps only last 3 intervals: 1, 1, 6.
        assert fd.mean_interval("p") == pytest.approx((1 + 1 + 6) / 3)
        # ... and keeps sliding once the ring buffer has wrapped: 1, 6, 2.
        fd.report("p", 12.0)
        assert fd.mean_interval("p") == pytest.approx((1 + 6 + 2) / 3)

    def test_window_of_one_keeps_only_the_latest_interval(self):
        fd = PhiAccrualFailureDetector(window_size=1, expected_interval=1.0)
        fd.report("p", 1.0)
        assert fd.mean_interval("p") == 0.5     # the bootstrap interval
        for t in (3.0, 7.0):
            fd.report("p", t)
        assert fd.mean_interval("p") == 4.0

    def test_time_going_backwards_rejected(self):
        fd = PhiAccrualFailureDetector()
        fd.report("p", 5.0)
        with pytest.raises(ValueError):
            fd.report("p", 4.0)

    def test_fast_heartbeats_make_detector_twitchier(self):
        fd = PhiAccrualFailureDetector(expected_interval=1.0)
        for t in range(1, 20):
            fd.report("slow", float(t))          # 1s intervals
            fd.report("fast", float(t) * 0.1)    # 0.1s intervals
        silence = 3.0
        assert fd.phi("fast", 1.9 + silence) > fd.phi("slow", 19.0 + silence)


class TestPhiAccrualFailureDetector:
    def test_conviction_after_silence(self):
        fd = PhiAccrualFailureDetector(expected_interval=1.0)
        for t in range(1, 20):
            fd.report("peer", float(t))
        assert not fd.should_convict("peer", 20.0)
        # Silence long enough pushes phi over the threshold.
        assert fd.should_convict("peer", 19.0 + 60.0)

    def test_unknown_endpoint_never_convicted(self):
        fd = PhiAccrualFailureDetector()
        assert fd.phi("ghost", 100.0) == 0.0
        assert not fd.should_convict("ghost", 100.0)

    def test_threshold_is_cassandras_default(self):
        assert DEFAULT_PHI_THRESHOLD == 8.0
        assert PhiAccrualFailureDetector().phi_threshold == 8.0

    def test_forget_drops_state(self):
        fd = PhiAccrualFailureDetector()
        fd.report("peer", 1.0)
        fd.forget("peer")
        assert fd.known_endpoints() == []
        assert fd.phi("peer", 100.0) == 0.0

    def test_stats_counters(self):
        fd = PhiAccrualFailureDetector()
        for t in range(1, 10):
            fd.report("p", float(t))
        fd.should_convict("p", 500.0)
        assert fd.stats.reports == 9
        assert fd.stats.convictions == 1
        assert fd.stats.max_phi_seen > 8.0

    def test_independent_endpoints(self):
        fd = PhiAccrualFailureDetector(expected_interval=1.0)
        for t in range(1, 30):
            fd.report("healthy", float(t))
            if t < 10:
                fd.report("silent", float(t))
        assert not fd.should_convict("healthy", 29.5)
        assert fd.phi("silent", 29.5) > fd.phi("healthy", 29.5)

    def test_conviction_time_scales_with_mean_interval(self):
        """The section 3 irony: the detector is *designed* to adapt, which
        is exactly why stalled gossip stages (stale arrivals) flip healthy
        peers to dead."""
        fd = PhiAccrualFailureDetector(expected_interval=1.0)
        for t in range(1, 60):
            fd.report("p", float(t) * 0.5)   # 0.5s mean interval
        last = 59 * 0.5
        # phi crosses 8 at roughly threshold/PHI_FACTOR * mean ~ 9.2s.
        assert not fd.should_convict("p", last + 5.0)
        assert fd.should_convict("p", last + 12.0)

    def test_observers_sharing_a_registry_keep_their_own_windows(self):
        """The cluster-wide registry only names rows; arrivals stay local."""
        shared = SharedClusterState()
        x = PhiAccrualFailureDetector(shared=shared)
        y = PhiAccrualFailureDetector(shared=shared)
        shared.gid("elsewhere")             # rows need not start at gid 0
        for t in range(1, 10):
            x.report("p", float(t))
        assert y.known_endpoints() == []
        assert y.phi("p", 100.0) == 0.0
        assert not y.should_convict("p", 100.0)
        y.report("q", 1.0)
        assert x.known_endpoints() == ["p"]
        assert x.should_convict("p", 100.0)

    def test_phis_snapshot_leaves_stats_untouched(self):
        fd = PhiAccrualFailureDetector()
        fd.report("b", 1.0)
        fd.report("a", 2.0)
        fd.forget("b")
        fd.report("b", 3.0)
        snapshot = fd.phis(50.0)
        assert list(snapshot) == ["a", "b"]      # first-report order
        assert snapshot["a"] == fd.phi("a", 50.0)
        assert PhiAccrualFailureDetector().phis(1.0) == {}
        quiet = PhiAccrualFailureDetector()
        quiet.report("p", 1.0)
        quiet.phis(500.0)
        assert quiet.stats.max_phi_seen == 0.0


@given(intervals=st.lists(st.floats(min_value=0.01, max_value=10.0),
                          min_size=1, max_size=100))
@settings(max_examples=50)
def test_property_phi_nonnegative_and_monotonic_in_time(intervals):
    fd = PhiAccrualFailureDetector()
    t = 0.0
    for interval in intervals:
        t += interval
        fd.report("p", t)
    phis = [fd.phi("p", t + delta) for delta in (0.0, 1.0, 5.0, 25.0)]
    assert all(p >= 0 for p in phis)
    assert phis == sorted(phis)


#: Registered targets; gids up to ``len(POOL) + 2`` are also swept, so some
#: lie beyond the detector's columns and some beyond the registry itself.
POOL = [f"p{i}" for i in range(5)]


@given(
    window_size=st.sampled_from([1, 2, 1000]),
    # 1e-12 makes the bootstrap interval, and with zero gaps the mean,
    # fall below the 1e-9 floor.
    expected_interval=st.sampled_from([1.0, 1e-12]),
    # A negative threshold convicts even the phi-0.0 unknown rows.
    threshold=st.sampled_from([DEFAULT_PHI_THRESHOLD, 0.5, -1.0]),
    steps=st.lists(
        st.tuples(st.sampled_from(["report", "forget", "probe"]),
                  st.sampled_from(POOL),
                  st.one_of(st.just(0.0), st.floats(0.0, 30.0))),
        max_size=60),
    gids=st.lists(st.integers(0, len(POOL) + 2), max_size=12),
    tail=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_property_sweep_equals_a_should_convict_loop(
        window_size, expected_interval, threshold, steps, gids, tail):
    """``sweep`` leaves exactly what one ``should_convict`` per gid would."""
    shared = SharedClusterState()
    for name in POOL:
        shared.gid(name)
    fused, reference = (
        PhiAccrualFailureDetector(phi_threshold=threshold,
                                  window_size=window_size,
                                  expected_interval=expected_interval,
                                  shared=shared)
        for __ in range(2))
    names = [shared.names[gid] if gid < len(shared.names)
             else f"unregistered-{gid}" for gid in gids]

    def probe(now):
        got = fused.sweep(gids, now)
        want = [position for position, name in enumerate(names)
                if reference.should_convict(name, now)]
        assert got == want
        assert fused.stats.convictions == reference.stats.convictions
        assert (fused.stats.max_phi_seen.hex()
                == reference.stats.max_phi_seen.hex())

    now = 0.0
    for kind, target, gap in steps:
        now += gap
        if kind == "probe":
            probe(now)
        elif kind == "report":
            fused.report(target, now)
            reference.report(target, now)
        else:
            fused.forget(target)
            reference.forget(target)
    for gap in tail:
        probe(now + gap)


# -- the sample pool against per-target deques --------------------------------


class DequeDetector:
    """The reference: one ``deque`` window per target, slid with the same
    ``sum -= oldest; sum += new`` order, and phi computed afresh."""

    def __init__(self, threshold, window_size, expected_interval):
        self.threshold = threshold
        self.window_size = window_size
        self.bootstrap = expected_interval / 2.0
        self.windows, self.sums, self.last = {}, {}, {}
        self.reports = self.convictions = 0
        self.max_phi_seen = 0.0

    def report(self, name, now):
        self.reports += 1
        if name in self.windows:
            interval = now - self.last[name]
        else:
            interval = self.bootstrap
            self.windows[name] = deque()
            self.sums[name] = 0.0
        self.last[name] = now
        window = self.windows[name]
        if len(window) == self.window_size:
            self.sums[name] -= window.popleft()
        window.append(interval)
        self.sums[name] += interval

    def forget(self, name):
        self.windows.pop(name, None)

    def mean_interval(self, name):
        if name not in self.windows:
            return float("nan")
        return self.sums[name] / len(self.windows[name])

    def phi(self, name, now):
        if name not in self.windows:
            value = 0.0
        else:
            value = (PHI_FACTOR * (now - self.last[name])
                     / max(self.mean_interval(name), 1e-9))
        self.max_phi_seen = max(self.max_phi_seen, value)
        return value

    def should_convict(self, name, now):
        convict = self.phi(name, now) > self.threshold
        self.convictions += convict
        return convict


def _chain(fd, gid):
    """``gid``'s window, oldest first, read off the pool's links."""
    samples, slot = [], fd._head[gid] if gid < len(fd._head) else -1
    while slot >= 0:
        samples.append(fd._pool[slot])
        slot = fd._next[slot]
    return samples


def _free_slots(fd):
    count, slot = 0, fd._free
    while slot >= 0:
        count, slot = count + 1, fd._next[slot]
    return count


@given(
    targets=st.integers(1, 6),
    window_size=st.sampled_from([1, 2, 3, 5]),
    threshold=st.sampled_from([DEFAULT_PHI_THRESHOLD, 0.5]),
    steps=st.lists(
        st.tuples(st.sampled_from(["report", "report", "forget", "probe"]),
                  st.integers(0, 5),
                  st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
        max_size=80),
)
@settings(max_examples=300, deadline=None)
def test_property_pool_equals_per_target_deques(targets, window_size,
                                                threshold, steps):
    """The pooled windows read bit-equal to one deque per target, through
    arrivals, slides, forgets and re-reports; the pool holds no slot that
    is neither a window's sample nor free."""
    names = [f"p{i}" for i in range(targets)]
    shared = SharedClusterState()
    fd = PhiAccrualFailureDetector(phi_threshold=threshold,
                                   window_size=window_size, shared=shared)
    reference = DequeDetector(threshold, window_size, 1.0)

    def compare(now):
        for name in names:
            assert (fd.mean_interval(name).hex()
                    == reference.mean_interval(name).hex())
            assert fd.phi(name, now).hex() == reference.phi(name, now).hex()
        gids = [shared.gid(name) for name in names]
        assert fd.sweep(gids, now) == [
            position for position, name in enumerate(names)
            if reference.should_convict(name, now)]
        for name in names:
            assert (fd.should_convict(name, now)
                    == reference.should_convict(name, now))
        assert fd.stats.reports == reference.reports
        assert fd.stats.convictions == reference.convictions
        assert fd.stats.max_phi_seen.hex() == reference.max_phi_seen.hex()
        held = 0
        for name in names:
            window = reference.windows.get(name)
            chain = _chain(fd, shared.gid(name))
            if window is not None and chain == []:
                # The deferred bootstrap sample: no pool slot yet.
                assert list(window) == [reference.bootstrap]
            else:
                assert chain == list(window or ())
            held += min(len(window or ()), window_size)
        assert len(fd._pool) == len(fd._next)
        assert len(fd._pool) <= held + _free_slots(fd)

    now = 0.0
    for kind, index, gap in steps:
        name = names[index % targets]
        now += gap
        if kind == "report":
            fd.report(name, now)
            reference.report(name, now)
        elif kind == "forget":
            fd.forget(name)
            reference.forget(name)
        else:
            compare(now)
    compare(now + 1.0)
