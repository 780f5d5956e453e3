"""Tests for the bounded admission queue: shedding, lanes, lifecycle."""

import threading

import pytest

from repro.core.model import TkLUSQuery
from repro.serve import AdmissionConfig, AdmissionQueue, ShedError


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_query(keywords=("hotel",), radius_km=5.0):
    return TkLUSQuery(location=(40.0, -74.0), radius_km=radius_km,
                      keywords=frozenset(keywords), k=5)


class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionConfig(queue_delay_budget_ms=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(normal_lane_every=1)

    def test_fast_lane_classification(self):
        config = AdmissionConfig(fast_lane_max_keywords=1,
                                 fast_lane_max_radius_km=10.0)
        assert config.is_fast(make_query(("hotel",), 5.0))
        assert not config.is_fast(make_query(("hotel", "beach"), 5.0))
        assert not config.is_fast(make_query(("hotel",), 50.0))


class TestAdmissionQueue:
    def test_fifo_within_a_lane(self):
        queue = AdmissionQueue()
        queue.offer("a", fast=False)
        queue.offer("b", fast=False)
        assert queue.take(timeout=0) == "a"
        assert queue.take(timeout=0) == "b"

    def test_fast_lane_preferred(self):
        queue = AdmissionQueue()
        queue.offer("slow", fast=False)
        queue.offer("quick", fast=True)
        assert queue.take(timeout=0) == "quick"
        assert queue.take(timeout=0) == "slow"

    def test_anti_starvation_rotation(self):
        # Every ``normal_lane_every``-th take prefers the normal lane,
        # so a saturated fast lane cannot starve it.
        queue = AdmissionQueue(AdmissionConfig(normal_lane_every=4))
        for index in range(8):
            queue.offer(f"fast-{index}", fast=True)
        queue.offer("normal-0", fast=False)
        taken = [queue.take(timeout=0) for _ in range(5)]
        assert taken[3] == "normal-0"
        assert all(item.startswith("fast-") for item in taken[:3])

    def test_depth_bound_sheds(self):
        queue = AdmissionQueue(AdmissionConfig(max_queue_depth=2))
        queue.offer("a", fast=False)
        queue.offer("b", fast=False)
        with pytest.raises(ShedError):
            queue.offer("c", fast=False)
        assert queue.stats()["shed"] == 1
        assert queue.depth() == 2

    def test_delay_budget_sheds_with_retry_after(self):
        clock = FakeClock()
        queue = AdmissionQueue(
            AdmissionConfig(max_queue_depth=100,
                            queue_delay_budget_ms=500.0),
            workers=1, clock=clock)
        queue.observe_service_time(1.0)   # EWMA: 1s per query
        queue.offer("a", fast=False)      # depth 0 at admission: fine
        # Next arrival sees an estimated 1s wait > 500ms budget.
        with pytest.raises(ShedError) as info:
            queue.offer("b", fast=False)
        assert info.value.retry_after_seconds == pytest.approx(0.5)

    def test_service_time_ewma_converges(self):
        queue = AdmissionQueue()
        queue.observe_service_time(1.0)
        for _ in range(50):
            queue.observe_service_time(0.1)
        ewma = queue.stats()["service_time_ewma_ms"]
        assert 100.0 <= ewma < 110.0

    def test_take_times_out_empty(self):
        queue = AdmissionQueue()
        assert queue.take(timeout=0.01) is None

    def test_close_refuses_offers_and_drains(self):
        queue = AdmissionQueue()
        queue.offer("a", fast=False)
        queue.close()
        with pytest.raises(ShedError):
            queue.offer("b", fast=False)
        assert queue.take(timeout=0) == "a"
        # Closed and drained: take returns None immediately, no timeout.
        assert queue.take() is None

    def test_close_wakes_blocked_taker(self):
        queue = AdmissionQueue()
        results = []

        def taker():
            results.append(queue.take())

        thread = threading.Thread(target=taker)
        thread.start()
        queue.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert results == [None]

    def test_concurrent_offer_take_loses_nothing(self):
        queue = AdmissionQueue(AdmissionConfig(max_queue_depth=10_000))
        produced, consumed = 500, []
        lock = threading.Lock()

        def producer(base):
            for index in range(produced // 2):
                queue.offer(base + index, fast=index % 2 == 0)

        def consumer():
            while True:
                item = queue.take(timeout=0.2)
                if item is None:
                    return
                with lock:
                    consumed.append(item)

        threads = [threading.Thread(target=producer, args=(0,)),
                   threading.Thread(target=producer, args=(10_000,)),
                   threading.Thread(target=consumer),
                   threading.Thread(target=consumer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(consumed) == produced
        assert len(set(consumed)) == produced
