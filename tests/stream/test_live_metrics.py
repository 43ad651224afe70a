"""Tests of the tumbling-window / EWMA live-metrics observer."""

import json

import pytest

from repro.sim.trace import TraceRecord
from repro.stream import StreamingSimulation, StreamSpec
from repro.stream.live_metrics import LiveMetrics, MetricsTimeline, WindowStats


def rec(time, kind, detail=""):
    return TraceRecord(time=time, kind=kind, task_id=0, detail=detail)


class TestWindowing:
    def test_records_fold_into_their_window(self):
        live = LiveMetrics(window=100)
        live.record(rec(10, "arrival"))
        live.record(rec(20, "arrival"))
        live.record(rec(150, "arrival"))  # rolls window 0 closed
        timeline = live.timeline()
        assert len(timeline) == 1
        assert timeline.windows[0].arrivals == 2
        assert (timeline.windows[0].start,
                timeline.windows[0].end) == (0, 100)

    def test_gap_windows_are_emitted_empty(self):
        live = LiveMetrics(window=100)
        live.record(rec(10, "arrival"))
        live.record(rec(550, "arrival"))
        timeline = live.timeline()
        assert len(timeline) == 5
        assert [w.arrivals for w in timeline.windows] == [1, 0, 0, 0, 0]
        assert timeline.x_values() == [100, 200, 300, 400, 500]

    def test_advance_to_closes_elapsed_windows_only(self):
        live = LiveMetrics(window=100)
        live.record(rec(10, "arrival"))
        live.advance_to(250)
        assert len(live.timeline()) == 2  # [0,100) and [100,200); 200.. open
        live.advance_to(300)
        assert len(live.timeline()) == 3

    def test_record_into_closed_window_rejected(self):
        live = LiveMetrics(window=100)
        live.advance_to(200)
        with pytest.raises(ValueError, match="already-closed"):
            live.record(rec(150, "arrival"))

    def test_depth_counters_follow_lifecycle(self):
        live = LiveMetrics(window=100)
        live.record(rec(10, "arrival"))
        live.record(rec(11, "arrival"))
        assert live.batch_depth == 2 and live.backlog == 0
        live.record(rec(20, "mapped"))
        assert live.batch_depth == 1 and live.backlog == 1
        live.record(rec(30, "started", detail="duration=5"))
        live.record(rec(35, "completed", detail="on_time=True"))
        assert live.backlog == 0
        live.record(rec(40, "expired_batch"))
        assert live.batch_depth == 0
        live.advance_to(100)
        closed = live.timeline().windows[0]
        assert closed.arrivals == 2
        assert closed.mapped == 1 and closed.started == 1
        assert closed.completions == 1 and closed.on_time == 1
        assert closed.drops_expired == 1
        assert closed.batch_depth_end == 0 and closed.backlog_end == 0

    def test_crash_records_move_tasks_off_machines(self):
        live = LiveMetrics(window=100)
        for t in (10, 11):
            live.record(rec(t, "arrival"))
            live.record(rec(t, "mapped"))
        live.record(rec(20, "requeued"))
        assert live.batch_depth == 1 and live.backlog == 1
        live.record(rec(20, "lost_in_crash"))
        assert live.batch_depth == 1 and live.backlog == 0
        live.advance_to(100)
        assert live.timeline().windows[0].drops_reactive == 1

    def test_unknown_kind_is_ignored(self):
        live = LiveMetrics(window=100)
        live.record(rec(10, "some_future_kind"))
        live.advance_to(100)
        assert live.timeline().windows[0].resolved == 0


class TestRates:
    def test_rates_over_resolved_tasks(self):
        live = LiveMetrics(window=100)
        live.record(rec(10, "completed", detail="on_time=True"))
        live.record(rec(11, "completed", detail="on_time=False"))
        live.record(rec(12, "dropped_proactive"))
        live.record(rec(13, "dropped_reactive"))
        live.advance_to(100)
        w = live.timeline().windows[0]
        assert w.resolved == 4
        assert w.completion_rate == pytest.approx(0.25)
        assert w.drop_rate == pytest.approx(0.5)
        assert w.miss_rate == pytest.approx(0.75)

    def test_empty_window_rates_are_zero(self):
        w = WindowStats(index=0, start=0, end=100)
        assert w.completion_rate == 0.0
        assert w.drop_rate == 0.0
        assert w.miss_rate == 0.0
        assert w.throughput == 0.0

    def test_ewma_seeds_then_decays(self):
        live = LiveMetrics(window=100, decay=0.5)
        live.record(rec(10, "dropped_proactive"))   # drop_rate 1.0
        live.advance_to(100)
        live.record(rec(110, "completed", detail="on_time=True"))  # rate 0.0
        live.advance_to(200)
        windows = live.timeline().windows
        assert windows[0].ewma_drop_rate == pytest.approx(1.0)   # seeded
        assert windows[1].ewma_drop_rate == pytest.approx(0.5)   # decayed

    def test_perf_deltas_attributed_per_window(self):
        counters = {"calls": 0.0}
        live = LiveMetrics(window=100, perf_source=lambda: dict(counters))
        counters["calls"] = 3.0
        live.advance_to(100)
        counters["calls"] = 10.0
        live.advance_to(200)
        deltas = [w.perf["calls"] for w in live.timeline().windows]
        assert deltas == [3.0, 7.0]


class TestTimeline:
    def test_series_and_chart(self):
        live = LiveMetrics(window=100)
        live.record(rec(10, "completed", detail="on_time=True"))
        live.advance_to(300)
        timeline = live.timeline()
        series = timeline.series(("completion_rate",))
        assert series["completion_rate"] == [1.0, 0.0, 0.0]
        chart = timeline.chart()
        assert "service timeline" in chart

    def test_chart_without_windows(self):
        assert "no closed windows" in MetricsTimeline(window=100,
                                                      decay=0.2).chart()

    def test_round_trip(self):
        live = LiveMetrics(window=100)
        live.record(rec(10, "arrival"))
        live.record(rec(20, "completed", detail="on_time=True"))
        live.advance_to(200)
        timeline = live.timeline()
        again = MetricsTimeline.from_dict(timeline.to_dict())
        assert again == timeline

    def test_window_stats_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown WindowStats"):
            WindowStats.from_dict({"index": 0, "start": 0, "end": 1,
                                   "bogus": 2})

    def test_perf_excluded_from_equality(self):
        a = WindowStats(index=0, start=0, end=100, perf={"x": 1.0})
        b = WindowStats(index=0, start=0, end=100, perf={"x": 9.0})
        assert a == b


class TestStateRoundTrip:
    def test_state_dict_restores_mid_window(self):
        live = LiveMetrics(window=100, decay=0.5)
        live.record(rec(10, "dropped_proactive"))
        live.advance_to(100)
        live.record(rec(150, "arrival"))  # open window with content
        state = live.state_dict()

        restored = LiveMetrics(window=100, decay=0.5)
        restored.load_state(state)
        # Both observers must evolve identically from here.
        for observer in (live, restored):
            observer.record(rec(180, "mapped"))
            observer.advance_to(300)
        assert restored.timeline() == live.timeline()
        assert restored.batch_depth == live.batch_depth
        assert restored.backlog == live.backlog

    def test_load_state_rejects_config_mismatch(self):
        state = LiveMetrics(window=100, decay=0.5).state_dict()
        with pytest.raises(ValueError, match="does not match"):
            LiveMetrics(window=200, decay=0.5).load_state(state)

    def test_on_window_callback_fires_on_close(self):
        seen = []
        live = LiveMetrics(window=100, on_window=seen.append)
        live.record(rec(10, "arrival"))
        assert not seen
        live.advance_to(200)
        assert [w.index for w in seen] == [0, 1]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LiveMetrics(window=0)
        with pytest.raises(ValueError):
            LiveMetrics(window=100, decay=0.0)
        with pytest.raises(ValueError):
            LiveMetrics(window=100, decay=1.5)


class TestCrashChurn:
    """The depth counters agree with the system under crash/restart churn,
    whether crashed machines requeue their tasks or lose them."""

    @staticmethod
    def _assert_depths_match(service):
        system = service.system
        assert service.live.batch_depth == len(system.batch_queue)
        assert service.live.backlog == sum(m.occupancy
                                           for m in system.machines)

    @pytest.mark.parametrize("policy", ["requeue", "drop"])
    def test_depths_track_the_system(self, policy):
        spec = StreamSpec(traffic_name="burst", seed=1,
                          faults_name="crash-restart",
                          fault_params={"mtbf": 400.0, "repair_mean": 100.0,
                                        "policy": policy})
        service = StreamingSimulation(spec)
        for span in range(20):
            service.run_for(500)
            self._assert_depths_match(service)
            if span == 9:
                payload = json.loads(json.dumps(service.snapshot()))
                service = StreamingSimulation.restore(payload)
                self._assert_depths_match(service)
        system = service.system
        moved = (system.num_requeued_tasks if policy == "requeue"
                 else system.num_crash_lost)
        assert moved > 0
