"""Tests for the streaming health monitor and alert engine."""

import pytest

from repro.obs import observe
from repro.obs.events import EventType
from repro.obs.health import (
    DEFAULT_RULES,
    AlertRule,
    Ewma,
    HealthMonitor,
    WindowedCounter,
    health_score,
    health_status,
)


class TestEwma:
    def test_first_sample_is_the_value(self):
        e = Ewma(halflife_s=10.0)
        assert not e.initialized
        assert e.value == 0.0
        e.update(4.0, t=0.0)
        assert e.value == pytest.approx(4.0)
        assert e.initialized

    def test_converges_toward_new_level(self):
        e = Ewma(halflife_s=1.0)
        e.update(0.0, t=0.0)
        for i in range(1, 20):
            e.update(10.0, t=float(i))
        assert e.value == pytest.approx(10.0, abs=0.01)

    def test_halflife_semantics(self):
        e = Ewma(halflife_s=5.0)
        e.update(0.0, t=0.0)
        e.update(10.0, t=5.0)  # exactly one half-life later
        assert e.value == pytest.approx(5.0)

    def test_out_of_order_sample_blends_without_decay(self):
        e = Ewma(halflife_s=10.0)
        e.update(10.0, t=100.0)
        e.update(0.0, t=50.0)  # stale: dt clamps to ~0, tiny alpha
        assert e.value > 9.0

    def test_rejects_nonpositive_halflife(self):
        with pytest.raises(ValueError):
            Ewma(halflife_s=0.0)


class TestWindowedCounter:
    def test_window_sum_and_rate(self):
        w = WindowedCounter(window_s=10.0, bucket_s=1.0)
        w.add(1.0)
        w.add(2.0, n=2.0)
        assert w.total(5.0) == pytest.approx(3.0)
        assert w.rate(5.0) == pytest.approx(0.3)

    def test_old_events_fall_out(self):
        w = WindowedCounter(window_s=10.0, bucket_s=1.0)
        w.add(1.0)
        w.add(50.0)
        assert w.total(55.0) == pytest.approx(1.0)

    def test_future_events_do_not_count_yet(self):
        w = WindowedCounter(window_s=10.0, bucket_s=1.0)
        w.add(30.0)
        assert w.total(5.0) == 0.0
        assert w.total(30.0) == pytest.approx(1.0)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            WindowedCounter(window_s=0.0)
        with pytest.raises(ValueError):
            WindowedCounter(bucket_s=-1.0)


class TestAlertRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlertRule("NotSnake", metric="x")
        with pytest.raises(ValueError):
            AlertRule("ok_name", metric="x", op="~")
        with pytest.raises(ValueError):
            AlertRule("ok_name", metric="x", severity="fatal")
        with pytest.raises(ValueError):
            AlertRule("ok_name", metric="x", scope="planet")
        with pytest.raises(ValueError):
            AlertRule("ok_name", metric="x", for_s=-1.0)

    def test_breach_and_hysteresis(self):
        r = AlertRule("x_high", metric="x", op=">", threshold=0.9, clear=0.7)
        assert r.breached(0.95)
        assert not r.breached(0.85)
        # Between clear and threshold: neither breached nor cleared.
        assert not r.cleared(0.8)
        assert r.cleared(0.6)

    def test_clear_defaults_to_threshold(self):
        r = AlertRule("x_low", metric="x", op="<", threshold=0.5)
        assert r.breached(0.4)
        assert r.cleared(0.6)

    def test_default_rules_are_valid_and_snake_case(self):
        names = [r.name for r in DEFAULT_RULES]
        assert len(names) == len(set(names))
        assert any(r.name == "gateway_offline" for r in DEFAULT_RULES)
        assert any(r.scope == "global" for r in DEFAULT_RULES)


class TestScoring:
    def test_healthy_gateway_scores_one(self):
        assert health_score({}) == pytest.approx(1.0)

    def test_offline_scores_zero(self):
        assert health_score({"offline": 1.0, "decoder_occupancy": 0.0}) == 0.0

    def test_contention_and_drops_chip_away(self):
        busy = health_score(
            {"decoder_occupancy": 1.0, "contention_rate": 0.5, "drop_ratio": 0.5}
        )
        idle = health_score({"decoder_occupancy": 0.2})
        assert busy < idle
        assert 0.0 <= busy <= 1.0

    def test_status_bands(self):
        assert health_status(0.9) == "healthy"
        assert health_status(0.5) == "degraded"
        assert health_status(0.1) == "critical"


def _grant(monitor, t, gw=0, dec=0, until=None):
    monitor.observe_event(
        EventType.DECODER_GRANT,
        t,
        {"gw": gw, "dec": dec, "until": until if until is not None else t + 1.0},
    )


class TestHealthMonitor:
    def test_occupancy_from_grants(self):
        m = HealthMonitor()
        _grant(m, 1.0, dec=0, until=5.0)
        _grant(m, 1.2, dec=1, until=5.0)
        snap = m.gateway_health()["gw0"]
        assert snap["pool_size"] == 2
        assert snap["sample"]["decoder_occupancy"] == pytest.approx(1.0)
        # Advance past the leases: occupancy drains to zero.
        m.observe_event(EventType.GW_LOCK_ON, 10.0, {"gw": 0})
        snap = m.gateway_health()["gw0"]
        assert snap["sample"]["decoder_occupancy"] == 0.0

    def test_pool_size_prefers_resize_events(self):
        m = HealthMonitor()
        m.observe_event(EventType.POOL_RESIZE, 0.0, {"gw": 0, "decoders": 8})
        _grant(m, 1.0, dec=0)
        assert m.gateway_health()["gw0"]["pool_size"] == 8

    def test_reject_alert_fires_after_for_s(self):
        rule = AlertRule(
            "contention", metric="contention_rate", op=">",
            threshold=0.5, for_s=5.0, clear=0.1, scope="gateway",
        )
        m = HealthMonitor(rules=(rule,), window_s=100.0)
        for i in range(20):
            t = float(i)
            m.observe_event(
                EventType.DECODER_REJECT, t, {"gw": 0, "blockers": []}
            )
        alerts = m.alerts()
        assert len(alerts) == 1
        a = alerts[0]
        assert a["rule"] == "contention"
        assert a["gateway"] == 0
        # Deterministic firing instant: breach start + for_s.
        assert a["fired_s"] == pytest.approx(a["pending_since_s"] + 5.0)
        assert a["active"]

    def test_engine_shaped_rejects_reach_full_contention(self):
        # The engine emits GW_LOCK_ON for *every* detection — rejected
        # ones included — and then DECODER_REJECT when the pool is
        # full.  A fully-contended gateway must therefore read
        # contention_rate == 1.0 (not 0.5 from double-counting the
        # reject as an extra lock-on), and the default
        # decoder_contention_high rule (> 0.5) must be able to fire.
        events = []
        for i in range(20):
            t = float(i)
            events.append(
                {"seq": 2 * i + 1, "type": EventType.GW_LOCK_ON, "t": t, "gw": 0}
            )
            events.append(
                {
                    "seq": 2 * i + 2,
                    "type": EventType.DECODER_REJECT,
                    "t": t,
                    "gw": 0,
                    "blockers": [],
                }
            )
        m = HealthMonitor(window_s=100.0).replay(events)
        sample = m.gateway_health()["gw0"]["sample"]
        assert sample["contention_rate"] == pytest.approx(1.0)
        fired = [
            a for a in m.alerts() if a["rule"] == "decoder_contention_high"
        ]
        assert len(fired) == 1
        assert fired[0]["active"]

    def test_pending_alert_resets_below_threshold_despite_clear_level(self):
        # Prometheus `for` semantics: hysteresis (`clear`) applies only
        # to *fired* alerts.  A pending alert whose value drops back
        # under the threshold — even while still above `clear` — must
        # reset its hold-down instead of accumulating toward for_s.
        rule = AlertRule(
            "drops_high", metric="drop_ratio", op=">",
            threshold=0.9, for_s=30.0, clear=0.7, scope="gateway",
        )
        m = HealthMonitor(rules=(rule,), window_s=1000.0)
        for i in range(10):
            m.observe_event(
                EventType.GW_RECEPTION, float(i), {"gw": 0, "outcome": "no_decoder"}
            )
        # drop_ratio 1.0: the rule goes pending.
        for t in (15.0, 16.0):
            m.observe_event(
                EventType.GW_RECEPTION, t, {"gw": 0, "outcome": "received"}
            )
        # Now 10/12 ≈ 0.83: below threshold but above clear — hovers.
        # Far past pending_since + for_s.
        m.observe_event(EventType.GW_LOCK_ON, 60.0, {"gw": 0})
        m.evaluate()
        assert m.alerts() == []

    def test_fired_alert_keeps_hysteresis_between_clear_and_threshold(self):
        rule = AlertRule(
            "drops_high", metric="drop_ratio", op=">",
            threshold=0.9, for_s=0.0, clear=0.7, scope="gateway",
        )
        m = HealthMonitor(rules=(rule,), window_s=1000.0)
        for i in range(10):
            m.observe_event(
                EventType.GW_RECEPTION, float(i), {"gw": 0, "outcome": "no_decoder"}
            )
        m.evaluate()
        assert [a["active"] for a in m.alerts()] == [True]
        for t in (15.0, 16.0):
            m.observe_event(
                EventType.GW_RECEPTION, t, {"gw": 0, "outcome": "received"}
            )
        m.evaluate()  # 10/12 ≈ 0.83: in the hysteresis band, stays firing
        assert m.alerts()[0]["active"]
        for i in range(5):
            m.observe_event(
                EventType.GW_RECEPTION, 20.0 + i, {"gw": 0, "outcome": "received"}
            )
        m.evaluate()  # 10/17 ≈ 0.59: below clear, resolves
        assert not m.alerts()[0]["active"]

    def test_pending_alert_heals_without_firing(self):
        rule = AlertRule(
            "contention", metric="contention_rate", op=">",
            threshold=0.5, for_s=30.0, scope="gateway",
        )
        m = HealthMonitor(rules=(rule,), window_s=5.0)
        m.observe_event(EventType.DECODER_REJECT, 0.0, {"gw": 0})
        # The window slides past the reject before for_s elapses.
        m.observe_event(EventType.GW_LOCK_ON, 20.0, {"gw": 0})
        m.evaluate()
        assert m.alerts() == []

    def test_offline_alert_fires_at_crash_and_resolves(self):
        m = HealthMonitor()
        m.observe_event(EventType.GW_LOCK_ON, 1.0, {"gw": 0})
        m.observe_event(
            EventType.GW_REBOOT, 30.0, {"gw": 0, "outage": 8.0, "reason": "crash"}
        )
        fired = [a for a in m.alerts() if a["rule"] == "gateway_offline"]
        assert len(fired) == 1
        assert fired[0]["fired_s"] == pytest.approx(30.0)
        assert fired[0]["severity"] == "critical"
        assert m.healthz()["status"] == "critical"
        # The radio comes back; the next evaluation resolves the alert.
        m.observe_event(EventType.GW_LOCK_ON, 40.0, {"gw": 0})
        m.evaluate()
        resolved = [a for a in m.alerts() if a["rule"] == "gateway_offline"]
        assert resolved[0]["resolved_s"] is not None
        assert not resolved[0]["active"]

    def test_global_master_alert(self):
        m = HealthMonitor()
        m.observe_event(EventType.MASTER_DROPPED, None, {"req": "register"})
        fired = [a for a in m.alerts() if a["rule"] == "master_unreachable"]
        assert len(fired) == 1
        assert fired[0]["scope"] == "global"
        assert fired[0]["gateway"] is None

    def test_master_readonly_alert(self):
        """A journal failure (read-only flip) is a critical alert."""
        m = HealthMonitor()
        m.observe_event(
            EventType.MASTER_READONLY, None, {"reason": "disk full"}
        )
        fired = [a for a in m.alerts() if a["rule"] == "master_readonly"]
        assert len(fired) == 1
        assert fired[0]["severity"] == "critical"
        assert m.healthz()["status"] == "critical"

    def test_recovery_events_tracked_globally(self):
        m = HealthMonitor()
        m.observe_event(
            EventType.MASTER_CRASH, None, {"at_request": 4, "req": "register"}
        )
        m.observe_event(
            EventType.MASTER_RECOVERED,
            None,
            {"seq": 4, "replayed": 2, "epoch": 1, "operators": 4},
        )
        sample = m.global_sample()
        assert sample["master_crashes_rate"] > 0
        assert sample["master_recoveries_rate"] > 0

    def test_drop_ratio_counts_final_fates(self):
        m = HealthMonitor(window_s=100.0)
        for i, outcome in enumerate(("received", "no_decoder", "received")):
            m.observe_event(
                EventType.GW_RECEPTION, float(i), {"gw": 0, "outcome": outcome}
            )
        sample = m.gateway_health()["gw0"]["sample"]
        assert sample["drop_ratio"] == pytest.approx(1.0 / 3.0)
        assert m.gateway_health()["gw0"]["outcomes"] == {
            "no_decoder": 1,
            "received": 2,
        }

    def test_clock_never_rewinds(self):
        m = HealthMonitor()
        m.observe_event(EventType.GW_LOCK_ON, 50.0, {"gw": 0})
        m.observe_event(EventType.GW_LOCK_ON, 10.0, {"gw": 0})  # replayed stale event
        assert m.gateway_health()["gw0"]["sim_time_s"] == 50.0

    def test_airtime_quantiles_surface(self):
        m = HealthMonitor()
        for i in range(10):
            _grant(m, float(i), dec=0, until=float(i) + 0.1)
        q = m.gateway_health()["gw0"]["airtime_quantiles_s"]
        assert q is not None
        assert 0.0 < q["p50"] <= q["p95"] <= q["p99"]

    def test_empty_gateway_has_no_quantiles(self):
        m = HealthMonitor()
        m.observe_event(EventType.GW_LOCK_ON, 1.0, {"gw": 0})
        assert m.gateway_health()["gw0"]["airtime_quantiles_s"] is None

    def test_report_shape(self):
        m = HealthMonitor()
        _grant(m, 1.0)
        report = m.report()
        assert report["schema"] == 1
        assert set(report) >= {"healthz", "alerts", "rules", "global_sample"}
        assert all(r["name"] for r in report["rules"])

    def test_replay_matches_live(self):
        events = [
            {"seq": 1, "type": EventType.GW_LOCK_ON, "t": 1.0, "gw": 0},
            {
                "seq": 2,
                "type": EventType.DECODER_GRANT,
                "t": 1.0,
                "gw": 0,
                "dec": 0,
                "until": 2.0,
            },
            {
                "seq": 3,
                "type": EventType.GW_REBOOT,
                "t": 5.0,
                "gw": 0,
                "outage": 4.0,
                "reason": "crash",
            },
        ]
        live = HealthMonitor()
        for ev in events:
            fields = {k: v for k, v in ev.items() if k not in ("seq", "type", "t")}
            live.observe_event(ev["type"], ev["t"], fields)
        live.evaluate()
        replayed = HealthMonitor().replay(
            [{"type": "manifest", "schema": 1}] + events
        )
        assert replayed.healthz()["gateways"] == live.healthz()["gateways"]
        assert replayed.alerts() == live.alerts()


class TestObserveIntegration:
    def test_observe_health_attaches_listener(self):
        with observe(trace=True, metrics=False, health=True) as s:
            from repro.obs import runtime

            assert runtime.TRACE is s.recorder
            s.recorder.emit(EventType.GW_LOCK_ON, t=1.0, gw=0)
        assert s.health.events_seen == 1

    def test_health_without_trace_uses_count_only_recorder(self):
        with observe(trace=False, metrics=False, health=True) as s:
            s.recorder.emit(EventType.GW_LOCK_ON, t=1.0, gw=0)
            assert len(s.recorder) == 0  # storage off
        assert s.health.events_seen == 1  # listener still fed

    def test_custom_monitor_instance_is_used(self):
        monitor = HealthMonitor(rules=())
        with observe(trace=False, metrics=False, health=monitor) as s:
            assert s.health is monitor

    def test_nested_session_still_raises(self):
        with observe(trace=False, metrics=False, health=True):
            with pytest.raises(RuntimeError):
                with observe():
                    pass
