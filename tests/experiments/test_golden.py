"""Golden outputs of five seed-0 drivers, pinned as literals.

The values are the drivers' own outputs, captured once and written
down here, so a drift in a shared builder (topology, channel plans,
traffic, link draws, the planner) fails this file instead of moving
the expectation with it.  Every comparison is exact: the drivers are
deterministic under their seed, floats included.
"""

from repro.experiments.chaos import run_chaos
from repro.experiments.fig02 import run_fig2a, run_fig2b
from repro.experiments.fig04 import run_fig4a, run_fig4b


def _settings(offered, received):
    """One Fig 2b row from its per-network offered/received counts."""
    return {
        "offered_1": offered[0],
        "offered_2": offered[1],
        "received_1": received[0],
        "received_2": received[1],
        "dropped_1": offered[0] - received[0],
        "dropped_2": offered[1] - received[1],
        "total_received": received[0] + received[1],
    }


def _breakdown(offered, prr, channel_intra, channel_inter=0.0, decoder_inter=0.0):
    """One loss-cause breakdown row (no decoder-intra or other losses)."""
    return {
        "offered": offered,
        "prr": prr,
        "channel_intra": channel_intra,
        "channel_inter": channel_inter,
        "decoder_intra": 0.0,
        "decoder_inter": decoder_inter,
        "other": 0.0,
    }


def test_fig2a():
    assert run_fig2a() == {
        "n": [1, 8, 16, 24, 32, 40, 48, 56, 64],
        "oracle": [1, 8, 16, 24, 32, 40, 48, 48, 48],
        "gw1": [1, 8, 16, 16, 16, 16, 16, 14, 10],
        "gw3": [1, 8, 16, 16, 16, 16, 16, 16, 15],
    }


def test_fig2b():
    assert run_fig2b() == {
        "settings": [
            _settings((10, 10), (8, 8)),
            _settings((16, 8), (9, 6)),
            _settings((6, 18), (3, 13)),
        ]
    }


def test_fig4a_breakdowns():
    assert run_fig4a(user_scales=(500, 1000)) == {
        "users": [500, 1000],
        "breakdown": [
            _breakdown(175, 0.9828571428571429, 0.017142857142857144),
            _breakdown(376, 0.9175531914893617, 0.08244680851063829),
        ],
    }


def test_fig4b_breakdowns():
    assert run_fig4b(network_counts=(1, 2)) == {
        "networks": [1, 2],
        "breakdown": [
            _breakdown(272, 0.8492647058823529, 0.15073529411764705),
            _breakdown(
                568,
                0.6971830985915493,
                0.09859154929577464,
                channel_inter=0.14788732394366197,
                decoder_inter=0.056338028169014086,
            ),
        ],
    }


def test_chaos():
    assert run_chaos(seed=0, fast=True) == {
        "window_s": 60.0,
        "bucket_s": 5.0,
        "offered": 61,
        "prr": 0.8194444444444444,
        "bucketed_prr": [
            1.0, 1.0, 1.0, 1.0, 1.0, 0.8181818181818182,
            0.4, 0.5454545454545454, 1.0, 1.0, 1.0, 1.0,
        ],
        "recovery_threshold": 0.8727272727272728,
        "time_to_recover_s": 10.0,
        "outcome_counts": {
            "received": 59,
            "channel_mismatch": 136,
            "gateway_offline": 17,
            "backhaul_lost": 2,
            "decode_failed": 2,
        },
        "retransmission_rounds": 2,
        "retransmissions": 11,
        "unique_frames_delivered": 18,
        "retry": {
            "confirmed_frames": 61,
            "delivered_ratio": 0.9672131147540983,
            "first_attempt_ratio": 0.8852459016393442,
            "after_retry_ratio": 0.08196721311475409,
            "unrecovered_ratio": 0.03278688524590164,
        },
        "planned_channels": 8,
        "upgrade_degraded": True,
        "upgrade_distribution_s": 0.0040003744,
        "upgrade_reboot_s": 5.438358357661566,
        "degraded_time_s": 30.0,
        "netserver_degraded_syncs": 1,
        "netserver_degraded_during_outage": True,
        "netserver_degraded_after_outage": False,
        "master_dropped_requests": 6,
        "client_retries": 4,
        "client_reconnects": 6,
        "connectivity_violations": 0,
        "fault_plan": {
            "seed": 0,
            "gateway_crashes": (
                {"time_s": 30.0, "gateway_id": 0, "down_s": 8.0},
            ),
            "backhaul_faults": (
                {
                    "gateway_id": 1,
                    "start_s": 30.0,
                    "end_s": 38.0,
                    "drop_prob": 0.3,
                    "delay_mean_s": 0.05,
                    "delay_jitter_s": 0.02,
                },
            ),
            "master_outages": ({"start_s": 15.0, "duration_s": 30.0},),
            "master_crashes": (),
            "decoder_degradations": (),
        },
    }
