"""Compiler unit tests: builders, run kinds, and failure modes."""

import pytest

from repro.scenarios.compile import compile_run, execute_run
from repro.scenarios.spec import SpecError, expand_sweep, parse_spec, resolve_spec


def _one_run(overrides):
    runs = expand_sweep(resolve_spec(overrides))
    assert len(runs) == 1
    return runs[0]


class TestCapacityRuns:
    def test_small_capacity_run(self):
        res = execute_run(_one_run({"networks": {"devices": 6}}))
        assert res["kind"] == "capacity"
        assert res["offered"] == 6
        assert res["delivered"] == 6
        assert res["networks"][0]["network_id"] == 1

    def test_deterministic_across_calls(self):
        run = _one_run({"networks": {"devices": 10}, "traffic": {"shuffle": True}})
        assert execute_run(run) == execute_run(run)

    def test_metrics_toggles(self):
        res = execute_run(
            _one_run(
                {
                    "networks": {"devices": 4},
                    "metrics": {"breakdown": True},
                }
            )
        )
        assert set(res["breakdown"]) == {
            "offered", "prr", "decoder_intra", "decoder_inter",
            "channel_intra", "channel_inter", "other",
        }


class TestLoadRuns:
    def _base(self, traffic):
        return {
            "run": {"kind": "load"},
            "networks": {"devices": 8},
            "traffic": {"window_s": 10.0, **traffic},
        }

    @pytest.mark.parametrize(
        "traffic",
        [
            {"users": 40, "mean_interval_s": 10.0},
        ],
    )
    def test_each_traffic_model_runs(self, traffic):
        res = execute_run(_one_run(self._base(traffic)))
        assert res["kind"] == "load"
        assert res["offered"] > 0
        assert 0.0 <= res["prr"] <= 1.0


class TestAssignments:
    @pytest.mark.parametrize("kind", ["orthogonal", "standard"])
    def test_assignment_kinds(self, kind):
        res = execute_run(
            _one_run({"networks": {"devices": 5}, "assignment": {"kind": kind}})
        )
        assert res["offered"] == 5

    def test_contiguous_split_needs_enough_channels(self):
        doc = {
            "networks": {"count": 9, "devices": 1},
            "assignment": {"split_channels": "contiguous"},
        }
        with pytest.raises(SpecError, match="split_channels"):
            execute_run(_one_run(doc))

    def test_unknown_band(self):
        with pytest.raises(SpecError, match="region.band"):
            execute_run(_one_run({"region": {"band": "MARS900"}}))

    def test_channel_limit_out_of_range(self):
        with pytest.raises(SpecError, match="region.channels"):
            execute_run(_one_run({"region": {"channels": 99}}))


class TestRegionalPlans:
    @pytest.mark.parametrize("band", ["US915", "EU868", "AS923"])
    def test_regional_bands_compile(self, band):
        # Gateways model 8-channel COTS hardware, so regional plans cap
        # the grid slice they deploy on.
        res = execute_run(
            _one_run(
                {
                    "region": {"band": band, "channels": 8},
                    "networks": {"devices": 4},
                }
            )
        )
        assert res["offered"] == 4


class TestCompiledRun:
    def test_compile_preserves_identity(self):
        run = _one_run({"seed": 9, "networks": {"devices": 2}})
        compiled = compile_run(run)
        assert compiled.run_id == run.run_id
        assert compiled.seed == 9

    def test_list_entry_of_zero_devices_is_kept(self):
        res = execute_run(
            _one_run({"networks": {"count": 2, "devices": 8, "list": [{"devices": 0}, {}]}})
        )
        assert [row["offered"] for row in res["networks"]] == [0, 8]

    def test_multi_network_rows(self):
        spec = parse_spec(
            "networks:\n  count: 3\n  devices: 4\n  node_id_stride: 1000\n"
            "  gateway_id_stride: 100\n",
            "multi.yaml",
        )
        res = execute_run(spec.runs()[0])
        assert [row["network_id"] for row in res["networks"]] == [1, 2, 3]
        assert sum(row["offered"] for row in res["networks"]) == 12
