"""Spec resolution edge cases: validation, merging, sweeps, hashing."""

import re

import pytest

from repro.scenarios.spec import (
    SpecError,
    area_preset,
    canonical_json,
    content_hash,
    deep_merge,
    expand_sweep,
    get_path,
    load_defaults,
    parse_spec,
    resolve_spec,
    set_path,
)


class TestValidation:
    def test_unknown_key_is_path_qualified(self):
        with pytest.raises(SpecError, match=r"traffic\.window\b"):
            resolve_spec({"traffic": {"window": 10}})

    def test_unknown_key_suggests_neighbor(self):
        with pytest.raises(SpecError, match="window_s"):
            resolve_spec({"traffic": {"window": 10}})

    @pytest.mark.parametrize(
        "path",
        [
            "topology",
            "faults",
            "chaos",
            "run.seed_mode",
            "region.spacing_hz",
            "link.seed",
            "traffic.kind",
            "metrics.outcomes",
        ],
    )
    def test_removed_fields_are_unknown_keys(self, path):
        doc = {}
        for key in reversed(path.split(".")):
            doc = {key: doc}
        with pytest.raises(SpecError, match=rf"^{re.escape(path)}: unknown key"):
            resolve_spec(doc)

    def test_unknown_top_level_section(self):
        with pytest.raises(SpecError, match="trafic"):
            resolve_spec({"trafic": {}})

    def test_scalar_where_mapping_expected(self):
        with pytest.raises(SpecError, match="traffic"):
            resolve_spec({"traffic": 3})

    def test_unknown_network_entry_key(self):
        with pytest.raises(SpecError, match=r"networks\.list\.0\.device"):
            resolve_spec({"networks": {"list": [{"device": 4}]}})

    def test_bad_run_kind(self):
        with pytest.raises(SpecError, match="run.kind"):
            resolve_spec({"run": {"kind": "warp"}})

    def test_bad_area_preset(self):
        with pytest.raises(SpecError, match="area.preset"):
            resolve_spec({"area": {"preset": "galactic"}})

    def test_custom_area_requires_dimensions(self):
        with pytest.raises(SpecError, match="custom"):
            resolve_spec({"area": {"preset": "custom"}})

    def test_meta_is_free_form(self):
        resolved = resolve_spec({"meta": {"name": "x", "anything": [1, 2]}})
        assert resolved["meta"]["anything"] == [1, 2]


class TestMerge:
    def test_override_round_trip(self):
        overrides = {
            "seed": 7,
            "networks": {"devices": 99, "list": [{"devices": 3}]},
            "traffic": {"users": 123},
        }
        resolved = resolve_spec(overrides)
        # Every overridden leaf lands; every untouched default survives.
        assert resolved["seed"] == 7
        assert resolved["networks"]["devices"] == 99
        assert resolved["networks"]["list"] == [{"devices": 3}]
        assert resolved["traffic"]["users"] == 123
        defaults = load_defaults()
        assert resolved["traffic"]["mean_interval_s"] == defaults["traffic"]["mean_interval_s"]
        assert resolved["region"] == defaults["region"]

    def test_deep_merge_does_not_mutate_inputs(self):
        base = {"a": {"b": 1}, "l": [1]}
        over = {"a": {"c": 2}, "l": [2]}
        merged = deep_merge(base, over)
        assert merged == {"a": {"b": 1, "c": 2}, "l": [2]}
        assert base == {"a": {"b": 1}, "l": [1]}
        merged["l"].append(3)
        assert over["l"] == [2]


class TestPaths:
    def test_get_and_set_dotted_paths(self):
        doc = {"a": {"b": [{"c": 1}]}}
        assert get_path(doc, "a.b.0.c") == 1
        set_path(doc, "a.b.0.c", 5)
        assert doc["a"]["b"][0]["c"] == 5

    def test_missing_path_is_an_error(self):
        with pytest.raises(SpecError, match="no such config path"):
            get_path({"a": {}}, "a.zzz")


class TestSweep:
    def test_grid_expansion_count_and_values(self):
        resolved = resolve_spec(
            {
                "run": {"seed_stride": 1},
                "sweep": {
                    "networks.devices": [4, 8, 16],
                    "networks.gateways": [1, 3],
                },
            }
        )
        runs = expand_sweep(resolved)
        assert len(runs) == 6
        combos = {
            (r.config["networks"]["devices"], r.config["networks"]["gateways"])
            for r in runs
        }
        assert combos == {(4, 1), (4, 3), (8, 1), (8, 3), (16, 1), (16, 3)}
        assert [r.seed for r in runs] == list(range(6))
        assert [r.index for r in runs] == list(range(6))

    def test_zip_axes_advance_in_lockstep(self):
        resolved = resolve_spec(
            {
                "networks": {"count": 2, "list": [{"devices": 1}, {"devices": 1}]},
                "sweep": {
                    "zip": {
                        "networks.list.0.devices": [10, 16, 6],
                        "networks.list.1.devices": [10, 8, 18],
                    }
                },
            }
        )
        runs = expand_sweep(resolved)
        pairs = [
            (
                r.config["networks"]["list"][0]["devices"],
                r.config["networks"]["list"][1]["devices"],
            )
            for r in runs
        ]
        assert pairs == [(10, 10), (16, 8), (6, 18)]

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(SpecError, match="zip"):
            expand_sweep(
                resolve_spec(
                    {
                        "sweep": {
                            "zip": {
                                "networks.devices": [1, 2],
                                "networks.gateways": [1],
                            }
                        }
                    }
                )
            )

    def test_sweep_path_must_exist(self):
        with pytest.raises(SpecError, match="no such config path"):
            expand_sweep(resolve_spec({"sweep": {"networks.nope": [1]}}))

    def test_no_sweep_is_one_run(self):
        runs = expand_sweep(resolve_spec({}))
        assert len(runs) == 1
        assert runs[0].overrides == {}


class TestRunChecks:
    """Each expanded run is checked before any run executes."""

    TYPOS = pytest.mark.parametrize(
        "path, good, typo",
        [
            ("region.band", "US915", "US951"),
            ("assignment.kind", "standard", "standrad"),
            ("assignment.split_channels", "contiguous", "contiguos"),
            ("link.kind", "urban", "urbn"),
        ],
    )

    def _rejects(self, text, path, typo):
        spec = parse_spec(text, "typo.yaml")
        with pytest.raises(SpecError, match=rf"^{re.escape(path)}: unknown .* {typo!r}"):
            spec.runs()

    @TYPOS
    def test_direct_enum_typo_names_the_path(self, path, good, typo):
        section, key = path.split(".")
        self._rejects(f"{section}: {{{key}: {typo}}}\n", path, typo)

    @TYPOS
    def test_swept_enum_typo_names_the_path(self, path, good, typo):
        self._rejects(f"sweep:\n  {path}: [{good}, {typo}]\n", path, typo)

    @pytest.mark.parametrize(
        "path, networks",
        [
            ("networks.gateways", {"gateways": 0}),
            ("networks.list.0.gateways", {"list": [{"gateways": 0}]}),
            ("networks.list.1.devices", {"count": 2, "list": [{}, {"devices": -1}]}),
            ("networks.devices", {"devices": -1}),
            ("networks.count", {"count": 0}),
        ],
        ids=["gateways", "list-gateways", "list-devices", "devices", "count"],
    )
    def test_impossible_network_shape_names_the_path(self, path, networks):
        with pytest.raises(SpecError, match=rf"^{re.escape(path)}: expected an integer"):
            expand_sweep(resolve_spec({"networks": networks}))

    def test_swept_gateway_count_is_checked(self):
        doc = {"sweep": {"networks.gateways": [1, 0]}}
        with pytest.raises(SpecError, match=r"^networks\.gateways: "):
            expand_sweep(resolve_spec(doc))


class TestHashing:
    def test_content_hash_stable_across_key_order(self):
        a = {"x": 1, "y": {"p": [1, 2], "q": None}}
        b = {"y": {"q": None, "p": [1, 2]}, "x": 1}
        assert content_hash(a) == content_hash(b)
        assert canonical_json(a) == canonical_json(b)

    def test_content_hash_differs_on_value_change(self):
        assert content_hash({"x": 1}) != content_hash({"x": 2})

    def test_run_ids_stable_across_spec_key_order(self):
        text_a = "seed: 3\nnetworks: {devices: 8, gateways: 2}\n"
        text_b = "networks: {gateways: 2, devices: 8}\nseed: 3\n"
        runs_a = parse_spec(text_a, "a.yaml").runs()
        runs_b = parse_spec(text_b, "b.yaml").runs()
        assert [r.run_id for r in runs_a] == [r.run_id for r in runs_b]


class TestAreaPresets:
    def test_presets_match_experiment_constants(self):
        from repro.experiments.common import COMPACT_AREA_M, TESTBED_AREA_M

        assert area_preset("compact") == COMPACT_AREA_M
        assert area_preset("testbed") == TESTBED_AREA_M

    def test_paper_preset_exists(self):
        assert area_preset("paper") == (2100.0, 1600.0)

    def test_unknown_preset(self):
        with pytest.raises(SpecError, match="unknown preset"):
            area_preset("ocean")


class TestSpecNames:
    def test_name_falls_back_to_filename(self, tmp_path):
        from repro.scenarios.spec import load_spec

        path = tmp_path / "myscenario.yaml"
        path.write_text("seed: 1\n")
        assert load_spec(str(path)).name == "myscenario"

    def test_meta_name_wins(self):
        spec = parse_spec("meta: {name: fancy}\n", "plain.yaml")
        assert spec.name == "fancy"
