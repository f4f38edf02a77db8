"""Campaign spec expansion, content keys, and JSON round-trips."""

import json
import math

import pytest

from repro.campaigns import DEFAULT_PARAMS, EVALUATE, CampaignCell, CampaignSpec
from repro.manet import AEDBParams


def tiny_spec(**overrides):
    defaults = dict(
        name="t",
        densities=(100, 300),
        mobility_models=("random-walk", "gauss-markov"),
        n_seeds=3,
        n_networks=2,
        n_nodes=10,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestExpansion:
    def test_cell_count_is_axis_product(self):
        spec = tiny_spec()
        assert spec.n_cells == 2 * 2 * 3
        assert len(spec.cells()) == spec.n_cells

    def test_expansion_is_deterministic(self):
        assert tiny_spec().cells() == tiny_spec().cells()

    def test_axes_reach_the_cells(self):
        cells = tiny_spec().cells()
        assert {c.density_per_km2 for c in cells} == {100, 300}
        assert {c.mobility_model for c in cells} == {
            "random-walk", "gauss-markov",
        }
        assert {c.seed_index for c in cells} == {0, 1, 2}

    def test_evaluate_cells_vary_networks_by_seed(self):
        cells = [c for c in tiny_spec().cells() if c.density_per_km2 == 100
                 and c.mobility_model == "random-walk"]
        seeds = {c.scenario_seed for c in cells}
        assert len(seeds) == len(cells)

    def test_tune_cells_share_networks_and_vary_algorithm_seed(self):
        spec = tiny_spec(algorithms=("RandomSearch",), scale="quick")
        cells = [c for c in spec.cells() if c.density_per_km2 == 100
                 and c.mobility_model == "random-walk"]
        assert {c.scenario_seed for c in cells} == {spec.master_seed}
        assert len({c.algorithm_seed for c in cells}) == len(cells)

    def test_default_params_are_the_aedb_defaults(self):
        cell = tiny_spec().cells()[0]
        assert cell.params == (DEFAULT_PARAMS,)
        assert cell.n_simulations == 1 * 2  # one config x two networks


class TestValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(densities=())

    def test_unknown_mobility_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(mobility_models=("teleport",))

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            tiny_spec(densities=(100, 100))

    def test_nonpositive_seeds_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(n_seeds=0)

    def test_evaluate_without_params_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(params=())

    @pytest.mark.parametrize("via", ["constructor", "from_dict"])
    @pytest.mark.parametrize("field, value", [
        ("params", [[0.1, 0.5]]),
        ("params", [[math.nan, 0.5, -90.0, 1.0, 10.0]]),
        ("params", [[0.0, 0.5, -90.0, math.inf, 10.0]]),
        ("densities", [-5]),
        ("densities", [0]),
        ("densities", [math.nan]),
        ("area_sides_m", [0]),
        ("area_sides_m", [math.inf]),
        ("n_nodes", 0),
    ])
    def test_malformed_values_rejected_naming_the_field(
        self, via, field, value
    ):
        with pytest.raises(ValueError, match=field):
            if via == "constructor":
                if isinstance(value, list):
                    value = tuple(
                        tuple(v) if isinstance(v, list) else v for v in value
                    )
                tiny_spec(**{field: value})
            else:
                CampaignSpec.from_dict({**tiny_spec().as_dict(), field: value})

    def test_single_node_and_out_of_box_params_still_run(self):
        spec = tiny_spec(n_nodes=1, params=((9.0, 0.5, -90.0, 1.0, 10.0),))
        (params,) = spec.cells()[0].param_sets()
        assert params == AEDBParams.from_array(spec.params[0]).clipped()


class TestContentKeys:
    def test_key_is_stable(self):
        a, b = tiny_spec().cells()[0], tiny_spec().cells()[0]
        assert a.key == b.key

    def test_key_changes_with_params(self):
        base = tiny_spec().cells()[0]
        changed = tiny_spec(params=((0.0, 2.0, -80.0, 1.0, 5.0),)).cells()[0]
        assert base.key != changed.key

    def test_key_changes_with_seed(self):
        spec = tiny_spec(master_seed=0xFEED)
        assert spec.cells()[0].key != tiny_spec().cells()[0].key

    def test_keys_unique_across_grid(self):
        keys = [c.key for c in tiny_spec().cells()]
        assert len(set(keys)) == len(keys)


class TestRoundTrip:
    def test_spec_json_roundtrip(self):
        spec = tiny_spec(algorithms=(EVALUATE, "NSGAII"))
        back = CampaignSpec.from_json(spec.to_json())
        assert back == spec
        assert [c.key for c in back.cells()] == [c.key for c in spec.cells()]

    def test_cell_dict_roundtrip(self):
        cell = tiny_spec().cells()[5]
        back = CampaignCell.from_dict(cell.as_dict())
        assert back == cell
        assert back.key == cell.key

    def test_spec_file_roundtrip(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert CampaignSpec.from_file(path) == spec


class TestBackendHint:
    def test_roundtrips_and_leaves_cells_alone(self):
        plain = tiny_spec()
        hinted = tiny_spec(backend="inline")
        assert CampaignSpec.from_json(hinted.to_json()) == hinted
        # An execution hint, not content: same cells, same keys.
        assert [c.key for c in hinted.cells()] == [
            c.key for c in plain.cells()
        ]
        # Backend-less specs keep the historical JSON (old spec.json
        # files still match byte-for-byte on resume).
        assert "backend" not in plain.to_json()

    @pytest.mark.parametrize(
        "bad",
        ["abacus", "remote", "remote:2", "remote:2@loopback",
         "shard", "shard:2", " SHARD:3 "],
    )
    def test_invalid_hint_rejected_at_declaration(self, bad):
        with pytest.raises(ValueError, match="unknown backend") as excinfo:
            tiny_spec(backend=bad)
        assert repr(bad) in str(excinfo.value)

    @pytest.mark.parametrize("bad", ["shard", "shard:2", " SHARD:3 "])
    def test_removed_hint_in_a_spec_file_fails_on_load(self, bad, tmp_path):
        """A ``spec.json`` written before the shard backend was removed
        fails to load, naming the string — no silent fallback."""
        data = json.loads(tiny_spec().to_json())
        data["backend"] = bad
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unknown backend") as excinfo:
            CampaignSpec.from_file(path)
        assert repr(bad) in str(excinfo.value)

    def test_hint_drives_executor_resolution(self):
        from repro.campaigns import CampaignExecutor

        spec = tiny_spec(backend="inline")
        assert CampaignExecutor(spec)._resolve_backend().name == "inline"
        assert CampaignExecutor(tiny_spec())._resolve_backend().name == "pool"
        # An explicit backend outranks the hint.
        assert (
            CampaignExecutor(spec, backend="pool")._resolve_backend().name
            == "pool"
        )
        # An explicit inline (--backend inline, the experiment runner)
        # outranks a pool hint.
        assert (
            CampaignExecutor(
                tiny_spec(backend="pool"), backend="inline"
            )._resolve_backend().name
            == "inline"
        )


class TestCellScenarios:
    def test_scenarios_honour_the_cell(self):
        spec = tiny_spec(area_sides_m=(400.0,))
        cell = next(c for c in spec.cells()
                    if c.mobility_model == "gauss-markov")
        scenarios = cell.scenarios()
        assert len(scenarios) == cell.n_networks
        assert all(s.mobility_model == "gauss-markov" for s in scenarios)
        assert all(s.sim.area_side_m == 400.0 for s in scenarios)
        assert all(s.n_nodes == 10 for s in scenarios)
