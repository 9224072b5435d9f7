"""The configuration schema: one field table for code, JSON and docs."""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from driftnet import agent, metrics, schemes, severity
from driftnet.agent import AgentConfig
from driftnet.config import ConfigError
from driftnet.schemes import SchemeKind
from driftnet.sim import FILE_KEYS, Grid, SimConfig, SiteSpec

README = Path(__file__).resolve().parents[1] / "README.md"


class TestCodeBuiltConfig:
    def test_weight_below_its_floor_rejected_at_construction(self):
        with pytest.raises(ConfigError, match=r"^adaptive\.min_global_weight: "):
            SimConfig(adaptive={"global_weight": 0.2, "min_global_weight": 0.5})

    def test_grid_bounds_apply_in_code(self):
        with pytest.raises(ConfigError, match=r"^grid\.drift_strength\[0\]: "):
            SimConfig(grid={"drift_strength": (5.0,)})
        with pytest.raises(ConfigError, match=r"^replicates: "):
            SimConfig(replicates=0)

    def test_drift_segment_must_fit_shortest_augmented_series(self):
        # DS-3: 18 test values + ceil(0.1 * 18) = 20 slots; ceil(0.96 * 20) = 20.
        with pytest.raises(ConfigError, match=r"^grid\.drift_duration\[1\]: "):
            SimConfig(grid={"drift_duration": (0.3, 0.96)})
        assert SimConfig(grid={"drift_duration": (0.95,)}).grid.drift_duration == (0.95,)
        # Without augmentation the series has 18 slots: ceil(0.95 * 18) = 18.
        with pytest.raises(ConfigError, match=r"^grid\.drift_duration\[0\]: "):
            SimConfig(grid={"drift_duration": (0.95,)}, augmentation=0.0)
        # No cell injects drift when every strength is 0.
        SimConfig(grid={"drift_strength": (0.0,), "drift_duration": (0.99,)})

    def test_site_entries_given_as_dicts_carry_their_path(self):
        sites = ({"site_id": "A", "reference_size": 10, "test_size": 10}, {"site_id": "B"})
        with pytest.raises(ConfigError, match=r"^sites\[1\]\.reference_size: "):
            SimConfig(sites=sites)
        with pytest.raises(ConfigError, match=r"^sites\[1\]\.site_id: duplicate"):
            SimConfig(sites=(sites[0], sites[0]))

    def test_repeated_grid_values_and_schemes_rejected(self):
        # A repeated value would run one cell twice under the same seeds, and a
        # repeated scheme would pool each of its agents twice.
        with pytest.raises(ConfigError, match=r"^grid\.drift_strength\[1\]: duplicate value 0\.3$"):
            SimConfig(grid={"drift_strength": (0.3, 0.3)})
        with pytest.raises(ConfigError, match=r"^grid\.window_fraction\[2\]: duplicate value 0\.1$"):
            SimConfig(grid={"window_fraction": (0.1, 0.15, 0.10)})
        with pytest.raises(ConfigError, match=r"^drift_duration\[1\]: duplicate value 0\.2$"):
            Grid(drift_duration=(0.2, 0.2))
        with pytest.raises(ConfigError, match=r"^schemes\[1\]: duplicate scheme 'SiteRef'$"):
            SimConfig(schemes=(SchemeKind.SITE_REF, "SiteRef"))

    def test_values_are_normalised(self):
        config = SimConfig(
            grid={"drift_strength": [0, 1]}, augmentation=1, schemes=["SiteRef"],
            sites=[{"site_id": "A", "reference_size": 10, "test_size": 10, "alpha": 3}],
        )
        assert config.grid.drift_strength == (0.0, 1.0)
        assert isinstance(config.augmentation, float)
        assert config.schemes == (SchemeKind.SITE_REF,)
        assert config.sites == (SiteSpec("A", reference_size=10, test_size=10, alpha=3.0),)

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError, match=r"^schemes\[0\]: "):
            dataclasses.replace(SimConfig(), schemes=["MagicRef"])


class TestSnapshot:
    def test_default_snapshot_pinned(self):
        # The manifest's run_id and config block for the default config.
        snapshot = SimConfig().to_dict()
        sorted_digest = hashlib.sha256(json.dumps(snapshot, sort_keys=True).encode()).hexdigest()
        ordered_digest = hashlib.sha256(json.dumps(snapshot).encode()).hexdigest()
        assert sorted_digest[:12] == "a49d799c4a4c"
        assert ordered_digest[:16] == "f9ad017ad0525d4f"

    def test_readme_config_block_is_the_default(self):
        block = re.search(r"```jsonc\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
        assert json.loads(re.sub(r"//[^\n]*", "", block)) == SimConfig().to_dict()

    def test_json_keys_are_field_names_at_every_level(self):
        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        snapshot = SimConfig().to_dict()
        assert list(snapshot) == names(SimConfig)
        assert list(snapshot["grid"]) == names(Grid)
        assert list(snapshot["adaptive"]) == names(schemes.AdaptiveSettings)
        # A synthetic site leaves out the keys only a file-backed site writes.
        for site in snapshot["sites"]:
            assert list(site) == [name for name in names(SiteSpec) if name not in FILE_KEYS]

    def test_file_backed_site_round_trip(self, tmp_path):
        ref, test = str(tmp_path / "r.csv"), str(tmp_path / "t.csv")
        for path in (ref, test):
            Path(path).write_text("index,probability\n0,0.2\n1,0.4\n2,0.6\n3,0.8\n")
        site = SiteSpec("F", reference_csv=ref, test_csv=test)
        assert site.to_dict() == {"site_id": "F", "reference_csv": ref, "test_csv": test}


def test_each_choice_tuple_has_one_owner():
    owners = {
        "update_condition": schemes.UPDATE_CONDITIONS,
        "severity_tp_rule": severity.SEVERITY_RULES,
        "empty_class_policy": metrics.EMPTY_CLASS_POLICIES,
    }
    expected = {
        SimConfig: {"resample", "severity_tp_rule", "empty_class_policy"},
        schemes.AdaptiveSettings: {"update_condition"},
        AgentConfig: set(),
    }
    for cls, names in expected.items():
        declared = {
            f.name: f.metadata["setting"].choices
            for f in dataclasses.fields(cls)
            if "setting" in f.metadata and f.metadata["setting"].choices
        }
        assert declared.keys() == names, cls.__name__
        # Only SimConfig declares `resample`; its one choice is checked below.
        assert all(declared[name] is owners[name] for name in names - {"resample"})


def test_shared_checks_have_one_owner():
    def spec(cls, name):
        return next(f for f in dataclasses.fields(cls) if f.name == name).metadata["setting"]

    assert spec(SimConfig, "threshold") is spec(AgentConfig, "threshold") is agent.THRESHOLD
    assert spec(SimConfig, "bins") is spec(schemes.ReferenceSpec, "bins") is schemes.BINS
    assert (
        spec(SimConfig, "permutations") is spec(AgentConfig, "permutations") is agent.PERMUTATIONS
    )
    # The bootstrap null is gone: only the exact permutation null is left.
    message = r"^resample: expected one of \['permutation'\], got 'bootstrap'$"
    with pytest.raises(ConfigError, match=message):
        SimConfig(resample="bootstrap")
