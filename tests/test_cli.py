"""End-to-end tests for the command line interface."""

import copy
import csv
import functools
import hashlib
import json
import operator
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from driftnet import cli
from driftnet.cli import ConfigError, config_from_dict, load_config, main
from driftnet.metrics import EMPTY_CLASS_POLICIES, SCORING_TASKS, STAT_KEYS
from driftnet.schemes import SchemeKind
from driftnet.sim import GridCell, cell_label, check_summary, run_grid


METRIC_NAMES = SCORING_TASKS["detection"]._fields

# A file-backed site whose files are never read: a site's keys are checked first.
FILE_SITE = {"site_id": "F", "reference_csv": "ref.csv", "test_csv": "test.csv"}

SMALL_CONFIG = {
    "replicates": 2,
    "permutations": 100,
    "grid": {
        "drift_strength": [0.3],
        "drift_duration": [0.3],
        "window_fraction": [0.1],
    },
}
# SMALL_CONFIG's one grid cell, as summary.json labels it.
SMALL_LABEL = "strength0.3_duration0.3_window0.1"


# `driftnet [argv[4:]] run --threads 2` under the start method named by
# argv[1]. The `__main__` guard keeps spawn and forkserver workers, which
# import this script, from starting runs of their own.
_START_METHOD_SCRIPT = """
import multiprocessing
import sys

from driftnet.cli import main

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    args = ["run", "--config", sys.argv[2], "--out", sys.argv[3], "--threads", "2"]
    sys.exit(main(sys.argv[4:] + args))
"""


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_digests(tmp_path, payload, names=("summary.json", "verdicts.csv", "severity.csv")):
    """sha256 of each of `names` in the directory that `driftnet run --seed 1`
    writes for `payload`, followed by `driftnet report` when a name is a
    report file."""
    out = tmp_path / "run"
    argv = ["run", "--config", write_config(tmp_path, payload), "--out", str(out)]
    assert main(argv + ["--seed", "1"]) == 0
    if set(names) & set(cli.REPORT_FILES):
        assert main(["report", "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def fail_replicate(config, cell, replicate_index):
    raise ValueError(f"replicate {replicate_index} broke")


def leaf_paths(value, path=()):
    """The key path of every value in `value` that is not an object."""
    if not isinstance(value, dict):
        yield path
        return
    for key, entry in value.items():
        yield from leaf_paths(entry, (*path, key))


class TestConfigValidation:
    def test_defaults_without_file(self):
        config = load_config(None)
        assert config.replicates == 500
        assert config.master_seed == 20260816

    def test_field_path_in_error(self):
        with pytest.raises(ConfigError, match=r"grid\.drift_strength\[0\]"):
            config_from_dict({"grid": {"drift_strength": [2.0]}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match=r"adaptive\.rate"):
            config_from_dict({"adaptive": {"rate": 0.5}})

    def test_type_errors_are_named(self):
        with pytest.raises(ConfigError, match="replicates"):
            config_from_dict({"replicates": "many"})
        with pytest.raises(ConfigError, match="schemes\\[1\\]"):
            config_from_dict({"schemes": ["SiteRef", "MagicRef"]})

    def test_weight_below_its_floor_rejected_at_load(self):
        with pytest.raises(ConfigError, match=r"^adaptive\.min_global_weight: "):
            config_from_dict({"adaptive": {"global_weight": 0.2, "min_global_weight": 0.5}})
        # The floor's default (0.1) also binds a lower starting weight.
        with pytest.raises(ConfigError, match=r"^adaptive\.min_global_weight: "):
            config_from_dict({"adaptive": {"global_weight": 0.05}})
        config = config_from_dict({"adaptive": {"global_weight": 0.3, "min_global_weight": 0.3}})
        assert config.adaptive.min_global_weight == config.adaptive.global_weight == 0.3

    def test_update_condition_choices(self):
        config = config_from_dict({"adaptive": {"update_condition": "always"}})
        assert config.adaptive.update_condition == "always"
        with pytest.raises(ConfigError, match=r"^adaptive\.update_condition: "):
            config_from_dict({"adaptive": {"update_condition": "always-when-clean"}})

    def test_site_entries_checked(self):
        with pytest.raises(ConfigError, match=r"sites\[0\]\.site_id"):
            config_from_dict({"sites": [{"reference_size": 10}]})

    def test_permutation_floor(self):
        with pytest.raises(ConfigError, match="permutations"):
            config_from_dict({"permutations": 10})

    @pytest.mark.parametrize(
        "raw, path",
        [
            ({"grid": {"drift_duration": [1.0]}}, r"^grid\.drift_duration\[0\]: "),
            ({"grid": {"window_fraction": [0.0]}}, r"^grid\.window_fraction\[0\]: "),
            ({"threshold": 1.0}, r"^threshold: "),
            ({"batch_label_rho": 1.0}, r"^batch_label_rho: "),
            ({"augmentation": float("inf")}, r"^augmentation: "),
            ({"sites": [{"site_id": "A", "colour": "red"}]}, r"^sites\[0\]\.colour: "),
            ({"sites": [{"site_id": "A", "reference_size": 3, "test_size": 9}]},
             r"^sites\[0\]\.reference_size: "),
            ({"adaptive": 5}, r"^adaptive: expected an object"),
            ({"adaptive": {"center_window": 0}}, r"^adaptive\.center_window: "),
            ({"webhook_url": "http://localhost/alerts"}, r"^webhook_url: unknown"),
            ({"grid": 5}, r"^grid: expected an object"),
            ({"grid": {"bogus": 1}}, r"^grid\.bogus: unknown"),
            *(
                ({"sites": [dict(FILE_SITE, **{key: value})]}, rf"^sites\[0\]\.{key}: not used by")
                for key, value in
                (("reference_size", 5000), ("test_size", 50), ("alpha", 50.0), ("beta", 5.0))
            ),
            ({"grid": {"drift_strength": [0.3, 0.3]}},
             r"^grid\.drift_strength\[1\]: duplicate value 0\.3$"),
            ({"schemes": ["SiteRef", "SiteRef"]}, r"^schemes\[1\]: duplicate scheme 'SiteRef'$"),
            ({"resample": "bootstrap"}, r"^resample: "),
            ([], r"^config: expected an object, got \[\]$"),
            ({"model_id": 5}, r"^model_id: expected a string, got 5$"),
            ({"schemes": []}, r"^schemes: expected a nonempty list, got \[\]$"),
            ({"sites": [1]}, r"^sites\[0\]: expected an object, got 1$"),
            ({"sites": [{"site_id": "", "reference_size": 9, "test_size": 9}]},
             r"^sites\[0\]\.site_id: must be a nonempty string$"),
        ],
    )
    def test_config_errors_start_with_the_field_path(self, raw, path):
        with pytest.raises(ConfigError, match=path):
            config_from_dict(raw)

    def test_partial_grid_keeps_the_other_axes(self):
        config = config_from_dict({"grid": {"window_fraction": [0.1]}})
        assert config.grid.window_fraction == (0.1,)
        assert config.grid.drift_strength == (0.2, 0.3, 0.5)
        assert config.grid.drift_duration == (0.2, 0.3, 0.5)

    def test_round_trip_through_to_dict(self):
        config = config_from_dict(SMALL_CONFIG)
        again = config_from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()

    def test_relative_csv_paths_resolve_against_config_dir(self, tmp_path):
        csv_dir = tmp_path / "data"
        csv_dir.mkdir()
        for name in ("ref.csv", "test.csv"):
            (csv_dir / name).write_text(
                "index,probability\n0,0.2\n1,0.4\n2,0.6\n3,0.8\n"
            )
        payload = dict(SMALL_CONFIG)
        payload["sites"] = [
            {"site_id": "A", "reference_csv": "data/ref.csv", "test_csv": "data/test.csv"},
            {"site_id": "B", "reference_size": 20, "test_size": 30},
        ]
        config = load_config(write_config(tmp_path, payload))
        assert config.sites[0].reference_csv == str(csv_dir / "ref.csv")

    def test_synthetic_site_keeps_its_beta_defaults(self):
        config = config_from_dict({"sites": [{"site_id": "A", "reference_size": 9, "test_size": 9}]})
        assert config.to_dict()["sites"] == [
            {"site_id": "A", "reference_size": 9, "test_size": 9, "alpha": 2.0, "beta": 5.0}
        ]

    def test_missing_site_file_is_named_at_load(self, tmp_path):
        (tmp_path / "test.csv").write_text("index,probability\n0,0.2\n1,0.4\n2,0.6\n3,0.8\n")
        payload = dict(SMALL_CONFIG)
        payload["sites"] = [
            {"site_id": "A", "reference_size": 20, "test_size": 30},
            {"site_id": "B", "reference_csv": "nowhere.csv", "test_csv": "test.csv"},
        ]
        with pytest.raises(ConfigError, match=r"^sites\[1\]\.reference_csv: .*No such file"):
            load_config(write_config(tmp_path, payload))

    def test_cli_reports_config_errors(self, tmp_path, capsys):
        path = write_config(tmp_path, {"threshold": 2.0})
        code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "threshold" in capsys.readouterr().err

    def test_config_that_is_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: config: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        ("content", "error"),
        [
            pytest.param(b'{"model_id": "\xff"}', "cannot read {}: ", id="not-utf8"),
            pytest.param(None, "file not found: {}\n", id="missing"),
            pytest.param(b'{"model_id": ', "invalid JSON in {}: ", id="not-json"),
        ],
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content, error):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: config: " + error.format(path))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "datagen"])
    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("keep")
        config_path = write_config(tmp_path, SMALL_CONFIG)
        assert main([command, "--config", config_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --out: ")
        assert out.read_text() == "keep"


class TestAtomicWrites:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            cli._atomic_write_text(tmp_path / "out.txt", None)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.mkdir()
        (target / "keep").write_text("x")
        with pytest.raises(OSError):
            cli._atomic_write_text(target, "text")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_csv_block_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with cli._atomic_csv(tmp_path / "rows.csv", ["a"]) as writer:
                writer.writerow([1])
                raise RuntimeError("sink failed")
        assert list(tmp_path.iterdir()) == []


class TestDatagen:
    def test_writes_deterministic_series(self, tmp_path, capsys):
        out1 = tmp_path / "d1"
        out2 = tmp_path / "d2"
        assert main(["datagen", "--out", str(out1)]) == 0
        assert main(["datagen", "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == [
            "ref_DS-0.csv",
            "ref_DS-1.csv",
            "ref_DS-2.csv",
            "ref_DS-3.csv",
            "test_DS-0.csv",
            "test_DS-1.csv",
            "test_DS-2.csv",
            "test_DS-3.csv",
        ]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        rows = read_rows(out1 / "ref_DS-2.csv")
        assert len(rows) == 11
        assert all(0.0 <= float(r["probability"]) <= 1.0 for r in rows)

    def test_seed_override_changes_data(self, tmp_path):
        out1 = tmp_path / "d1"
        out2 = tmp_path / "d2"
        assert main(["datagen", "--out", str(out1)]) == 0
        assert main(["datagen", "--out", str(out2), "--seed", "99"]) == 0
        assert (out1 / "ref_DS-0.csv").read_bytes() != (out2 / "ref_DS-0.csv").read_bytes()

    def test_all_file_backed_sites_exit_2_without_an_out_dir(self, tmp_path, capsys):
        assert main(["datagen", "--out", str(tmp_path / "d")]) == 0
        sites = [{"site_id": "DS-0", "reference_csv": "d/ref_DS-0.csv", "test_csv": "d/test_DS-0.csv"}]
        config_path = write_config(tmp_path, dict(SMALL_CONFIG, sites=sites))
        out = tmp_path / "again"
        assert main(["datagen", "--config", config_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: sites: ")
        assert not out.exists()


class TestRun:
    def test_outputs_complete_and_consistent(self, tmp_path, capsys):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        for name in ("verdicts.csv", "severity.csv", "summary.json", "manifest.json"):
            assert (out / name).exists()

        verdicts = read_rows(out / "verdicts.csv")
        assert {r["run_id"] for r in verdicts} == {"r0000", "r0001"}
        schemes = {r["scheme"] for r in verdicts}
        assert schemes == {"Centralized", "GlobalRef", "SiteRef", "ProdRef", "AdaptiveRef"}
        for row in verdicts:
            if row["p_value"]:
                p = float(row["p_value"])
                assert 0.0 < p <= 1.0
                assert row["drift"] == ("1" if p < 0.05 else "0")
            else:
                assert row["drift"] == "0"

        severity = read_rows(out / "severity.csv")
        assert all(r["scheme"] != "Centralized" for r in severity)
        assert all(r["category"] in {"TP", "FP", "TN", "FN"} for r in severity)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema"] == "driftnet-summary/2"
        assert summary["replicates"] == 2

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["config"]["permutations"] == 100
        assert manifest["outputs"]["summary"] == "summary.json"

    def test_outputs_pinned_at_a_fixed_seed(self, tmp_path, capsys):
        # A refactor must leave every output byte where it was; the digests
        # also assume numpy's Beta and uniform draws stay stable. Recorded
        # with numpy 2.4.6 and Python 3.11.7: NEP 19 does not promise
        # identical Generator streams across numpy feature releases.
        names = ("summary.json", "verdicts.csv", "severity.csv", *cli.REPORT_FILES)
        assert run_digests(tmp_path, SMALL_CONFIG, names) == {
            "summary.json": "c5579f9d358f621511ba35ca6e64496faf5f9d4416fb3d6db7be5f4503ebaa4b",
            "verdicts.csv": "0d82ae92481b083d21c6e5f4e84d9c355f53069df50dc23e05414563824e992c",
            "severity.csv": "2ff71779946a18349e3a1fbba912f428d0342d015cfd67a48c1337b717399258",
            "report_agents.csv": "279b8997672fdee4b8edd34670f04bafffef91d6f0d1b2702a1faab2b7290293",
            "report_breakdown.csv": "41082b058bf726fcad96f42f7a6e0389136c676c8f7998de204686841b916a81",
            "report_timeline.csv": "42db1bffdae44cb50608ab6dc8e10594596e6b6cfffa5a7652f175a5181fc3ff",
            "report_tables.txt": "379c19c01b8530b8e586163441439835300c643947dabf03a5a3af555d8713f0",
        }

    def test_default_grid_summary_pinned_at_a_fixed_seed(self, tmp_path, capsys):
        # All 27 default cells, window 0.05 included, at 2 replicates: each
        # cell, overall and agent entry of summary.json keeps its bytes.
        # Recorded with numpy 2.4.6 and Python 3.11.7, as above.
        digests = run_digests(tmp_path, {"replicates": 2}, names=("summary.json",))
        assert digests == {
            "summary.json": "75ae70ce1c09dc738ae357e6327057eeeb6230d35796bfe8ea1951765c31c5a6"
        }

    def test_outputs_pinned_under_the_other_scoring_rules(self, tmp_path, capsys):
        # The threshold severity rule, the "one" empty-class policy and a
        # drift-free cell, none of which the SMALL_CONFIG digests reach.
        # Recorded with numpy 2.4.6 and Python 3.11.7: NEP 19 does not
        # promise identical Generator streams across numpy feature releases.
        payload = dict(
            SMALL_CONFIG,
            severity_tp_rule="threshold",
            empty_class_policy="one",
            grid=dict(SMALL_CONFIG["grid"], drift_strength=[0.0, 0.3]),
        )
        assert run_digests(tmp_path, payload) == {
            "summary.json": "0bc2be2c9a9ba1185f17f8ce521461a43fe4bbecbbb1cdec04423aa30c67d2ed",
            "verdicts.csv": "1365f53fe870ccb7367884c12749066bb569a2fcaff9b3e705a481e270d1226e",
            "severity.csv": "76b2e0db6226662ec2c27b6ec08dba47dbc8b7216e504ba2efbf8b5a8b92ecc5",
        }

    def test_centralized_only_run_has_no_severity(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", str(out)]
        assert main(argv + ["--schemes", "Centralized"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        (cell,) = summary["cells"].values()
        assert cell["schemes"]["Centralized"]["severity"] is None
        assert summary["overall"]["Centralized"]["severity"] is None
        assert cell["schemes"]["Centralized"]["detection"] is not None
        assert (out / "severity.csv").read_text() == ",".join(cli.SEVERITY_COLUMNS) + "\n"
        assert main(["report", "--out", str(out)]) == 0
        assert "severity" not in (out / "report_tables.txt").read_text()
        tasks = {row["task"] for row in read_rows(out / "report_breakdown.csv")}
        assert tasks == {"detection"}

    @pytest.mark.parametrize(
        "schemes, path",
        [("", "schemes[0]"), (",", "schemes[0]"), ("SiteRef,", "schemes[1]"), (" ", "schemes[0]")],
    )
    def test_empty_scheme_name_exits_2_before_any_output(self, tmp_path, capsys, schemes, path):
        out = tmp_path / "run"
        argv = ["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", str(out)]
        assert main(argv + ["--schemes", schemes]) == 2
        names = [kind.value for kind in SchemeKind]
        assert capsys.readouterr().err == f"error: {path}: expected one of {names}, got ''\n"
        assert not out.exists()

    def test_summary_file_is_run_grids_dict(self, tmp_path, capsys):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        summary = run_grid(load_config(config_path))
        expected = json.dumps(summary, sort_keys=True, indent=2) + "\n"
        assert (out / "summary.json").read_bytes() == expected.encode()

    def test_repeated_scheme_exits_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", str(out)]
        assert main(argv + ["--schemes", "SiteRef,SiteRef"]) == 2
        assert capsys.readouterr().err == "error: schemes[1]: duplicate scheme 'SiteRef'\n"
        assert not out.exists()

    def test_failed_replicates_exit_nonzero_after_writing_outputs(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("driftnet.sim.run_replicate", fail_replicate)
        out = tmp_path / "run"
        assert main(["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", str(out)]) == 1
        assert "2 failures" in capsys.readouterr().out
        assert len(json.loads((out / "summary.json").read_text())["failures"]) == 2
        assert json.loads((out / "manifest.json").read_text())["failures"] == 2

    def test_drift_segment_that_cannot_fit_is_rejected_at_load(self, tmp_path, capsys):
        # 99% of DS-3's 20 augmented test slots rounds up to all 20.
        payload = dict(SMALL_CONFIG, grid=dict(SMALL_CONFIG["grid"], drift_duration=[0.99]))
        out = tmp_path / "run"
        assert main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        assert "error: grid.drift_duration[0]: " in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("test_size", [5, 4])
    def test_drift_fit_boundary(self, tmp_path, capsys, test_size):
        # A 0.8 drift segment takes ceil(0.8 n) slots: 4 of 5 fit, 4 of 4 do not.
        site = {"site_id": "S", "reference_size": 4, "test_size": test_size}
        grid = {"drift_strength": [0.3], "drift_duration": [0.8], "window_fraction": [0.5]}
        payload = dict(SMALL_CONFIG, augmentation=0.0, grid=grid, sites=[site])
        out = tmp_path / "run"
        status = main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)])
        if test_size == 5:
            assert status == 0
            assert json.loads((out / "summary.json").read_text())["failures"] == []
        else:
            assert status == 2
            assert capsys.readouterr().err.startswith("error: grid.drift_duration[0]: ")
            assert not out.exists()

    def test_bootstrap_config_exits_2_before_any_output(self, tmp_path, capsys):
        # Every scheme tests under an exact null; the bootstrap one is gone.
        payload = dict(SMALL_CONFIG, resample="bootstrap")
        out = tmp_path / "run"
        assert main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: resample: expected one of ['permutation'], got 'bootstrap'\n"
        assert not (out / "summary.json").exists()

    def test_bad_site_file_exits_2_before_any_output(self, tmp_path, capsys):
        assert main(["datagen", "--out", str(tmp_path / "d")]) == 0
        sites = [
            {"site_id": s, "reference_csv": f"d/ref_{s}.csv", "test_csv": f"d/test_{s}.csv"}
            for s in ("DS-0", "DS-1", "DS-2", "DS-3")
        ]
        config_path = write_config(tmp_path, dict(SMALL_CONFIG, sites=sites))
        series = tmp_path / "d" / "test_DS-2.csv"
        lines = series.read_text().splitlines()
        lines[3] = "2,1.5"
        series.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sites[2].test_csv: invalid-probability: ")
        assert not out.exists()

    def test_verdict_rows_are_the_sunk_verdicts(self, tmp_path, monkeypatch):
        # Each row is run_id, cell, scheme and agent, then the verdict's own
        # fields after agent_id in order (drift as 0/1), then truth.
        sunk = []

        def recording_grid(config, threads, replicate_sink):
            def sink(result):
                sunk.append(result)
                replicate_sink(result)

            return run_grid(config, threads=threads, replicate_sink=sink)

        monkeypatch.setattr(cli, "run_grid", recording_grid)
        out = tmp_path / "run"
        argv = ["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", str(out)]
        assert main(argv + ["--threads", "1"]) == 0
        expected = [
            ["run_id", "cell", "scheme", "agent", "batch_index", "n_valid", "statistic",
             "p_value", "drift", "truth"]
        ]
        for result in sunk:
            head = [f"r{result.replicate_index:04d}", cell_label(result.cell)]
            for scheme, record in result.schemes.items():
                for agent in record.agents:
                    for verdict in agent.verdicts:
                        fields = list(verdict._asdict().values())[1:]
                        fields = [int(v) if isinstance(v, bool) else v for v in fields]
                        truth = agent.truth[verdict.batch_index]
                        row = [*head, scheme, agent.center, *fields, truth]
                        expected.append(["" if v is None else str(v) for v in row])
        assert len(expected) > 1
        with open(out / "verdicts.csv", newline="", encoding="utf-8") as handle:
            assert list(csv.reader(handle)) == expected

    def test_rerun_clears_the_previous_report(self, tmp_path, capsys):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        assert all((out / name).exists() for name in cli.REPORT_FILES)
        assert main(["run", "--config", config_path, "--out", str(out), "--seed", "9"]) == 0
        assert not list(out.glob("report_*"))

    def test_config_error_keeps_the_previous_report(self, tmp_path, capsys):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        reports = {name: (out / name).read_bytes() for name in cli.REPORT_FILES}
        bad = write_config(tmp_path, dict(SMALL_CONFIG, permutations=10), name="bad.json")
        assert main(["run", "--config", bad, "--out", str(out)]) == 2
        assert {name: (out / name).read_bytes() for name in cli.REPORT_FILES} == reports

    def test_thread_count_does_not_change_outputs(self, tmp_path):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["run", "--config", config_path, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["run", "--config", config_path, "--out", str(out2), "--threads", "4"]) == 0
        for name in ("summary.json", "verdicts.csv", "severity.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_start_method_does_not_change_outputs(self, tmp_path, method):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["run", "--config", config_path, "--out", str(serial), "--threads", "1"]) == 0
        script = tmp_path / "run_parallel.py"
        script.write_text(_START_METHOD_SCRIPT)
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, str(script), method, config_path, str(parallel)],
            env=dict(os.environ, PYTHONPATH=path),
            check=True,
            capture_output=True,
            timeout=120,
        )
        for name in ("summary.json", "verdicts.csv", "severity.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_workers_log_like_one_process(self, tmp_path, method):
        # Workers only compute; this process logs each completed replicate's
        # alerts in replicate order, with its own level and format.
        config_path = write_config(tmp_path, SMALL_CONFIG)
        script = tmp_path / "run_parallel.py"
        script.write_text(_START_METHOD_SCRIPT)
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def drift_lines(*argv):
            stderr = subprocess.run(
                [sys.executable, *argv],
                env=dict(os.environ, PYTHONPATH=path),
                check=True,
                capture_output=True,
                text=True,
                timeout=120,
            ).stderr
            return [line for line in stderr.splitlines() if "drift detected" in line]

        serial = drift_lines(
            "-m", "driftnet.cli", "--verbose", "run", "--config", config_path,
            "--out", str(tmp_path / "serial"),
        )
        parallel = drift_lines(script, method, config_path, tmp_path / "parallel", "--verbose")
        assert serial[0].startswith("INFO driftnet.agent: drift detected agent=")
        assert parallel == serial

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_rejected(self, tmp_path, capsys, threads):
        out = tmp_path / "run"
        argv = ["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", str(out)]
        assert main(argv + ["--threads", threads]) == 2
        assert f"error: --threads: must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_cli_overrides(self, tmp_path):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert (
            main(
                [
                    "run",
                    "--config",
                    config_path,
                    "--out",
                    str(out),
                    "--replicates",
                    "1",
                    "--schemes",
                    "SiteRef,Centralized",
                ]
            )
            == 0
        )
        verdicts = read_rows(out / "verdicts.csv")
        assert {r["run_id"] for r in verdicts} == {"r0000"}
        assert {r["scheme"] for r in verdicts} == {"SiteRef", "Centralized"}


class TestReport:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        config_path = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "run"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        return out

    def test_missing_inputs_error(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path / "nowhere")])
        assert code == 2
        assert "verdicts.csv" in capsys.readouterr().err

    def test_missing_manifest_is_named(self, run_dir, capsys):
        # The report reads no scoring policy from the manifest; it only
        # requires a complete run.
        (run_dir / "manifest.json").unlink()
        assert main(["report", "--out", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert f"error: missing run outputs in {run_dir}: manifest.json\n" in err
        assert not (run_dir / "report_agents.csv").exists()

    @pytest.mark.parametrize("policy", EMPTY_CLASS_POLICIES)
    def test_breakdown_equals_summary(self, tmp_path, policy):
        config_path = write_config(tmp_path, dict(SMALL_CONFIG, empty_class_policy=policy))
        out = tmp_path / "run"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        cells = json.loads((out / "summary.json").read_text())["cells"]
        expected = {
            (label, scheme, task, metric): (
                "" if stat["mean"] is None else f"{stat['mean']:.6f}",
                "" if stat["std"] is None else f"{stat['std']:.6f}",
                str(stat["n"]),
                str(stat["skipped"]),
            )
            for label, cell in cells.items()
            for scheme, tasks in cell["schemes"].items()
            for task, metrics in tasks.items()
            if metrics is not None
            for metric, stat in metrics.items()
        }
        rows = read_rows(out / "report_breakdown.csv")
        got = {
            (r["cell"], r["scheme"], r["task"], r["metric"]): (
                r["mean"], r["std"], r["n"], r["skipped"]
            )
            for r in rows
        }
        assert len(got) == len(rows)
        assert got == expected
        # DS-3 never tests at this window fraction: counted, not scored.
        (label,) = cells
        assert int(got[label, "SiteRef", "detection", "f1"][3]) >= SMALL_CONFIG["replicates"]

    @pytest.mark.parametrize("policy", EMPTY_CLASS_POLICIES)
    def test_agent_table_keeps_agents_that_never_test(self, tmp_path, policy):
        config_path = write_config(tmp_path, dict(SMALL_CONFIG, empty_class_policy=policy))
        out = tmp_path / "run"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        rows = read_rows(out / "report_agents.csv")
        agents = {(r["scheme"], r["agent"]) for r in rows}
        assert {("SiteRef", "DS-3"), ("Centralized", "ALL")} <= agents
        for row in rows:
            # One entry per replicate of the single cell, scored or skipped.
            assert int(row["n"]) + int(row["skipped"]) == SMALL_CONFIG["replicates"]
        ds3 = [r for r in rows if (r["scheme"], r["agent"]) == ("SiteRef", "DS-3")]
        assert [r["mean"] for r in ds3] == [""] * 4

    def test_agent_table_lists_agents_without_a_verdict_row(self, tmp_path):
        # At a window fraction of 1.0 each stream is one window, and ProdRef's
        # seeds its reference: ProdRef writes no verdict row, yet summary.json
        # pools each of its agent-replicates, unscored, and so does the table.
        payload = dict(
            SMALL_CONFIG,
            replicates=3,
            schemes=["ProdRef", "SiteRef"],
            grid=dict(SMALL_CONFIG["grid"], window_fraction=[1.0]),
        )
        out = tmp_path / "run"
        assert main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        assert {r["scheme"] for r in read_rows(out / "verdicts.csv")} == {"SiteRef"}
        assert main(["report", "--out", str(out)]) == 0
        prodref = [r for r in read_rows(out / "report_agents.csv") if r["scheme"] == "ProdRef"]
        sites = ["DS-0", "DS-1", "DS-2", "DS-3"]
        assert [(r["agent"], r["metric"]) for r in prodref] == [
            (site, metric) for site in sites for metric in METRIC_NAMES
        ]
        assert {(r["mean"], r["std"], r["n"], r["skipped"]) for r in prodref} == {("", "", "0", "3")}
        unscored = {"mean": None, "std": None, "n": 0, "skipped": 3}
        agents = json.loads((out / "summary.json").read_text())["agents"]["ProdRef"]
        assert agents == {site: dict.fromkeys(METRIC_NAMES, unscored) for site in sites}

    @pytest.mark.parametrize(
        ("content", "detail"),
        [
            # None: the run's own summary.json, its schema set back to 1.
            pytest.param(
                None,
                "schema driftnet-summary/1, expected driftnet-summary/2",
                id="driftnet-summary/1",
            ),
            # A summary.json that is not an object, so has no schema.
            pytest.param(b"[]\n", "schema None, expected driftnet-summary/2", id="None"),
            pytest.param(
                b"{bad",
                "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
                id="not-json",
            ),
            pytest.param(
                b"\xff{}",
                "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
                id="not-utf8",
            ),
            # The schema is current but a block the report reads is absent or not an object.
            pytest.param(b'{"schema": "driftnet-summary/2"}', "cells missing", id="no-cells"),
            pytest.param(
                b'{"schema": "driftnet-summary/2", "cells": {}, "agents": {}}',
                "overall missing",
                id="no-overall",
            ),
            pytest.param(
                b'{"schema": "driftnet-summary/2", "cells": {}, "overall": {}, "agents": []}',
                "agents is not an object",
                id="agents-not-object",
            ),
            pytest.param(
                b'{"schema": "driftnet-summary/2", "cells": null, "overall": {}, "agents": {}}',
                "cells is not an object",
                id="cells-null",
            ),
            # A block's entry lacks a key the report reads.
            pytest.param(
                b'{"schema": "driftnet-summary/2", "cells": {"c": {}}, "overall": {}, "agents": {}}',
                "cells.c.drift_strength missing",
                id="empty-cell-entry",
            ),
            pytest.param(
                json.dumps(
                    {
                        "schema": "driftnet-summary/2",
                        "cells": {},
                        "overall": {},
                        "agents": {
                            "SiteRef": {
                                "DS-0": {
                                    metric: {"mean": 0.5, "std": 0.0, "n": 1, "skipped": 0}
                                    for metric in METRIC_NAMES[:-1]
                                }
                            }
                        },
                    }
                ).encode(),
                "agents.SiteRef.DS-0.f1 missing",
                id="agent-entry-without-f1",
            ),
            # A key path: the run's own summary.json, that leaf written as a string.
            pytest.param(
                ("cells", SMALL_LABEL, "drift_strength"),
                f"cells.{SMALL_LABEL}.drift_strength is not float",
                id="cell-drift-strength-string",
            ),
            pytest.param(
                ("overall", "SiteRef", "detection", "f1", "mean"),
                "overall.SiteRef.detection.f1.mean is not float",
                id="overall-mean-string",
            ),
            pytest.param(
                ("agents", "SiteRef", "DS-0", "f1", "n"),
                "agents.SiteRef.DS-0.f1.n is not int",
                id="agent-n-string",
            ),
        ],
    )
    def test_older_summary_schema_exits_2_without_report_files(
        self, run_dir, capsys, content, detail
    ):
        path = run_dir / "summary.json"
        if content is None:
            content = path.read_bytes().replace(b"driftnet-summary/2", b"driftnet-summary/1")
        elif isinstance(content, tuple):
            summary = json.loads(path.read_text())
            *parents, key = content
            entry = functools.reduce(operator.getitem, parents, summary)
            entry[key] = str(entry[key])
            content = json.dumps(summary).encode()
        path.write_bytes(content)
        assert main(["report", "--out", str(run_dir)]) == 2
        assert capsys.readouterr().err == f"error: invalid-run-output: {path}: {detail}\n"
        assert not any((run_dir / name).exists() for name in cli.REPORT_FILES)

    @pytest.mark.parametrize("name", ["summary.json", "verdicts.csv", "severity.csv"])
    def test_unreadable_run_output_exits_2_without_report_files(self, run_dir, capsys, name):
        path = run_dir / name
        path.unlink()
        path.mkdir()
        assert main(["report", "--out", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid-run-output: {path}: ")
        assert err.count("\n") == 1
        assert not any((run_dir / report).exists() for report in cli.REPORT_FILES)

    @pytest.mark.parametrize(
        ("name", "fault"),
        [
            pytest.param(name, fault, id=name if fault == "header" else f"{name}-{fault}")
            for name in ("severity.csv", "verdicts.csv")
            for fault in ("header", "short-row", "long-row", "not-utf8")
        ],
    )
    def test_bad_csv_header_exits_2_without_report_files(self, run_dir, capsys, name, fault):
        path = run_dir / name
        header, row, rows = path.read_bytes().split(b"\n", 2)
        width = header.count(b",") + 1
        error = f"error: invalid-run-output: {path}"
        if fault == "header":
            header += b"X"
            error += " must start with run_id,cell,scheme,"
        elif fault == "short-row":
            row = b"a,b"
            error += f" line 2: expected {width} fields, got 2\n"
        elif fault == "long-row":
            row += b",x"
            error += f" line 2: expected {width} fields, got {width + 1}\n"
        else:
            row += b"\xff"
            error += ": 'utf-8' codec can't decode byte 0xff in position "
        path.write_bytes(b"\n".join([header, row, rows]))
        assert main(["report", "--out", str(run_dir)]) == 2
        assert capsys.readouterr().err.startswith(error)
        assert not any((run_dir / report).exists() for report in cli.REPORT_FILES)

    def test_report_files_written_and_stable(self, run_dir):
        assert main(["report", "--out", str(run_dir)]) == 0
        names = (
            "report_agents.csv",
            "report_breakdown.csv",
            "report_timeline.csv",
            "report_tables.txt",
        )
        first = {n: (run_dir / n).read_bytes() for n in names}
        assert main(["report", "--out", str(run_dir)]) == 0
        for n in names:
            assert (run_dir / n).read_bytes() == first[n]

    def test_null_std_renders_as_missing(self, run_dir):
        path = run_dir / "summary.json"
        summary = json.loads(path.read_text())
        f1 = summary["overall"]["SiteRef"]["detection"]["f1"]
        f1["std"] = None
        path.write_text(json.dumps(summary))
        assert main(["report", "--out", str(run_dir)]) == 0
        assert all((run_dir / name).exists() for name in cli.REPORT_FILES)
        tables = (run_dir / "report_tables.txt").read_text()
        assert f"{f1['mean']:>11.3f} ± n/a" in tables

    def test_timeline_joins_severity(self, run_dir):
        assert main(["report", "--out", str(run_dir)]) == 0
        timeline = read_rows(run_dir / "report_timeline.csv")
        verdicts = read_rows(run_dir / "verdicts.csv")
        assert len(timeline) == len(verdicts)
        severity = {
            (r["run_id"], r["scheme"], r["batch_index"]): r
            for r in read_rows(run_dir / "severity.csv")
        }
        for row in timeline:
            key = (row["run_id"], row["scheme"], row["batch_index"])
            if row["scheme"] == "Centralized":
                assert row["category"] == ""
            elif key in severity:
                assert row["c_true"] == severity[key]["c_true"]
                assert row["category"] == severity[key]["category"]

    def test_breakdown_covers_detection_and_severity(self, run_dir):
        assert main(["report", "--out", str(run_dir)]) == 0
        rows = read_rows(run_dir / "report_breakdown.csv")
        tasks = {r["task"] for r in rows}
        assert tasks == {"detection", "severity"}
        metrics = {r["metric"] for r in rows}
        assert metrics == {"precision", "sensitivity", "specificity", "f1"}

    def test_tables_mention_all_schemes(self, run_dir):
        assert main(["report", "--out", str(run_dir)]) == 0
        text = (run_dir / "report_tables.txt").read_text()
        for scheme in ("Centralized", "GlobalRef", "SiteRef", "ProdRef", "AdaptiveRef"):
            assert scheme in text


class TestCheckSummary:
    """check_summary, the report's summary.json check, against run_grid's
    own output: the writer and the checker must agree."""

    @pytest.fixture(scope="class")
    def summary(self):
        return run_grid(config_from_dict(SMALL_CONFIG))

    def test_accepts_run_grids_output(self, summary):
        check_summary(summary)

    def test_accepts_a_centralized_only_run(self):
        summary = run_grid(config_from_dict(dict(SMALL_CONFIG, schemes=["Centralized"])))
        cell = summary["cells"][SMALL_LABEL]
        entries = [summary["overall"]["Centralized"], cell["schemes"]["Centralized"]]
        assert [entry["severity"] for entry in entries] == [None, None]
        check_summary(summary)

    def test_accepts_a_run_whose_replicates_all_fail(self, monkeypatch):
        monkeypatch.setattr("driftnet.sim.run_replicate", fail_replicate)
        summary = run_grid(config_from_dict(SMALL_CONFIG))
        assert len(summary["failures"]) == SMALL_CONFIG["replicates"]
        assert summary["cells"][SMALL_LABEL]["completed"] == 0
        assert all(agents == {} for agents in summary["agents"].values())
        check_summary(summary)

    def test_each_leaf_deleted_or_retyped_is_named(self, summary):
        summary = copy.deepcopy(summary)
        blocks = {block: summary[block] for block in ("cells", "overall", "agents")}
        paths = list(leaf_paths(blocks))
        # Every kind of leaf: grid fields, counts, a null task entry and each statistic.
        assert {path[-1] for path in paths} == {
            *GridCell._fields, "completed", "severity", *STAT_KEYS
        }
        for *parents, key in paths:
            where = ".".join((*parents, key))
            entry = functools.reduce(operator.getitem, parents, summary)
            value = entry.pop(key)
            with pytest.raises(ValueError) as deleted:
                check_summary(summary)
            entry[key] = str(value)
            with pytest.raises(ValueError) as retyped:
                check_summary(summary)
            entry[key] = value
            assert str(deleted.value) == f"{where} missing"
            assert str(retyped.value).startswith(f"{where} is not ")
        check_summary(summary)

    def test_each_null_mean_or_std_renders(self, summary):
        # The checker lets each statistic be null on its own; the report's
        # formatters write a null as "" in the CSVs and "n/a" in the tables.
        summary = copy.deepcopy(summary)
        blocks = {block: summary[block] for block in ("cells", "overall", "agents")}
        paths = [path for path in leaf_paths(blocks) if path[-1] in ("mean", "std")]
        assert {path[0] for path in paths} == set(blocks)
        for *parents, metric, key in paths:
            metrics = functools.reduce(operator.getitem, parents, summary)
            stat = metrics[metric]
            value, stat[key] = stat[key], None
            check_summary(summary)
            # An agent's entry scores detection; the others sit under their task.
            task = parents[-1] if parents[-1] in SCORING_TASKS else "detection"
            rows = cli._stat_rows(metrics, task)
            rows = {row[0]: dict(zip(cli.STAT_COLUMNS, row)) for row in rows}
            assert rows[metric][key] == ""
            (line,) = cli._format_table("title", {"scheme": metrics}, task)[4:-1]
            mean, std = stat["mean"], stat["std"]
            if mean is None and std is None:
                assert f"{'n/a':>20}" in line
            elif std is None:
                assert f"{mean:>11.3f} ± n/a" in line
            else:
                assert f"{'n/a':>11} ± {std:.3f}" in line
            stat[key] = value


class TestFormatTable:
    def test_every_value_column_ends_under_its_header(self):
        # Numbers, a null std, a null mean and a metric never scored, each
        # across a whole row and all four in one mixed row.
        kinds = [(0.8, 0.06), (0.5, None), (None, 0.25), (None, None)]
        stats = [dict(zip(STAT_KEYS, (mean, std, 1, 0))) for mean, std in kinds]
        entries = {f"kind{i}": dict.fromkeys(METRIC_NAMES, stat) for i, stat in enumerate(stats)}
        entries["mixed"] = dict(zip(METRIC_NAMES, stats))
        _, _, header, _, *rows, _ = cli._format_table("title", entries, "detection")
        ends = [header.index(name.capitalize()) + len(name) for name in METRIC_NAMES]
        cells = {"0.800 ± 0.060", "0.500 ± n/a", "n/a ± 0.250", "n/a"}
        assert len(rows) == len(entries)
        for row in rows:
            assert len(row) == len(header)
            for start, end in zip([14, *ends], ends):
                assert row[end - 1] != " "
                assert row[start:end].strip() in cells
