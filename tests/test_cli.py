"""End-to-end tests for the command line interface."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from driftnet import cli
from driftnet.cli import ConfigError, config_from_dict, load_config, main
from driftnet.metrics import EMPTY_CLASS_POLICIES
from driftnet.schemes import SchemeKind
from driftnet.sim import run_grid


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


def run_digests(tmp_path, payload):
    """sha256 of the summary.json, verdicts.csv and severity.csv that
    `driftnet run --seed 1` writes for `payload`."""
    out = tmp_path / "run"
    argv = ["run", "--config", write_config(tmp_path, payload), "--out", str(out)]
    assert main(argv + ["--seed", "1"]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("summary.json", "verdicts.csv", "severity.csv")
    }


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


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

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"model_id": "\xff"}')
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config: cannot read {path}: ")
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
        assert summary["schema"] == "driftnet-summary/1"
        assert summary["replicates"] == 2

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["config"]["permutations"] == 100
        assert manifest["outputs"]["summary"] == "summary.json"

    def test_outputs_pinned_at_a_fixed_seed(self, tmp_path, capsys):
        # A refactor must leave every output byte where it was; the digests
        # also assume numpy's Beta and uniform draws stay stable.
        assert run_digests(tmp_path, SMALL_CONFIG) == {
            "summary.json": "d8a53295ac27d89165d8e327b0c0b53ebf58989d0a5261e09fd4fa793e2223db",
            "verdicts.csv": "0d82ae92481b083d21c6e5f4e84d9c355f53069df50dc23e05414563824e992c",
            "severity.csv": "2ff71779946a18349e3a1fbba912f428d0342d015cfd67a48c1337b717399258",
        }

    def test_outputs_pinned_under_the_other_scoring_rules(self, tmp_path, capsys):
        # The threshold severity rule, the "one" empty-class policy and a
        # drift-free cell, none of which the SMALL_CONFIG digests reach.
        payload = dict(
            SMALL_CONFIG,
            severity_tp_rule="threshold",
            empty_class_policy="one",
            grid=dict(SMALL_CONFIG["grid"], drift_strength=[0.0, 0.3]),
        )
        assert run_digests(tmp_path, payload) == {
            "summary.json": "a35a0900d7c518f26bf9740fa693dcbccebff156a436f6a31ceaf046e3079b90",
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
        def fail(config, cell, replicate_index):
            raise ValueError(f"replicate {replicate_index} broke")

        monkeypatch.setattr("driftnet.sim.run_replicate", fail)
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
        # The manifest holds the empty-class policy the agent table is scored with.
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
