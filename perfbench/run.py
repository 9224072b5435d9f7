#!/usr/bin/env python3
"""driftnet benchmark: the campaign, monitor and report workloads.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 40 --trace 0

`--seed` generates every input: the same seed gives the same inputs.
`--trace 0` measures the end-to-end metrics with no instrumentation;
`--trace 1` runs one untraced and one traced unit of the workload and
reports per-layer metrics (see perfbench/tracing.py). Human-readable
lines come first, then one `detail {...}` line with every named metric,
its unit, statistic and sample count, and last one JSON object:

    {"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}

The benchmark runs driftnet from `src/` in-process, at most two threads,
and writes only under `.perfbench_work/` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("campaign", "monitor", "report")
SETUP_PROBES = 21

# The four default sites of driftnet, pinned here so the workloads do not
# move when the program's defaults do.
SITES = (
    {"site_id": "DS-0", "reference_size": 39, "test_size": 92, "alpha": 9.0, "beta": 21.0},
    {"site_id": "DS-1", "reference_size": 171, "test_size": 128, "alpha": 10.0, "beta": 20.0},
    {"site_id": "DS-2", "reference_size": 11, "test_size": 64, "alpha": 14.0, "beta": 21.0},
    {"site_id": "DS-3", "reference_size": 14, "test_size": 18, "alpha": 9.0, "beta": 23.0},
)
SITE_IDS = tuple(site["site_id"] for site in SITES)
SCHEMES = ("Centralized", "GlobalRef", "SiteRef", "ProdRef", "AdaptiveRef")
METRIC_NAMES = ("precision", "sensitivity", "specificity", "f1")

# campaign: the paper's use case at reduced size. Small windows mean many
# small permutation tests, the kernel that dominates replicate time.
CAMPAIGN_THREADS = 2
CAMPAIGN_CONFIG = {
    "replicates": 4,
    "grid": {
        "drift_strength": [0.3],
        "drift_duration": [0.3],
        "window_fraction": [0.05, 0.10, 0.15],
    },
    "permutations": 1000,
    "resample": "permutation",
    "schemes": list(SCHEMES),
    "sites": list(SITES),
}
CAMPAIGN_REPLICATES = CAMPAIGN_CONFIG["replicates"] * len(CAMPAIGN_CONFIG["grid"]["window_fraction"])

# report: the input run is made untimed by the commit's own `driftnet run`
# with a cheap config, so it follows any change to the output format.
REPORT_INPUT_CONFIG = {
    "replicates": 100,
    "grid": {"drift_strength": [0.3], "drift_duration": [0.3], "window_fraction": [0.02, 0.03]},
    "permutations": 100,
    "resample": "permutation",
    "schemes": list(SCHEMES),
    "sites": list(SITES),
}
REPORT_FILES = ("report_agents.csv", "report_breakdown.csv", "report_timeline.csv", "report_tables.txt")

# monitor: deployed AdaptiveRef agents fed one observation at a time.
MONITOR_REFERENCE = 2000
MONITOR_STREAM = 125_000
MONITOR_WINDOW = 500
MONITOR_RESAMPLES = 1000
MONITOR_NULL_FRACTION = 0.10
MONITOR_DRIFT_FRACTION = 0.20
MONITOR_DRIFT_STRENGTH = 0.30

# Kernel shapes the traces show most: (n1, n2) for the permutation test,
# (bins, n) for the histogram test.
MICRO_PERMUTATION = ((7, 11), (20, 235), (450, 450))
MICRO_HISTOGRAM = ((100, 20), (100, 450))


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_driftnet():
    src = ROOT / "src"
    if not (src / "driftnet" / "__init__.py").is_file():
        raise BenchError(f"driftnet sources not found under {src}")
    sys.path.insert(0, str(src))
    import driftnet
    import driftnet.cli

    return driftnet


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing(samples) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    out = {"p50": statistics.median(xs), "n": len(xs)}
    for pct in (99.9, 99.0, 90.0):
        if len(xs) * (1 - pct / 100) >= 10:
            out["tail_pct"] = pct
            out["tail"] = float(np.percentile(xs, pct))
            break
    return out


def cli_main(dn, argv) -> int:
    """Run the driftnet CLI in-process with its chatter kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return dn.cli.main(argv)


# ---------------------------------------------------------------- campaign


def campaign_config(seed: int) -> dict:
    return dict(CAMPAIGN_CONFIG, master_seed=seed)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_campaign(out_dir: Path, seed: int, reference: dict) -> dict:
    """Gate: overall metrics per scheme within Monte Carlo tolerance.

    The tolerance is `z` standard deviations of the metric across the
    reference seeds (the Monte Carlo error of a run this size) plus a
    small absolute floor.
    """
    raw = (out_dir / "summary.json").read_bytes()
    summary = json.loads(raw)
    ref = reference["campaign"]
    problems = []
    worst_z = 0.0
    for scheme in SCHEMES:
        detection = summary["overall"][scheme]["detection"]
        for metric in METRIC_NAMES:
            mean = detection[metric]["mean"]
            expected = ref["metrics"][scheme][metric]
            sd = ref["seed_sd"][scheme][metric]
            if mean is None:
                problems.append(f"{scheme}.{metric} undefined")
                continue
            gap = abs(mean - expected)
            if gap > ref["z"] * sd + ref["abs_tol"]:
                problems.append(f"{scheme}.{metric}={mean:.4f}, reference {expected:.4f} +- {sd:.4f}")
            if sd > 0:
                worst_z = max(worst_z, gap / sd)
    digest = hashlib.sha256(raw).hexdigest()
    recorded = ref["summary_sha256"].get(str(seed))
    return {
        "ok": not problems,
        "problems": problems,
        "failures": len(summary["failures"]),
        "worst_z": worst_z,
        "digest": digest,
        "identical": None if recorded is None else digest == recorded,
        "verdict_rows": sum(1 for _ in open(out_dir / "verdicts.csv", "rb")) - 1,
    }


class Workload:
    """A workload is built in its constructor (the timed set-up), then
    `prepare` makes any input that is harness work, not set-up."""

    def prepare(self) -> None:
        pass


class Campaign(Workload):
    def __init__(self, dn, seed: int, work: Path) -> None:
        self.dn, self.seed, self.work = dn, seed, work
        self.config_path = work / "campaign.json"
        self.config_path.write_text(json.dumps(campaign_config(seed)), encoding="utf-8")
        dn.cli.load_config(str(self.config_path))
        self.reference = load_reference()
        self.out_dir = work / "campaign-out"

    def unit(self) -> tuple[float, dict]:
        """One `driftnet run`; returns its wall time and the output check.

        The outputs stay in `self.out_dir` until the next unit, so the
        traced run can report on them.
        """
        out_dir = self.out_dir
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["run", "--config", str(self.config_path), "--out", str(out_dir),
                "--threads", str(CAMPAIGN_THREADS)]
        start = time.perf_counter()
        code = cli_main(self.dn, argv)
        wall = time.perf_counter() - start
        if code != 0:
            check = {"ok": False, "problems": [f"exit code {code}"]}
        else:
            check = check_campaign(out_dir, self.seed, self.reference)
        check["attempted"] = CAMPAIGN_REPLICATES
        check["failed"] = check["failures"] if check["ok"] else CAMPAIGN_REPLICATES
        return wall, check


# ----------------------------------------------------------------- monitor


def monitor_seeds(seed: int):
    """Independent seed sequences: references, streams, then one per agent."""
    return np.random.SeedSequence(seed).spawn(2 + len(SITES))


def monitor_references(seed: int) -> list:
    """Per-site reference sample, the base of each agent's histogram."""
    rng = np.random.default_rng(monitor_seeds(seed)[0])
    return [rng.beta(site["alpha"], site["beta"], MONITOR_REFERENCE) for site in SITES]


def monitor_streams(seed: int) -> list:
    """Per-site float64 stream with one drift segment and ~10% NaN."""
    rng = np.random.default_rng(monitor_seeds(seed)[1])
    streams = []
    for site in SITES:
        stream = rng.beta(site["alpha"], site["beta"], MONITOR_STREAM)
        length = int(MONITOR_DRIFT_FRACTION * MONITOR_STREAM)
        start = int(rng.integers(0, MONITOR_STREAM - length + 1))
        center = float(stream.mean()) * (1.0 + MONITOR_DRIFT_STRENGTH)
        sigma = float(stream.std())
        stream[start : start + length] = np.clip(
            rng.uniform(center - sigma, center + sigma, length), 0.0, 1.0
        )
        stream[rng.random(MONITOR_STREAM) < MONITOR_NULL_FRACTION] = np.nan
        streams.append(stream)
    return streams


class Monitor(Workload):
    """Set-up builds the references and agents; the streams are drawn
    afterwards, in `prepare`, as harness input rather than set-up."""

    def __init__(self, dn, seed: int, work: Path) -> None:
        self.dn, self.seed = dn, seed
        self.references = monitor_references(seed)
        self.agents = self.build_agents()
        self.streams = None

    def prepare(self) -> None:
        self.streams = monitor_streams(self.seed)

    def build_agents(self):
        dn = self.dn
        agents = []
        agent_seeds = monitor_seeds(self.seed)[2:]
        for site_id, reference, agent_seed in zip(SITE_IDS, self.references, agent_seeds):
            spec = dn.ReferenceSpec(kind=dn.SchemeKind.ADAPTIVE_REF, global_eval=reference, bins=100)
            config = dn.AgentConfig(
                agent_id=dn.AgentId(site_id, "model-0"),
                scheme=spec,
                window_size=MONITOR_WINDOW,
                permutations=MONITOR_RESAMPLES,
            )
            rng = np.random.default_rng(agent_seed)
            agents.append(dn.DriftAgent(config, rng=rng, hooks=[dn.logging_hook]))
        return agents

    def unit(self, tracer=None) -> tuple[float, dict]:
        """One closed-loop pass over every stream, round-robin by observation.

        Each round turns one window of every stream into Python floats,
        then feeds them. With a tracer, the spans of each (window, agent) share a group.
        """
        agents = self.agents if self.agents is not None else self.build_agents()
        self.agents = None
        width = len(agents)
        latencies, verdicts = [], []
        attempted = failed = 0
        perf = time.perf_counter
        start = perf()
        for window in range(MONITOR_STREAM // MONITOR_WINDOW):
            lo = window * MONITOR_WINDOW
            chunks = [stream[lo : lo + MONITOR_WINDOW].tolist() for stream in self.streams]
            groups = [tracer.new_group() for _ in agents] if tracer is not None else None
            for pos in range(MONITOR_WINDOW):
                for j in range(width):
                    agent = agents[j]
                    if groups is not None:
                        tracer.set_group(groups[j])
                    t0 = perf()
                    attempted += 1
                    try:
                        verdict = agent.ingest(chunks[j][pos])
                    except Exception:
                        failed += 1
                        continue
                    if verdict is None:
                        continue
                    attempted += 1
                    try:
                        agent.act(verdict)
                    except Exception:
                        failed += 1
                    latencies.append(perf() - t0)
                    verdicts.append(verdict)
        wall = perf() - start
        expected = width * (MONITOR_STREAM // MONITOR_WINDOW)
        bad = [v for v in verdicts if v.evaluated and not 0.0 < v.p_value <= 1.0]
        digest = hashlib.sha256(
            "\n".join(
                f"{v.agent_id},{v.batch_index},{v.p_value!r},{int(v.drift)}" for v in verdicts
            ).encode()
        ).hexdigest()
        problems = []
        if len(verdicts) != expected:
            problems.append(f"{len(verdicts)} verdicts, expected {expected}")
        if bad:
            problems.append(f"{len(bad)} p-values outside (0, 1]")
        windows = {}
        for agent in agents:
            key = f"AdaptiveRef.{agent.config.agent_id.center}"
            evaluated = sum(1 for v in agent.verdicts if v.evaluated)
            windows[key] = (len(agent.verdicts), evaluated, len(agent.hook_failures))
        check = {
            "ok": not problems and failed == 0,
            "problems": problems,
            "attempted": attempted,
            "failed": failed + len(bad) + abs(expected - len(verdicts)),
            "digest": digest,
            "latencies": latencies,
            "drift": sum(1 for v in verdicts if v.drift),
            "verdicts": len(verdicts),
            "windows": windows,
        }
        return wall, check


# ------------------------------------------------------------------ report


def report_input(seed: int) -> Path:
    """Run directory for the report workload, made once per seed and cached.

    It is made by `driftnet run` in a child process, so neither its time
    nor its memory lands on the measured process. The cache is keyed by
    the config and a digest of the driftnet sources, so an edited program
    makes its own input.
    """
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "driftnet").rglob("*.py")):
        sources.update(path.read_bytes())
    key = {"config": dict(REPORT_INPUT_CONFIG, master_seed=seed), "sources": sources.hexdigest()}
    run_dir = WORK / "report-input" / f"seed{seed}"
    marker = run_dir / "bench-input.json"
    if marker.is_file():
        recorded = json.loads(marker.read_text(encoding="utf-8"))
        if {k: recorded.get(k) for k in key} == key:
            return run_dir
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(key["config"]), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-m", "driftnet.cli", "run", "--config", str(config_path),
         "--out", str(run_dir), "--threads", str(CAMPAIGN_THREADS)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=170,
    )
    if completed.returncode != 0:
        raise BenchError("report input run failed: " + completed.stderr.decode(errors="replace")[-2000:])
    rows = sum(1 for _ in open(run_dir / "verdicts.csv", "rb")) - 1
    marker.write_text(json.dumps(dict(key, verdict_rows=rows)), encoding="utf-8")
    return run_dir


class Report(Workload):
    def __init__(self, dn, seed: int, work: Path) -> None:
        self.dn = dn
        self.run_dir = report_input(seed)
        marker = json.loads((self.run_dir / "bench-input.json").read_text(encoding="utf-8"))
        self.verdict_rows = marker["verdict_rows"]

    def unit(self) -> tuple[float, dict]:
        """One `driftnet report`, then the check of its four files."""
        for name in REPORT_FILES:
            (self.run_dir / name).unlink(missing_ok=True)
        start = time.perf_counter()
        code = cli_main(self.dn, ["report", "--out", str(self.run_dir)])
        wall = time.perf_counter() - start
        problems = [] if code == 0 else [f"exit code {code}"]
        missing = [name for name in REPORT_FILES if not (self.run_dir / name).is_file()]
        if missing:
            problems.append("missing " + ", ".join(missing))
        else:
            timeline = sum(1 for _ in open(self.run_dir / "report_timeline.csv", "rb")) - 1
            if timeline != self.verdict_rows:
                problems.append(f"timeline has {timeline} rows, verdicts.csv {self.verdict_rows}")
            tables = (self.run_dir / "report_tables.txt").read_text(encoding="utf-8")
            absent = [s for s in SCHEMES if s not in tables]
            if absent:
                problems.append("tables lack " + ", ".join(absent))
        return wall, {"ok": not problems, "problems": problems, "attempted": 1, "failed": int(bool(problems))}


WORKLOAD_CLASSES = {"campaign": Campaign, "monitor": Monitor, "report": Report}


def build_workload(dn, workload: str, seed: int, work: Path) -> Workload:
    """Set the workload up, then make its untimed inputs."""
    bench = WORKLOAD_CLASSES[workload](dn, seed, work)
    bench.prepare()
    return bench


# ------------------------------------------------------------ measurement


def probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up probe: get ready, say so, exit."""
    dn = import_driftnet()
    work = WORK / f"probe-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOAD_CLASSES[workload](dn, seed, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Process start to workload ready, in `probes` fresh interpreters."""
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe for {workload} failed (exit {code})")
        samples.append(ready - start)
    return samples


def metric(value, unit: str, better: str, bound=None, **extra) -> dict:
    out = {"value": value, "unit": unit, "better": better}
    if bound is not None:
        out["bound"] = bound
    out.update(extra)
    return out


def run_end_to_end(dn, workload: str, seed: int, seconds: float, work: Path) -> dict:
    if workload == "report":
        report_input(seed)
    bench = build_workload(dn, workload, seed, work)
    # The set-up probes are spread over the run, their share of them after
    # each unit, so that their median spans the machine's slow and fast
    # spells as the units' median does. Probe time is not run time.
    setup, walls, checks = [], [], []
    measured = 0.0
    while measured < seconds:
        start = time.perf_counter()
        wall, check = bench.unit()
        measured += time.perf_counter() - start
        walls.append(wall)
        checks.append(check)
        due = min(SETUP_PROBES, math.ceil(SETUP_PROBES * measured / seconds))
        setup += measure_setup(workload, seed, due - len(setup))
    rss = peak_rss_mb()
    wall_t = timing(walls)
    setup_t = timing(setup)
    problems = [p for c in checks for p in c["problems"]]
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}
    rate_bound = bounds["throughput_per_s"]
    detail = {
        "setup_s": metric(setup_t["p50"], "s", "lower", bounds["setup_s"], n=setup_t["n"], stat="p50"),
        "wall_s": metric(wall_t["p50"], "s", "lower", bounds["wall_s"], n=wall_t["n"], stat="p50",
                         samples=walls),
        "peak_rss_mb": metric(rss, "MB", "lower", bounds["peak_rss_mb"], n=1, stat="max"),
    }
    info = []
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    if workload == "campaign":
        rates = timing([CAMPAIGN_REPLICATES / w for w in walls])
        detail["replicates_per_s"] = metric(rates["p50"], "1/s", "higher", rate_bound, n=rates["n"], stat="p50")
        throughput = rates["p50"]
        identical = {c.get("identical") for c in checks}
        info.append(
            f"summary.json within Monte Carlo tolerance: {all(c['ok'] for c in checks)} "
            f"(largest |z| {max(c.get('worst_z', 0.0) for c in checks):.2f}); "
            f"byte-identical to recorded digest: "
            + ("unrecorded seed" if identical == {None} else str(identical == {True}))
            + f"; digest {checks[0].get('digest', '')[:16]}"
        )
    elif workload == "monitor":
        latencies = [x * 1e3 for c in checks for x in c["latencies"]]
        rates = timing([len(SITES) * MONITOR_STREAM / w for w in walls])
        throughput = rates["p50"]
        detail["obs_per_s"] = metric(throughput, "1/s", "higher", rate_bound, n=rates["n"], stat="p50")
        lat = timing(latencies)
        detail["verdict_p50_ms"] = metric(lat["p50"], "ms", "lower", bounds["wall_s"], n=lat["n"], stat="p50")
        detail[f"verdict_p{lat['tail_pct']:g}_ms"] = metric(
            lat["tail"], "ms", "lower", bounds["wall_s"], n=lat["n"], stat=f"p{lat['tail_pct']:g}"
        )
        digests = {c["digest"] for c in checks}
        if len(digests) != 1:
            problems.append("passes over the same input gave different verdicts")
        info.append(
            f"verdicts per pass {checks[0]['verdicts']}, drift {checks[0]['drift']}; "
            f"verdict digest {checks[0]['digest'][:16]}; passes agree: {len(digests) == 1}"
        )
    else:
        rates = timing([bench.verdict_rows / w for w in walls])
        detail["rows_per_s"] = metric(rates["p50"], "1/s", "higher", rate_bound, n=rates["n"], stat="p50")
        throughput = rates["p50"]
        info.append(f"verdict rows {bench.verdict_rows}; report files checked: {all(c['ok'] for c in checks)}")
    detail["failed_frac"] = metric(failed / attempted, "ratio", "lower", 0.0, n=attempted, stat="frac")
    gate = {
        "setup_s": detail["setup_s"],
        "wall_s": detail["wall_s"],
        "throughput_per_s": metric(throughput, "1/s", "higher"),
        "peak_rss_mb": detail["peak_rss_mb"],
    }
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "info": info,
        "detail": detail,
        "gate": gate,
    }


# ---------------------------------------------------------------- tracing


def micro(dn, seed: int) -> dict:
    """Kernel-only timings in microseconds per call, median of repeats."""
    rng = np.random.default_rng([seed, 99])
    out = {}
    cases = [
        (f"stats.permutation_pvalue.us_{n1}x{n2}",
         lambda a=rng.beta(9, 21, n1), b=rng.beta(9, 21, n2): dn.permutation_pvalue(a, b, 1000, rng))
        for n1, n2 in MICRO_PERMUTATION
    ] + [
        (f"stats.ks_vs_histogram.us_{bins}x{n}",
         lambda x=rng.beta(9, 21, n), h=dn.build_histogram(rng.beta(9, 21, 2000), bins):
         dn.ks_vs_histogram(x, h, 1000, rng))
        for bins, n in MICRO_HISTOGRAM
    ]
    for name, call in cases:
        call()
        samples = []
        spent = 0.0
        while len(samples) < 5 or spent < 0.2:
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
            spent += samples[-1]
        out[name] = statistics.median(samples) * 1e6
    return out


SPAN_LAYERS = (
    "bench.harness",
    "stats.permutation_pvalue",
    "stats.ks_vs_histogram",
    "agent.ingest",
    "agent.act",
    "schemes.make_reference",
    "schemes.adaptive_observe",
    "sim.run_grid",
    "sim.run_replicate",
    "sim.augment",
    "sim.inject_drift",
    "sim.pad_sparsity",
    "sim.interleave_sites",
    "sim.window_truth_labels",
    "metrics.score_detection",
    "metrics.compute_metrics",
    "metrics.aggregate",
    "severity.build_severity",
    "cli.cmd_run",
    "cli.cmd_report",
    "cli.sink",
)
AGENT_KEYS = ("Centralized.ALL",) + tuple(
    f"{scheme}.{site}" for scheme in SCHEMES[1:] for site in SITE_IDS
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in print order."""
    spec = []
    for layer in SPAN_LAYERS:
        spec += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    for kernel in ("stats.permutation_pvalue", "stats.ks_vs_histogram"):
        spec += [
            (f"{kernel}.cells", "count", "lower"),
            (f"{kernel}.computed_mb", "MB", "lower"),
            (f"{kernel}.self_share", "ratio", "lower"),
        ]
    spec += [(f"stats.permutation_pvalue.us_{a}x{b}", "us", "lower") for a, b in MICRO_PERMUTATION]
    spec += [(f"stats.ks_vs_histogram.us_{a}x{b}", "us", "lower") for a, b in MICRO_HISTOGRAM]
    spec += [
        ("agent.windows_evaluated", "count", "higher"),
        ("agent.windows_unevaluated", "count", "lower"),
        ("agent.hook_failures", "count", "lower"),
    ]
    spec += [(f"agent.windows.{key}", "count", "higher") for key in AGENT_KEYS]
    spec += [(f"agent.evaluated_ratio.{key}", "ratio", "higher") for key in AGENT_KEYS]
    spec += [
        ("schemes.adaptive_observe.updates", "count", "higher"),
        ("schemes.adaptive_observe.update_ratio", "ratio", "higher"),
        ("cli.report.verdict_rows", "count", "higher"),
        ("proc.cpu_user_s", "s", "lower"),
        ("proc.cpu_sys_s", "s", "lower"),
        ("proc.minflt", "count", "lower"),
        ("proc.nvcsw", "count", "lower"),
        ("proc.nivcsw", "count", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.busy_s", "s", "lower"),
    ]
    return spec


def window_group_problems(tracer, root_group, verdicts: int) -> list[str]:
    """Monitor trace check: each (window, agent) has a group of its own,
    shared by that window's kernel call and its `act`."""
    groups = {"agent.act": [], "stats.ks_vs_histogram": []}
    for _, _, group, name, *_ in tracer.spans:
        if name in groups:
            groups[name].append(group)
    acts, kernels = groups["agent.act"], groups["stats.ks_vs_histogram"]
    problems = []
    if len(acts) != verdicts or len(set(acts)) != len(acts) or root_group in acts:
        problems.append("traced monitor windows do not each have a span group of their own")
    if len(set(kernels)) != len(kernels) or not set(kernels) <= set(acts):
        problems.append("traced kernel calls are not grouped with their window's act")
    return problems


def run_traced(dn, workload: str, seed: int, work: Path) -> dict:
    from tracing import Tracer, instrument

    bench = build_workload(dn, workload, seed, work)
    before = resource.getrusage(resource.RUSAGE_SELF)
    untraced_wall, untraced_check = bench.unit()
    after = resource.getrusage(resource.RUSAGE_SELF)

    tracer = Tracer()
    with instrument(tracer):
        root = tracer.enter("bench.harness")
        try:
            if workload == "monitor":
                traced_wall, traced_check = bench.unit(tracer)
            else:
                traced_wall, traced_check = bench.unit()
            if workload == "campaign":
                # The report layer, on the run just traced, outside its timing.
                code = cli_main(dn, ["report", "--out", str(bench.out_dir)])
                if code != 0:
                    traced_check["problems"].append(f"driftnet report exit code {code}")
        finally:
            tracer.exit(root)
    checks = [untraced_check, traced_check]

    if workload == "monitor":
        traced_check["problems"] += window_group_problems(tracer, root.group, traced_check["verdicts"])
        for key, (windows, evaluated, hook_failures) in traced_check["windows"].items():
            tracer.count(f"agent.windows.{key}", windows)
            tracer.count(f"agent.windows_evaluated.{key}", evaluated)
            tracer.count("agent.windows_unevaluated", windows - evaluated)
            tracer.count("agent.hook_failures", hook_failures)

    values = {}
    for layer in SPAN_LAYERS:
        values[f"{layer}.calls"] = tracer.calls(layer)
        values[f"{layer}.self_s"] = tracer.self_s(layer)
    busy = tracer.busy_s()
    for kernel in ("stats.permutation_pvalue", "stats.ks_vs_histogram"):
        values[f"{kernel}.cells"] = tracer.counters[f"{kernel}.cells"]
        values[f"{kernel}.computed_mb"] = tracer.counters[f"{kernel}.bytes"] / 1e6
        values[f"{kernel}.self_share"] = tracer.self_s(kernel) / busy if busy else 0.0
    values.update(micro(dn, seed))
    evaluated_total = 0
    for key in AGENT_KEYS:
        windows = tracer.counters[f"agent.windows.{key}"]
        evaluated = tracer.counters[f"agent.windows_evaluated.{key}"]
        evaluated_total += evaluated
        values[f"agent.windows.{key}"] = windows
        values[f"agent.evaluated_ratio.{key}"] = evaluated / windows if windows else 0.0
    values["agent.windows_evaluated"] = evaluated_total
    values["agent.windows_unevaluated"] = tracer.counters["agent.windows_unevaluated"]
    values["agent.hook_failures"] = tracer.counters["agent.hook_failures"]
    observe_calls = tracer.calls("schemes.adaptive_observe")
    updates = tracer.counters["schemes.adaptive_observe.updates"]
    values["schemes.adaptive_observe.updates"] = updates
    values["schemes.adaptive_observe.update_ratio"] = updates / observe_calls if observe_calls else 0.0
    if workload == "campaign":
        values["cli.report.verdict_rows"] = traced_check.get("verdict_rows", 0)
    elif workload == "report":
        values["cli.report.verdict_rows"] = bench.verdict_rows
    else:
        values["cli.report.verdict_rows"] = 0
    values["proc.cpu_user_s"] = after.ru_utime - before.ru_utime
    values["proc.cpu_sys_s"] = after.ru_stime - before.ru_stime
    values["proc.minflt"] = after.ru_minflt - before.ru_minflt
    values["proc.nvcsw"] = after.ru_nvcsw - before.ru_nvcsw
    values["proc.nivcsw"] = after.ru_nivcsw - before.ru_nivcsw
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    values["trace.spans"] = len(tracer.spans)
    values["trace.busy_s"] = busy

    trace_path = WORK / "traces" / f"{workload}-seed{seed}.json"
    tracer.write(trace_path)

    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    problems = [p for c in checks for p in c["problems"]]
    units = {name: (unit, better) for name, unit, better in per_layer_spec()}
    missing = set(units) ^ set(values)
    if missing:
        raise BenchError(f"per-layer metric set mismatch: {sorted(missing)}")
    detail = {name: metric(values[name], unit, better) for name, (unit, better) in units.items()}
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "info": [f"trace written to {trace_path.relative_to(ROOT)}",
                 f"tracing overhead {values['trace.overhead_frac']:+.1%} "
                 f"({untraced_wall:.3f} s untraced, {traced_wall:.3f} s traced)"],
        "detail": detail,
        "gate": detail,
    }


# -------------------------------------------------------------------- main


def describe(name: str, m: dict) -> str:
    text = f"  {name:<44} {m['value']:>14.6g} {m['unit']}"
    if "stat" in m:
        text += f"  ({m['stat']}, n={m['n']})"
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    try:
        if args.probe_setup:
            probe_setup(args.workload, args.seed)
            return 0
        dn = import_driftnet()
        work = WORK / f"{args.workload}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            if args.trace:
                result = run_traced(dn, args.workload, args.seed, work)
            else:
                result = run_end_to_end(dn, args.workload, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, m in result["detail"].items():
        print(describe(name, m))
    for line in result["info"]:
        print("  " + line)
    for problem in result["problems"]:
        print("  CHECK FAILED: " + problem)
    print("detail " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, "metrics": result["detail"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in result["gate"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
