"""Import cost and public names of the driftnet package."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import driftnet

# Lists the third-party packages that `import driftnet` adds to a fresh
# interpreter, beyond what site start-up already loaded.
_PROBE = """
import sys
before = set(sys.modules)
import driftnet
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


# Lists the network modules that `import driftnet, driftnet.cli` leaves
# loaded; only `webhook_hook` needs them, and only when it is called.
_NETWORK_PROBE = """
import sys
import driftnet, driftnet.cli
print(" ".join(m for m in ("urllib.request", "http.client", "ssl", "email") if m in sys.modules))
"""


def _probe(code: str) -> list[str]:
    """The words `code` prints in a fresh interpreter that imports this driftnet."""
    src = str(Path(driftnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout.split()


def test_import_loads_no_third_party_package_but_numpy():
    out = _probe(_PROBE)
    # scipy.stats alone takes over a second to import, several times the
    # whole package's import time.
    assert "scipy" not in out
    assert set(out) <= {"driftnet", "numpy"}


def test_import_loads_no_network_module():
    # Every spawn or forkserver worker imports the package again.
    assert _probe(_NETWORK_PROBE) == []


# Every name `driftnet.__all__` listed when it was kept by hand, except the
# three deleted with the reference wrappers and the synthetic-site helper
# (AdaptiveReference, SampleReference, generate_synthetic_sites),
# SeverityOutcome, merged into SeverityRecord, MetricsSummary and
# summary_dict, deleted when run_grid came to return summary.json's dict,
# severity_score, folded into build_severity, and sample_from_histogram,
# which only the tests called and which moved into them.
_PUBLIC = """
__version__ AgentConfig AgentId DriftAgent DriftVerdict logging_hook webhook_hook
ConfusionCounts MetricSet aggregate compute_metrics score_detection
AdaptiveSettings AdaptiveState ReferenceSpec SchemeKind adaptive_observe initial_adaptive_state
make_reference
SeverityRecord build_severity classify_severity
DEFAULT_SITES GridCell SimConfig SiteSpec augment cell_label derive_seed inject_drift
interleave_sites pad_sparsity run_grid run_replicate window_truth_labels
Histogram KsResult blend build_histogram ks_statistic ks_vs_histogram permutation_pvalue
permutation_pvalues
""".split()


def test_public_names_still_exported():
    assert len(driftnet.__all__) == len(set(driftnet.__all__))
    assert set(_PUBLIC) <= set(driftnet.__all__)
    assert all(hasattr(driftnet, name) for name in driftnet.__all__)


def test_names_the_benchmark_harness_uses_stay_importable():
    import importlib

    for module, names in {
        "driftnet": "ReferenceSpec AgentConfig AgentId DriftAgent logging_hook SchemeKind",
        "driftnet.agent": "make_reference permutation_pvalue ks_vs_histogram",
        "driftnet.schemes": "adaptive_observe",
        "driftnet.sim": "run_replicate augment inject_drift pad_sparsity interleave_sites "
        "window_truth_labels score_detection compute_metrics aggregate build_severity",
        "driftnet.cli": "load_config main compute_metrics aggregate run_grid cmd_run cmd_report",
    }.items():
        imported = importlib.import_module(module)
        assert [n for n in names.split() if not hasattr(imported, n)] == []
    # The keyword forms the harness constructs its agents with.
    spec = driftnet.ReferenceSpec(
        kind=driftnet.SchemeKind.ADAPTIVE_REF, global_eval=[0.2, 0.4, 0.6], bins=10
    )
    config = driftnet.AgentConfig(
        agent_id=driftnet.AgentId("DS-0", "model-0"), scheme=spec, window_size=8, permutations=100
    )
    agent = driftnet.DriftAgent(config, rng=np.random.default_rng(0), hooks=[driftnet.logging_hook])
    assert (agent.config.agent_id.center, agent.verdicts, agent.hook_failures) == ("DS-0", [], [])


def test_replicate_fields_the_trace_reads():
    # perfbench/tracing.py wraps cli.run_grid as run_grid(config, threads=,
    # replicate_sink=) and counts windows from each replicate it sees.
    config = driftnet.SimConfig(
        replicates=1,
        grid={"drift_strength": (0.3,), "drift_duration": (0.3,), "window_fraction": (0.15,)},
        permutations=100,
        schemes=["SiteRef", "AdaptiveRef"],
    )
    seen = []
    driftnet.run_grid(config, threads=1, replicate_sink=seen.append)
    (result,) = seen
    assert set(result.schemes) == {"SiteRef", "AdaptiveRef"}
    for record in result.schemes.values():
        assert [agent.center for agent in record.agents] == ["DS-0", "DS-1", "DS-2", "DS-3"]
        for agent in record.agents:
            assert all(isinstance(v.evaluated, bool) for v in agent.verdicts)
            assert len(agent.truth) >= len(agent.verdicts)
            assert agent.hook_failures == []
