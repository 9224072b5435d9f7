"""Unit tests for the monitoring agent lifecycle."""

import hashlib
import http.server
import json
import logging
import socket
import threading

import numpy as np
import pytest

from driftnet import schemes
from driftnet.agent import (
    AgentConfig,
    AgentId,
    DriftAgent,
    DriftVerdict,
    logging_hook,
    webhook_hook,
)
from driftnet.config import ConfigError
from driftnet.schemes import AdaptiveSettings, AdaptiveState, ReferenceSpec, SchemeKind
from driftnet.stats import permutation_pvalue


def site_ref_config(window_size=10, **kwargs):
    rng = np.random.default_rng(100)
    spec = ReferenceSpec(kind=SchemeKind.SITE_REF, site_eval=rng.beta(2, 5, 80))
    defaults = dict(
        agent_id=AgentId("DS-0", "model-0"),
        scheme=spec,
        window_size=window_size,
        permutations=200,
    )
    defaults.update(kwargs)
    return AgentConfig(**defaults)


def reference_state(reference):
    """A sample reference's bytes, or an AdaptiveState's update count,
    global weight, last accepted p-value and mass bytes."""
    if isinstance(reference, AdaptiveState):
        return (
            reference.updates,
            reference.global_weight,
            reference.last_p_value,
            reference.reference.mass.tobytes(),
        )
    return None if reference is None else reference.tobytes()


@pytest.fixture
def observe_calls(monkeypatch):
    """Every schemes.adaptive_observe call, as (state, p_value, drift, new state).
    The agent calls the update through the module, so the wrapper sees each one."""
    calls = []
    observe = schemes.adaptive_observe

    def wrapper(state, batch, p_value, drift):
        new = observe(state, batch, p_value, drift)
        calls.append((state, p_value, drift, new))
        return new

    monkeypatch.setattr(schemes, "adaptive_observe", wrapper)
    return calls


def assert_update_discipline(calls, verdicts, final, always=False):
    """One AdaptiveRef agent's updates, window by window: one call per tested
    verdict with its p-value and flag, each on the state the last one left; a
    drifted window never replaces the state; the global weight never rises;
    under "always", a window updates exactly when its verdict is clean; and
    the final state's `updates` counts the windows that replaced the state."""
    tested = [v for v in verdicts if v.evaluated]
    assert [(p, drift) for _, p, drift, _ in calls] == [(v.p_value, v.drift) for v in tested]
    assert [new for *_, new in calls[:-1]] == [state for state, *_ in calls[1:]]
    assert calls and calls[-1][3] is final
    for state, _, drift, new in calls:
        updated = new is not state
        assert not (drift and updated)
        assert new.global_weight <= state.global_weight
        if always:
            assert updated == (not drift)
    assert final.updates == sum(new is not state for state, *_, new in calls)


def feed(agent, stream):
    for obs in stream:
        verdict = agent.ingest(obs)
        if verdict is not None:
            agent.act(verdict)
    return agent


class TestAgentInit:
    def test_fresh_agent_state(self):
        agent = DriftAgent(site_ref_config())
        assert agent.batch_index == 0
        assert agent.verdicts == []

    def test_agent_id_renders_center_and_model(self):
        assert str(AgentId("DS-2", "model-7")) == "DS-2/model-7"

    def test_window_too_small(self):
        with pytest.raises(ValueError, match=r"^window_size: "):
            DriftAgent(site_ref_config(window_size=1))

    def test_threshold_bounds(self):
        with pytest.raises(ValueError, match=r"^threshold: "):
            DriftAgent(site_ref_config(threshold=0.0))

    @pytest.mark.parametrize("permutations", [0, -5, 2.5, 99])
    @pytest.mark.parametrize("kind", [SchemeKind.SITE_REF, SchemeKind.ADAPTIVE_REF])
    def test_permutations_checked_at_construction(self, kind, permutations):
        # One floor for both kernels, before any window is tested.
        sample = np.linspace(0.1, 0.9, 40)
        spec = ReferenceSpec(kind=kind, global_eval=sample, site_eval=sample)
        with pytest.raises(ConfigError, match=r"^permutations: "):
            site_ref_config(scheme=spec, permutations=permutations)

    def test_min_valid_floor(self):
        with pytest.raises(ValueError, match=r"^min_valid: "):
            DriftAgent(site_ref_config(min_valid=1))

    def test_min_valid_above_window_rejected(self):
        # Such an agent could never test a window.
        with pytest.raises(ValueError, match=r"^min_valid: must be <= window_size \(6\)"):
            DriftAgent(site_ref_config(window_size=6, min_valid=7))
        assert DriftAgent(site_ref_config(window_size=6, min_valid=6)).min_valid == 6

    def test_min_valid_defaults_to_half_window(self):
        agent = DriftAgent(site_ref_config(window_size=9))
        assert agent.min_valid == 4
        agent = DriftAgent(site_ref_config(window_size=4))
        assert agent.min_valid == 2


class TestWindowing:
    def test_non_overlapping_windows_and_trailing_partial(self):
        rng = np.random.default_rng(101)
        agent = DriftAgent(site_ref_config(window_size=10), rng=rng)
        feed(agent, np.random.default_rng(1).beta(2, 5, 25))
        # 25 observations, window 10: two complete windows, trailing 5 dropped.
        assert len(agent.verdicts) == 2
        assert [v.batch_index for v in agent.verdicts] == [0, 1]

    def test_all_null_window_is_unevaluated(self):
        agent = DriftAgent(site_ref_config(window_size=4))
        feed(agent, [None, None, None, None])
        (verdict,) = agent.verdicts
        assert verdict.evaluated is False
        assert verdict.drift is False
        assert verdict.p_value is None
        assert verdict.n_valid == 0

    def test_sparse_window_below_min_valid_is_unevaluated(self):
        agent = DriftAgent(site_ref_config(window_size=8, min_valid=4))
        feed(agent, [0.2, None, 0.3, None, None, None, 0.4, None])
        (verdict,) = agent.verdicts
        assert verdict.n_valid == 3
        assert verdict.evaluated is False

    def test_nan_counts_as_null(self):
        agent = DriftAgent(site_ref_config(window_size=4, min_valid=2))
        feed(agent, [0.2, float("nan"), 0.3, 0.4])
        (verdict,) = agent.verdicts
        assert verdict.n_valid == 3
        assert verdict.evaluated is True

    def test_out_of_range_observation_rejected(self):
        agent = DriftAgent(site_ref_config())
        with pytest.raises(ValueError, match="invalid-probability"):
            agent.ingest(1.5)

    @pytest.mark.parametrize(
        "observation, outcome",
        [
            (None, 3),
            (float("nan"), 3),
            ("nan", 3),
            (0.25, 4),
            ("abc", (ValueError, "could not convert string to float: 'abc'")),
            (object(), (TypeError, "float() argument must be a string or a")),
            (float("inf"), (ValueError, "invalid-probability: inf outside [0, 1]")),
            (-0.1, (ValueError, "invalid-probability: -0.1 outside [0, 1]")),
        ],
    )
    def test_observation_outcomes(self, observation, outcome):
        # None and NaN fill a null slot; what float() rejects raises its own
        # error; a number outside [0, 1] is invalid.
        agent = DriftAgent(site_ref_config(window_size=4, min_valid=2))
        if isinstance(outcome, int):
            feed(agent, [observation, 0.2, 0.3, 0.4])
            assert [v.n_valid for v in agent.verdicts] == [outcome]
            return
        error, message = outcome
        with pytest.raises(error) as info:
            agent.ingest(observation)
        assert str(info.value).startswith(message)

    def test_verdict_threshold_invariant(self):
        rng = np.random.default_rng(102)
        agent = DriftAgent(site_ref_config(window_size=10), rng=rng)
        stream = list(rng.beta(2, 5, 30)) + list(rng.uniform(0.85, 0.99, 30))
        feed(agent, stream)
        for verdict in agent.verdicts:
            if verdict.evaluated:
                assert verdict.drift == (verdict.p_value < agent.config.threshold)

    def test_drift_detected_on_shifted_window(self):
        rng = np.random.default_rng(103)
        agent = DriftAgent(site_ref_config(window_size=12), rng=rng)
        feed(agent, list(rng.uniform(0.85, 0.99, 12)))
        (verdict,) = agent.verdicts
        assert verdict.drift is True


class TestProdRef:
    def config(self, window_size=6, min_valid=None):
        return AgentConfig(
            agent_id=AgentId("DS-1", "model-0"),
            scheme=ReferenceSpec(kind=SchemeKind.PROD_REF),
            window_size=window_size,
            permutations=200,
            min_valid=min_valid,
        )

    def test_first_window_consumed_without_verdict(self):
        rng = np.random.default_rng(104)
        agent = DriftAgent(self.config(), rng=rng)
        stream = rng.beta(2, 5, 18)
        feed(agent, stream)
        assert agent.consumed_batch == 0
        assert [v.batch_index for v in agent.verdicts] == [1, 2]
        assert np.array_equal(agent.reference, stream[:6])

    def test_sparse_first_window_skipped_until_usable(self):
        rng = np.random.default_rng(105)
        agent = DriftAgent(self.config(window_size=4), rng=rng)
        # First window has one valid value: unusable as a reference, so it
        # is logged unevaluated and the next full window seeds the reference.
        feed(agent, [0.4, None, None, None, 0.3, 0.5, 0.2, 0.6, 0.1, 0.2, 0.35, 0.45])
        assert agent.consumed_batch == 1
        assert np.array_equal(agent.reference, [0.3, 0.5, 0.2, 0.6])
        assert [(v.batch_index, v.evaluated) for v in agent.verdicts] == [(0, False), (2, True)]

    def test_first_window_with_two_values_seeds_below_min_valid(self):
        # The first window holds 2 valid values, fewer than min_valid, and
        # still becomes the frozen reference; later windows are tested.
        agent = DriftAgent(self.config(window_size=6, min_valid=4))
        first = [0.4, None, 0.3, None, None, None]
        feed(agent, first + [0.1, 0.2, 0.3, 0.4, 0.5, 0.6] + [0.7, 0.8, 0.85, 0.9, 0.95, 0.99])
        assert agent.consumed_batch == 0
        assert np.array_equal(agent.reference, [0.4, 0.3])
        assert [(v.batch_index, v.evaluated) for v in agent.verdicts] == [(1, True), (2, True)]

    def test_verdict_log_accounting(self):
        rng = np.random.default_rng(106)
        agent = DriftAgent(self.config(window_size=5), rng=rng)
        feed(agent, rng.beta(2, 5, 25))
        # 5 complete windows, first consumed as reference.
        assert len(agent.verdicts) == 4


class TestAct:
    def test_foreign_verdict_rejected(self):
        agent = DriftAgent(site_ref_config())
        other = DriftVerdict(
            agent_id=AgentId("DS-9", "model-9"),
            batch_index=0,
            statistic=0.5,
            p_value=0.01,
            drift=True,
            n_valid=10,
        )
        with pytest.raises(ValueError, match="foreign-verdict"):
            agent.act(other)

    def test_hook_fired_only_on_drift(self):
        records = []
        rng = np.random.default_rng(107)
        agent = DriftAgent(site_ref_config(window_size=10), rng=rng, hooks=[records.append])
        stream = list(rng.beta(2, 5, 10)) + list(rng.uniform(0.9, 0.99, 10))
        feed(agent, stream)
        drift_batches = [v.batch_index for v in agent.verdicts if v.drift]
        assert [r["batch_index"] for r in records] == drift_batches
        assert all(r["agent_id"] == "DS-0/model-0" for r in records)
        assert all("timestamp" in r and "p_value" in r for r in records)

    def test_failing_hook_recorded_never_raises(self):
        def bad_hook(record):
            raise RuntimeError("sink unavailable")

        rng = np.random.default_rng(108)
        agent = DriftAgent(site_ref_config(window_size=10), rng=rng, hooks=[bad_hook])
        feed(agent, list(rng.uniform(0.9, 0.99, 10)))
        assert len(agent.hook_failures) == 1
        batch, detail = agent.hook_failures[0]
        assert batch == 0
        assert "sink unavailable" in detail

    def test_logging_hook_emits_warning(self, caplog):
        with caplog.at_level(logging.INFO, logger="driftnet.agent"):
            logging_hook(
                {"agent_id": "DS-0/model-0", "batch_index": 3, "p_value": 0.01, "drift": True}
            )
        assert any("DS-0/model-0" in message for message in caplog.messages)


class TestWebhookHook:
    """webhook_hook against a server on the loopback interface only."""

    @pytest.fixture(autouse=True)
    def no_proxy(self, monkeypatch):
        # A proxy from the environment must not carry loopback requests off the host.
        monkeypatch.setenv("no_proxy", "*")

    @staticmethod
    def drifting_run(url):
        # A window of the reference's own values, then two far above it.
        config = site_ref_config(window_size=10)
        agent = DriftAgent(config, hooks=[webhook_hook(url)])
        high = np.random.default_rng(109).uniform(0.9, 0.99, 20)
        agent.run(np.concatenate((config.scheme.site_eval[:10], high)))
        assert [v.drift for v in agent.verdicts] == [False, True, True]
        return agent, agent.verdicts[1:]

    def test_posts_one_json_alert_per_drift_verdict(self):
        bodies = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                assert self.headers["Content-Type"] == "application/json"
                bodies.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
                self.send_response(204)
                self.end_headers()

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            agent, drifts = self.drifting_run(f"http://127.0.0.1:{server.server_port}/alerts")
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert agent.hook_failures == []
        assert [{k: v for k, v in body.items() if k != "timestamp"} for body in bodies] == [
            verdict.alert() for verdict in drifts
        ]
        assert all(isinstance(body["timestamp"], float) for body in bodies)

    def test_refused_post_is_recorded_never_raised(self):
        # A bound socket that does not listen refuses every connection.
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            agent, drifts = self.drifting_run(f"http://127.0.0.1:{closed.getsockname()[1]}/")
        assert [batch for batch, _ in agent.hook_failures] == [v.batch_index for v in drifts]
        assert all("Connection refused" in detail for _, detail in agent.hook_failures)


class TestAdaptiveAgent:
    def config(self, **adaptive):
        rng = np.random.default_rng(109)
        spec = ReferenceSpec(
            kind=SchemeKind.ADAPTIVE_REF,
            global_eval=rng.beta(2, 5, 400),
            bins=50,
            adaptive=AdaptiveSettings(**adaptive),
        )
        return AgentConfig(
            agent_id=AgentId("DS-2", "model-0"),
            scheme=spec,
            window_size=10,
            permutations=200,
        )

    def test_trace_rows_and_update_discipline(self, observe_calls):
        for center_window in (None, 2):
            observe_calls.clear()
            rng = np.random.default_rng(110)
            agent = DriftAgent(self.config(center_window=center_window), rng=rng)
            stream = list(rng.beta(2, 5, 40)) + list(rng.uniform(0.9, 0.99, 10))
            feed(agent, stream)
            assert_update_discipline(observe_calls, agent.verdicts, agent.reference)
            assert agent.reference.updates >= 1

    def test_the_verdict_alone_decides_which_windows_update(self, observe_calls):
        # A stricter drift rule in _verdict must reach the update: under
        # "always", AdaptiveRef absorbs exactly the windows its verdicts
        # call clean, including those with p in [threshold / 10, threshold).
        class StrictAgent(DriftAgent):
            def _verdict(self, index, n_valid, result):
                verdict = super()._verdict(index, n_valid, result)
                threshold = self.config.threshold / 10
                return verdict._replace(drift=verdict.evaluated and verdict.p_value < threshold)

        rng = np.random.default_rng(2)
        stream = np.concatenate((rng.beta(3, 5, 100), rng.uniform(0.9, 0.99, 20), rng.beta(3, 5, 80)))
        for center_window in (None, 2):
            observe_calls.clear()
            config = self.config(update_condition="always", center_window=center_window)
            agent = StrictAgent(config)
            agent.run(stream)
            assert len(observe_calls) == 20
            assert_update_discipline(observe_calls, agent.verdicts, agent.reference, always=True)
            assert any(drift for _, _, drift, _ in observe_calls)
            threshold = config.threshold
            assert any(threshold / 10 <= p < threshold for _, p, _, _ in observe_calls)

    @pytest.mark.parametrize("seed", [113, 114])
    def test_verdicts_do_not_depend_on_when_act_is_called(self, seed, observe_calls):
        # The evaluator applies each update, so acting on every verdict,
        # acting late, never acting and run() give one set of bytes.
        stream = np.random.default_rng(seed).beta(2, 5, 300).tolist()

        def exact(verdicts, state):
            assert_update_discipline(observe_calls, verdicts, state)
            observe_calls.clear()
            return (
                [
                    (v.batch_index, v.n_valid, v.statistic.hex(), v.p_value.hex(), v.drift)
                    for v in verdicts
                ],
                reference_state(state),
            )

        def fed(when, center_window):
            agent = DriftAgent(self.config(center_window=center_window))
            verdicts = []
            for observation in stream:
                verdict = agent.ingest(observation)
                if verdict is not None:
                    verdicts.append(verdict)
                    if when == "each":
                        agent.act(verdict)
            if when == "after":
                for verdict in verdicts:
                    agent.act(verdict)
            return exact(verdicts, agent.reference)

        for center_window in (None, 2):
            ran = DriftAgent(self.config(center_window=center_window))
            ran.run(stream)
            assert ran.reference.updates >= 2
            ran_bytes = exact(ran.verdicts, ran.reference)
            acted = fed("each", center_window)
            assert len(acted[0]) == 30
            assert fed("after", center_window) == acted
            assert fed("never", center_window) == acted
            assert ran_bytes == acted


class TestDeterminism:
    def test_same_seed_same_verdicts(self):
        stream = list(np.random.default_rng(5).beta(2, 5, 40))

        def run():
            agent = DriftAgent(site_ref_config(window_size=8), rng=np.random.default_rng(77))
            feed(agent, stream)
            return [(v.batch_index, v.statistic, v.p_value, v.drift) for v in agent.verdicts]

        assert run() == run()


def scheme_config(kind, window_size=7):
    rng = np.random.default_rng(112)
    spec = ReferenceSpec(
        kind=kind, global_eval=rng.beta(2, 5, 60), site_eval=rng.beta(2, 5, 9), bins=20
    )
    return AgentConfig(
        agent_id=AgentId("DS-0", "model-0"),
        scheme=spec,
        window_size=window_size,
        permutations=200,
        min_valid=4,
    )


def agent_state(agent):
    return (
        agent.verdicts,
        agent.batch_index,
        agent.consumed_batch,
        np.asarray(agent._buffer).tobytes(),
        reference_state(agent.reference),
    )


def run_stream(seed, size=150):
    """Clean values, a drifted stretch, nulls (None and NaN) and ties."""
    rng = np.random.default_rng(seed)
    values = rng.beta(2, 5, size)
    values[size // 2 : size // 2 + 30] = rng.uniform(0.7, 0.95, 30)
    values = np.round(values, 2 if seed % 2 else 6)
    values[rng.random(size) < 0.2] = np.nan
    stream = values.tolist()
    stream[3] = None
    return stream


# Each id still ends in the null, now the exact one for every scheme.
KINDS = pytest.mark.parametrize(
    "kind", list(SchemeKind), ids=lambda kind: f"{kind.value}-permutation"
)


class TestRun:
    @KINDS
    @pytest.mark.parametrize("seed", [1, 2])
    def test_run_equals_the_ingest_act_loop(self, kind, seed):
        stream = run_stream(seed)
        looped = feed(DriftAgent(scheme_config(kind)), stream)
        for head in (0, 5):
            # A partly filled window from ingest() carries into run().
            agent = DriftAgent(scheme_config(kind))
            feed(agent, stream[:head])
            agent.run(np.asarray(stream[head:], dtype=np.float64))
            assert agent_state(agent) == agent_state(looped)
        listed = DriftAgent(scheme_config(kind))
        listed.run(stream)
        assert agent_state(listed) == agent_state(looped)
        assert any(v.evaluated for v in looped.verdicts)

    @KINDS
    @pytest.mark.parametrize("bad", [1.5, -0.25, float("inf")])
    def test_invalid_value_mid_series_raises_after_the_same_verdicts(self, kind, bad):
        stream = run_stream(3, size=60)
        stream[45] = bad
        for values in (stream, np.asarray(stream, dtype=np.float64)):
            looped = DriftAgent(scheme_config(kind))
            with pytest.raises(ValueError) as looped_error:
                feed(looped, values)
            agent = DriftAgent(scheme_config(kind))
            with pytest.raises(ValueError) as error:
                agent.run(values)
            assert str(error.value) == str(looped_error.value)
            assert agent_state(agent) == agent_state(looped)
            assert looped.batch_index == 45 // 7

    def test_unconvertible_value_raises_float_error_before_any_window(self):
        stream = run_stream(4, size=60)
        stream[45] = "abc"
        looped = DriftAgent(scheme_config(SchemeKind.GLOBAL_REF))
        with pytest.raises(ValueError, match="could not convert") as looped_error:
            feed(looped, stream)
        agent = DriftAgent(scheme_config(SchemeKind.GLOBAL_REF))
        with pytest.raises(ValueError, match="could not convert") as error:
            agent.run(stream)
        assert str(error.value) == str(looped_error.value)
        assert agent_state(agent) == agent_state(DriftAgent(scheme_config(SchemeKind.GLOBAL_REF)))

    def test_series_that_is_not_1d_raises_before_any_window(self):
        agent = DriftAgent(scheme_config(SchemeKind.GLOBAL_REF))
        with pytest.raises(ValueError, match=r"^invalid-series: .*\(10, 7\)"):
            agent.run(np.full((10, 7), 0.5))
        assert agent_state(agent) == agent_state(DriftAgent(scheme_config(SchemeKind.GLOBAL_REF)))

    def test_fixed_reference_windows_take_one_kernel_call(self, monkeypatch):
        import driftnet.agent as agent_module

        calls = []
        batched = agent_module.permutation_pvalues
        monkeypatch.setattr(
            agent_module, "permutation_pvalues", lambda *a: calls.append(len(a[0])) or batched(*a)
        )
        agent = DriftAgent(scheme_config(SchemeKind.PROD_REF))
        agent.run(run_stream(1))
        assert agent.consumed_batch == 0
        assert calls == [sum(v.evaluated for v in agent.verdicts)]


def verdict_digest(verdicts):
    """sha256 of each verdict's (batch_index, n_valid, statistic, p_value,
    drift), floats as their exact hex."""
    rows = [
        (
            v.batch_index,
            v.n_valid,
            *(None if x is None else float(x).hex() for x in (v.statistic, v.p_value)),
            v.drift,
        )
        for v in verdicts
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# Verdicts of agents fed run_stream(3) one observation at a time, in
# windows of 5, recorded before ingest() and run() shared one window
# evaluator. Centralized and GlobalRef share scheme_config's global
# sample, so their digests agree. run_stream(3) is rounded to 2 decimals,
# so AdaptiveRef's values sit on or beside its 100 bin edges; its digest
# was recorded with each tested batch binned by its histogram's own rule.
# Recorded with numpy 2.4.6 and Python 3.11.7: NEP 19 does not promise
# identical Generator streams across numpy feature releases.
INGEST_DIGESTS = {
    "Centralized": "653035adb23698dee013b9910f2be6b1a559696c7ff559193a7d110f60ca2bae",
    "GlobalRef": "653035adb23698dee013b9910f2be6b1a559696c7ff559193a7d110f60ca2bae",
    "SiteRef": "f6a12cac6b6f949b9e789f10059cac2d047a2cdb7b9d0de9e2e5255fd0110335",
    "ProdRef": "930b8b32e4f31cbee39b3d8fb013b5f2d07eeb44ae845479f26d184d821f7efc",
    "AdaptiveRef": "c855d91ff29061a73242e16334398634589c59147f784e7423ddfb25b024a0e5",
}

FIXED_KINDS = [kind for kind in SchemeKind if kind is not SchemeKind.ADAPTIVE_REF]


class TestIngest:
    @KINDS
    def test_ingest_verdict_bytes_are_pinned(self, kind):
        agent = feed(DriftAgent(scheme_config(kind, window_size=5)), run_stream(3))
        assert verdict_digest(agent.verdicts) == INGEST_DIGESTS[kind.value]

    @pytest.mark.parametrize("kind", FIXED_KINDS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_each_window_equals_its_own_exact_test(self, kind, seed):
        stream = run_stream(seed)
        agent = feed(DriftAgent(scheme_config(kind, window_size=5)), stream)
        size = agent.config.window_size
        windows = np.asarray(stream[: agent.batch_index * size], dtype=np.float64)
        windows = windows.reshape(agent.batch_index, size)
        assert [v.batch_index for v in agent.verdicts] == [
            i for i in range(agent.batch_index) if i != agent.consumed_batch
        ]
        for verdict in agent.verdicts:
            window = windows[verdict.batch_index]
            valid = window[~np.isnan(window)]
            assert verdict.n_valid == valid.size
            assert verdict.evaluated == (valid.size >= agent.min_valid)
            if not verdict.evaluated:
                continue
            expected = permutation_pvalue(valid, agent.reference, agent.config.permutations)
            assert verdict.statistic.hex() == expected.statistic.hex()
            assert verdict.p_value.hex() == expected.p_value.hex()
            assert verdict.drift == (expected.p_value < agent.config.threshold)
        assert {v.evaluated for v in agent.verdicts} == {True, False}


class TestLazyGenerator:
    """`rng` is accepted and unused: both nulls are exact, so no agent draws."""

    def test_exact_null_builds_no_generator(self):
        agent = feed(DriftAgent(scheme_config(SchemeKind.SITE_REF), rng=5), run_stream(1))
        assert "rng" not in vars(agent)

    @pytest.mark.parametrize("kind", list(SchemeKind))
    def test_rng_changes_no_verdict(self, kind):
        # perfbench/run.py still builds its agents with an rng.
        for rng in (None, 5):
            agent = feed(DriftAgent(scheme_config(kind, window_size=5), rng=rng), run_stream(3))
            assert verdict_digest(agent.verdicts) == INGEST_DIGESTS[kind.value]
