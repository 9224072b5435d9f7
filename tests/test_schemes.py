"""Unit tests for scheme references and the adaptive update state machine."""

import numpy as np
import pytest

from driftnet.agent import AgentConfig, AgentId, DriftAgent
from driftnet.schemes import (
    AdaptiveSettings,
    AdaptiveState,
    ReferenceSpec,
    SchemeKind,
    adaptive_observe,
    initial_adaptive_state,
    make_reference,
)
from driftnet.stats import Histogram, blend, build_histogram, ks_vs_histogram


def global_spec(kind, bins=100, **adaptive):
    rng = np.random.default_rng(1)
    return ReferenceSpec(
        kind=kind, global_eval=rng.beta(2, 5, 300), bins=bins, adaptive=AdaptiveSettings(**adaptive)
    )


class TestSchemeKind:
    def test_enumeration_is_exhaustive(self):
        assert {k.value for k in SchemeKind} == {
            "Centralized",
            "GlobalRef",
            "SiteRef",
            "ProdRef",
            "AdaptiveRef",
        }

    def test_coerces_from_string(self):
        spec = ReferenceSpec(kind="GlobalRef", global_eval=np.array([0.1, 0.2]))
        assert spec.kind is SchemeKind.GLOBAL_REF


class TestReferenceSpecValidation:
    def test_weight_bounds(self):
        with pytest.raises(ValueError, match=r"^global_weight: "):
            global_spec(SchemeKind.ADAPTIVE_REF, global_weight=1.2)

    def test_min_weight_cannot_exceed_initial(self):
        with pytest.raises(ValueError, match=r"^min_global_weight: "):
            global_spec(SchemeKind.ADAPTIVE_REF, global_weight=0.3, min_global_weight=0.5)

    def test_center_window_positive(self):
        with pytest.raises(ValueError, match=r"^center_window: "):
            global_spec(SchemeKind.ADAPTIVE_REF, center_window=0)

    def test_update_condition_checked(self):
        with pytest.raises(ValueError, match=r"^update_condition: "):
            global_spec(SchemeKind.ADAPTIVE_REF, update_condition="sometimes")

    def test_kind_and_bins_name_their_field(self):
        with pytest.raises(ValueError, match=r"^kind: "):
            ReferenceSpec(kind="MagicRef")
        with pytest.raises(ValueError, match=r"^bins: "):
            ReferenceSpec(kind=SchemeKind.ADAPTIVE_REF, bins=1)
        with pytest.raises(ValueError, match=r"^adaptive\.weight_decay: "):
            ReferenceSpec(kind=SchemeKind.ADAPTIVE_REF, adaptive={"weight_decay": 2.0})

    def test_state_shares_the_spec_settings(self):
        spec = global_spec(SchemeKind.ADAPTIVE_REF, global_weight=0.7, min_global_weight=0.2)
        state = make_reference(spec)
        assert state.settings is spec.adaptive
        assert state.global_weight == 0.7


class TestMakeReference:
    def test_global_ref_is_pass_through(self):
        spec = global_spec(SchemeKind.GLOBAL_REF)
        reference = make_reference(spec)
        assert isinstance(reference, np.ndarray)
        assert np.array_equal(reference, spec.global_eval)

    def test_site_ref_uses_site_sample(self):
        site = np.array([0.2, 0.4, 0.6])
        spec = ReferenceSpec(kind=SchemeKind.SITE_REF, site_eval=site)
        assert np.array_equal(make_reference(spec), site)

    def test_site_ref_requires_site_sample(self):
        with pytest.raises(ValueError, match="scheme-inputs-missing"):
            make_reference(ReferenceSpec(kind=SchemeKind.SITE_REF))

    def test_centralized_requires_global_sample(self):
        with pytest.raises(ValueError, match="scheme-inputs-missing"):
            make_reference(ReferenceSpec(kind=SchemeKind.CENTRALIZED))

    def test_prod_ref_consumes_first_batch(self):
        batch = np.array([0.1, 0.3, 0.5])
        reference = make_reference(ReferenceSpec(kind=SchemeKind.PROD_REF), first_prod_batch=batch)
        assert np.array_equal(reference, batch)

    def test_prod_ref_requires_first_batch(self):
        # No reference until the first usable production window arrives.
        assert make_reference(ReferenceSpec(kind=SchemeKind.PROD_REF)) is None

    def test_each_kind_picks_its_own_sample(self):
        global_eval = np.array([0.1, 0.2, 0.3])
        site_eval = np.array([0.6, 0.7])
        batch = np.array([0.4, 0.5, 0.9, 0.95])
        expected = {
            SchemeKind.CENTRALIZED: global_eval,
            SchemeKind.GLOBAL_REF: global_eval,
            SchemeKind.SITE_REF: site_eval,
            SchemeKind.PROD_REF: batch,
        }
        for kind, sample in expected.items():
            spec = ReferenceSpec(kind=kind, global_eval=global_eval, site_eval=site_eval)
            assert np.array_equal(make_reference(spec, first_prod_batch=batch), sample)
        spec = ReferenceSpec(kind=SchemeKind.ADAPTIVE_REF, global_eval=global_eval, site_eval=site_eval)
        state = make_reference(spec, first_prod_batch=batch)
        assert np.array_equal(state.base.mass, build_histogram(global_eval, spec.bins).mass)

    def test_prod_ref_rejects_single_observation_batch(self):
        with pytest.raises(ValueError, match="scheme-inputs-missing"):
            make_reference(
                ReferenceSpec(kind=SchemeKind.PROD_REF), first_prod_batch=np.array([0.5])
            )

    def test_reference_sample_is_frozen(self):
        spec = global_spec(SchemeKind.GLOBAL_REF)
        reference = make_reference(spec)
        with pytest.raises(ValueError):
            reference[0] = 0.0

    def test_adaptive_initial_reference_is_global_histogram(self):
        spec = global_spec(SchemeKind.ADAPTIVE_REF, bins=50)
        state = make_reference(spec)
        assert isinstance(state, AdaptiveState)
        expected = build_histogram(spec.global_eval, 50)
        assert np.array_equal(state.reference.mass, expected.mass)

    def test_adaptive_requires_global_sample(self):
        with pytest.raises(ValueError, match="scheme-inputs-missing"):
            make_reference(ReferenceSpec(kind=SchemeKind.ADAPTIVE_REF))


class TestAdaptiveObserve:
    def make_state(self, **kwargs):
        spec = global_spec(SchemeKind.ADAPTIVE_REF, bins=20, **kwargs)
        return initial_adaptive_state(spec.global_eval, spec)

    def test_drift_positive_batch_never_updates(self):
        state = self.make_state()
        batch = np.random.default_rng(2).random(30)
        out = adaptive_observe(state, batch, 0.01, drift=True)
        assert out is state

    def test_first_clean_batch_updates_and_decays(self):
        state = self.make_state()
        batch = np.random.default_rng(3).beta(2, 5, 30)
        out = adaptive_observe(state, batch, 0.6, drift=False)
        assert out is not state
        assert out.global_weight == pytest.approx(0.9)
        assert out.last_p_value == 0.6
        assert out.center_counts.sum() == 30
        assert (state.updates, out.updates) == (0, 1)

    def test_update_requires_lower_p_than_last_accepted(self):
        state = self.make_state()
        batch = np.random.default_rng(4).beta(2, 5, 30)
        first = adaptive_observe(state, batch, 0.8, drift=False)
        assert first is not state
        second = adaptive_observe(first, batch, 0.9, drift=False)
        assert second is first
        third = adaptive_observe(first, batch, 0.7, drift=False)
        assert third is not first
        assert third.global_weight == pytest.approx(0.8)
        assert third.updates == 2

    def test_reference_equals_blend_identity(self):
        state = self.make_state()
        rng = np.random.default_rng(5)
        for step in range(6):
            batch = rng.beta(2, 5, 40)
            p = 0.9 - 0.1 * step
            state = adaptive_observe(state, batch, p, drift=p < 0.05)
            center = Histogram(state.center_counts.astype(np.float64))
            expected = blend(state.base, center, state.global_weight)
            assert np.allclose(state.reference.mass, expected.mass, atol=1e-9)

    def test_weight_floors_at_minimum(self):
        state = self.make_state(global_weight=1.0, weight_decay=0.4, min_global_weight=0.3)
        rng = np.random.default_rng(6)
        p = 0.99
        for _ in range(5):
            p -= 0.1
            state = adaptive_observe(state, rng.beta(2, 5, 25), p, drift=p < 0.05)
        assert state.global_weight == pytest.approx(0.3)

    def test_weight_never_increases(self):
        state = self.make_state()
        rng = np.random.default_rng(7)
        weights = [state.global_weight]
        p_values = rng.random(40)
        for p in p_values.tolist():
            state = adaptive_observe(state, rng.beta(2, 5, 20), p, drift=p < 0.05)
            weights.append(state.global_weight)
        assert all(b <= a for a, b in zip(weights, weights[1:]))

    def test_always_when_clean_ignores_direction(self):
        state = self.make_state(update_condition="always")
        batch = np.random.default_rng(8).beta(2, 5, 30)
        first = adaptive_observe(state, batch, 0.5, drift=False)
        second = adaptive_observe(first, batch, 0.9, drift=False)
        assert second is not first
        third = adaptive_observe(second, batch, 0.01, drift=True)
        assert third is second

    def test_center_window_keeps_recent_batches_only(self):
        state = self.make_state(center_window=2)
        low = np.full(30, 0.1)
        high = np.full(30, 0.9)
        p = 0.9
        for batch in (low, low, high, high):
            p -= 0.1
            state = adaptive_observe(state, batch, p, drift=p < 0.05)
        # Only the last two (high) batches should remain in the center.
        assert state.center_counts.sum() == 60
        assert state.center_counts[:10].sum() == 0
        assert state.center_counts[10:].sum() == 60

    def test_untested_window_leaves_the_reference(self):
        # A window below min_valid has no verdict to update on: the agent
        # keeps its state object, whose update count stays as it was.
        spec = global_spec(SchemeKind.ADAPTIVE_REF, bins=20, update_condition="always")
        config = AgentConfig(AgentId("DS-0", "model-0"), spec, window_size=10, min_valid=5)
        agent = DriftAgent(config)
        agent.run(np.random.default_rng(9).beta(2, 5, 10))
        state = agent.reference
        assert state.updates == 1
        agent.run([0.3, 0.4, 0.5, 0.6] + [None] * 6)
        assert not agent.verdicts[-1].evaluated
        assert agent.reference is state
        assert state.updates == 1


class TestBinningRule:
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_match_numpy_histogram(self, seed):
        # np.histogram is the independent reference for the counts of a
        # reference histogram and of an AdaptiveRef update. The values sit
        # on the bin edges, one float either side of them, on k / bins
        # (which can miss an edge by an ulp), on 1-3 decimals, anywhere,
        # and at 0 and 1.
        rng = np.random.default_rng(seed)
        for _ in range(250):
            bins = int(rng.integers(2, 300))
            on_edge = rng.choice(np.linspace(0.0, 1.0, bins + 1), 8)
            pool = np.concatenate((
                on_edge,
                np.nextafter(on_edge, 0.0),
                np.nextafter(on_edge, 1.0),
                rng.integers(0, bins + 1, 8) / bins,
                np.round(rng.random(8), int(rng.integers(1, 4))),
                rng.random(8),
                [0.0, 1.0],
            ))
            sample = rng.choice(pool, int(rng.integers(1, 60)))
            expected, _ = np.histogram(sample, bins=bins, range=(0.0, 1.0))
            spec = ReferenceSpec(kind=SchemeKind.ADAPTIVE_REF, global_eval=sample, bins=bins)
            state = initial_adaptive_state(sample, spec)
            assert state.base.mass.tobytes() == Histogram(expected.astype(np.float64)).mass.tobytes()
            updated = adaptive_observe(state, sample, 0.5, drift=False)
            assert updated.center_counts.tolist() == expected.tolist()
            if sample.size >= 2:
                # The tested batch is binned by the same rule: against its own
                # histogram it scores 0, up to the rounding of the mass.
                res = ks_vs_histogram(sample, state.base, permutations=1000)
                assert res.statistic <= 1e-12 and res.p_value == 1.0


class TestAdaptiveReference:
    def test_observe_reports_update(self):
        spec = global_spec(SchemeKind.ADAPTIVE_REF, bins=20)
        state = make_reference(spec)
        batch = np.random.default_rng(10).beta(2, 5, 30)
        # An update is a new state; no update hands back the same object.
        updated = adaptive_observe(state, batch, 0.6, drift=False)
        assert updated is not state
        assert updated.reference is not state.reference
        assert adaptive_observe(updated, batch, 0.01, drift=True) is updated
