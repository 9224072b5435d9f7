"""References for the five monitoring schemes.

A reference is the comparison target an agent tests its production
windows against: a read-only raw evaluation sample (Centralized,
GlobalRef, SiteRef), a read-only first production window (ProdRef), or,
for AdaptiveRef, an AdaptiveState whose histogram is blended between the
global reference and accumulated clean production batches.

AdaptiveRef's settings live in one frozen AdaptiveSettings, checked once
by the config field table; ReferenceSpec, SimConfig and every AdaptiveState
share that object. `adaptive_observe` takes drift from the batch's verdict.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, replace

import numpy as np

from .config import ConfigError, Setting, fields_to_dict, setting, shared, validate_fields
from .stats import Histogram, blend, build_histogram, _as_sample, _counts_below

__all__ = [
    "AdaptiveSettings",
    "AdaptiveState",
    "ReferenceSpec",
    "SchemeKind",
    "UPDATE_CONDITIONS",
    "adaptive_observe",
    "initial_adaptive_state",
    "make_reference",
]


class SchemeKind(str, enum.Enum):
    CENTRALIZED = "Centralized"
    GLOBAL_REF = "GlobalRef"
    SITE_REF = "SiteRef"
    PROD_REF = "ProdRef"
    ADAPTIVE_REF = "AdaptiveRef"


# "lower": absorb a clean batch only when its p-value fell below the last
# accepted one; "always": absorb every clean batch.
UPDATE_CONDITIONS = ("lower", "always")

# Histogram bin count, shared with SimConfig's campaign-wide `bins`.
BINS = Setting(int, ge=2)


@dataclass(frozen=True)
class AdaptiveSettings:
    """AdaptiveRef's update rule: the starting weight of the global
    histogram, its decay per accepted batch and floor, how many recent
    batches the site histogram keeps (None: all), and when a clean batch
    is absorbed."""

    global_weight: float = setting(1.0, float, ge=0.0, le=1.0)
    weight_decay: float = setting(0.1, float, ge=0.0, le=1.0)
    min_global_weight: float = setting(0.1, float, ge=0.0, le=1.0)
    center_window: int | None = setting(None, int, optional=True, ge=1)
    update_condition: str = setting("lower", str, choices=UPDATE_CONDITIONS)

    def __post_init__(self) -> None:
        validate_fields(self)
        if self.min_global_weight > self.global_weight:
            raise ConfigError(
                "min_global_weight",
                f"must be <= global_weight ({self.global_weight!r}), "
                f"got {self.min_global_weight!r}",
            )

    def to_dict(self) -> dict:
        return fields_to_dict(self)


@dataclass
class ReferenceSpec:
    """Everything needed to construct the reference for one agent."""

    kind: SchemeKind = setting(MISSING, SchemeKind)
    global_eval: np.ndarray | None = None
    site_eval: np.ndarray | None = None
    bins: int = shared(100, BINS)
    adaptive: AdaptiveSettings = setting(AdaptiveSettings(), AdaptiveSettings)

    def __post_init__(self) -> None:
        validate_fields(self)


@dataclass(frozen=True, eq=False)
class AdaptiveState:
    """State machine for the adaptive blended reference.

    `reference` is always the blend of `base` with the normalised
    accumulated center counts at the current `global_weight`, except
    before the first accepted batch, when it is `base` itself. `updates`
    counts the batches absorbed so far.
    """

    base: Histogram
    center_counts: np.ndarray
    global_weight: float
    reference: Histogram
    last_p_value: float
    settings: AdaptiveSettings
    recent_counts: tuple = ()
    updates: int = 0


def initial_adaptive_state(global_eval, spec: ReferenceSpec) -> AdaptiveState:
    base = build_histogram(global_eval, spec.bins)
    return AdaptiveState(
        base=base,
        center_counts=np.zeros(spec.bins, dtype=np.int64),
        global_weight=spec.adaptive.global_weight,
        reference=base,
        last_p_value=1.0,
        settings=spec.adaptive,
    )


def adaptive_observe(state: AdaptiveState, batch, p_value: float, drift: bool) -> AdaptiveState:
    """Controlled reference update after `batch` has been tested;
    `p_value` and `drift` are its verdict's, which alone decides drift.

    The reference absorbs a batch only when its verdict called it clean
    and, under the default "lower" condition, its p-value also dropped
    below the last accepted one. The global weight never increases.
    Returns the input state unchanged when no update applies, and
    otherwise a new state whose `updates` is one higher.
    """
    if drift:
        return state
    settings = state.settings
    if settings.update_condition == "lower" and not p_value < state.last_p_value:
        return state

    counts = np.diff(_counts_below(_as_sample(batch, "batch"), state.base.bin_count))
    if settings.center_window is not None:
        recent = (state.recent_counts + (counts,))[-settings.center_window:]
        center = np.sum(recent, axis=0, dtype=np.int64)
    else:
        recent = ()
        center = state.center_counts + counts
    weight = max(settings.min_global_weight, state.global_weight - settings.weight_decay)
    reference = blend(state.base, Histogram(center.astype(np.float64)), weight)
    return replace(
        state,
        center_counts=center,
        global_weight=weight,
        reference=reference,
        last_p_value=p_value,
        recent_counts=recent,
        updates=state.updates + 1,
    )


def _frozen(sample) -> np.ndarray:
    sample = np.array(_as_sample(sample, "reference"), copy=True)
    sample.setflags(write=False)
    return sample


def make_reference(spec: ReferenceSpec, first_prod_batch=None) -> np.ndarray | AdaptiveState | None:
    """Construct a scheme's reference, validating its inputs.

    A sample scheme gets a read-only copy of the sample it tests against:
    the global evaluation sample (Centralized, GlobalRef), the site's own
    (SiteRef) or the first usable production window (ProdRef; None until
    `first_prod_batch` is given). AdaptiveRef gets its initial
    AdaptiveState, which `adaptive_observe` replaces.
    """
    kind = spec.kind
    if kind is SchemeKind.ADAPTIVE_REF:
        if spec.global_eval is None or np.size(spec.global_eval) == 0:
            raise ValueError("scheme-inputs-missing: AdaptiveRef needs a global evaluation sample")
        return initial_adaptive_state(spec.global_eval, spec)
    if kind is SchemeKind.PROD_REF and first_prod_batch is None:
        return None
    sample = {
        SchemeKind.SITE_REF: spec.site_eval,
        SchemeKind.PROD_REF: first_prod_batch,
    }.get(kind, spec.global_eval)
    if sample is None or np.size(sample) < 2:
        raise ValueError(
            f"scheme-inputs-missing: {kind.value} needs a reference sample with >= 2 observations"
        )
    return _frozen(sample)
