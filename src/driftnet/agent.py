"""Drift monitoring agent: buffer windows, test, record, act.

One agent watches one output stream for one (center, model) pair. It
consumes observations one at a time or a whole series at once, cuts
them into fixed, non-overlapping windows, tests each window against its
scheme's reference, and reacts to drift verdicts through registered
hooks. Every window is tested under an exact null. Both entry points
hand their complete windows to one evaluator, which tests windows
against a fixed reference in one kernel call, however many there are,
and AdaptiveRef's windows one at a time, each followed by its update.

AgentConfig declares its checks in the config field table, so a bad
window, threshold, permutations or min_valid value raises a ConfigError
naming the field at construction, as a bad JSON config does.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import MISSING, dataclass

import numpy as np

from . import schemes
from .config import ConfigError, Setting, setting, shared, validate_fields
from .schemes import AdaptiveState, ReferenceSpec, make_reference
# Uncalled here: perfbench/tracing.py patches driftnet.agent.permutation_pvalue.
from .stats import permutation_pvalue  # noqa: F401
from .stats import ks_vs_histogram, permutation_pvalues

__all__ = [
    "AgentConfig",
    "AgentId",
    "DriftAgent",
    "DriftVerdict",
    "logging_hook",
    "webhook_hook",
]

logger = logging.getLogger(__name__)

# Checks shared with SimConfig, which configures every agent of a campaign.
THRESHOLD = Setting(float, gt=0.0, lt=1.0)
PERMUTATIONS = Setting(int, ge=100)


@dataclass(frozen=True)
class AgentId:
    center: str
    model: str

    def __str__(self) -> str:
        return f"{self.center}/{self.model}"


@dataclass
class AgentConfig:
    """One agent's settings. `min_valid` (valid observations a window
    needs to be tested) defaults to max(2, window_size // 2)."""

    agent_id: AgentId
    scheme: ReferenceSpec
    window_size: int = setting(MISSING, int, ge=2)
    threshold: float = shared(0.05, THRESHOLD)
    permutations: int = shared(1000, PERMUTATIONS)
    min_valid: int | None = setting(None, int, optional=True, ge=2)

    def __post_init__(self) -> None:
        validate_fields(self)
        if self.min_valid is not None and self.min_valid > self.window_size:
            # Such an agent would never test a window.
            raise ConfigError(
                "min_valid",
                f"must be <= window_size ({self.window_size}), got {self.min_valid}",
            )


@dataclass(frozen=True)
class DriftVerdict:
    """One completed window's outcome. An unevaluated window has no test and no p-value."""

    agent_id: AgentId
    batch_index: int
    statistic: float | None
    p_value: float | None
    drift: bool
    n_valid: int

    @property
    def evaluated(self) -> bool:
        return self.p_value is not None

    def alert(self) -> dict:
        """The record a drift hook receives for this verdict, less its timestamp."""
        return {
            "agent_id": str(self.agent_id),
            "batch_index": self.batch_index,
            "p_value": self.p_value,
            "drift": True,
        }


def logging_hook(record: dict) -> None:
    logger.info(
        "drift detected agent=%s batch=%s p=%s",
        record.get("agent_id"),
        record.get("batch_index"),
        record.get("p_value"),
    )


def webhook_hook(url: str, timeout: float = 2.0):
    """JSON POST of drift records to an HTTP endpoint, for a deployed agent.
    Each POST blocks the `act` that fired it, for up to `timeout` seconds
    per socket operation; `run_grid` logs simulated agents' alerts instead."""

    # Imported here: urllib.request loads http.client, ssl and email, which
    # nothing else needs, and every worker process imports this module.
    import json
    import urllib.request

    def hook(record: dict) -> None:
        payload = json.dumps(record).encode("utf-8")
        request = urllib.request.Request(
            url, data=payload, headers={"Content-Type": "application/json"}
        )
        urllib.request.urlopen(request, timeout=timeout).close()

    return hook


class DriftAgent:
    """Windowed drift monitor for a single output stream.

    Lifecycle: construct with a validated config, feed observations
    through ingest() (a verdict appears when a window completes), then
    pass each verdict to act() to record it and fire drift hooks. run()
    does both for a whole series. Either way the complete windows go
    through one evaluator, which also applies AdaptiveRef's controlled
    reference update, so the verdicts depend on the observations alone.

    `reference` is the read-only sample a window is tested against, or
    for AdaptiveRef the current AdaptiveState; ProdRef holds None until
    it freezes its first window with 2 valid values. Both nulls are
    exact, so the agent draws nothing: `rng` is unused, kept because
    perfbench/run.py passes it.

    The agent reads `window_size` and `min_valid` from its config once, at
    construction.
    """

    def __init__(self, config: AgentConfig, rng=None, hooks=()) -> None:
        self.config = config
        self.window_size = config.window_size
        self.min_valid = (
            max(2, config.window_size // 2) if config.min_valid is None else config.min_valid
        )
        self.hooks = list(hooks)
        self.batch_index = 0
        self.verdicts: list[DriftVerdict] = []
        self.hook_failures: list[tuple[int, str]] = []
        self.adaptive_trace: list[dict] = []
        self.consumed_batch: int | None = None
        self._buffer: list[float] = []
        self.reference = make_reference(config.scheme)

    def ingest(self, observation) -> DriftVerdict | None:
        """Add one observation; return a verdict when a window completes.

        Nulls (None or NaN) occupy a window slot but are excluded from
        the tested sample. Returns None while the window is still filling
        and for the window a ProdRef agent consumes as its reference.
        """
        value = math.nan if observation is None else float(observation)
        if value < 0.0 or value > 1.0:  # NaN, a null slot, fails both tests
            raise ValueError(f"invalid-probability: {observation!r} outside [0, 1]")
        self._buffer.append(value)
        if len(self._buffer) < self.window_size:
            return None
        window = np.asarray(self._buffer, dtype=np.float64)
        self._buffer = []
        return next(iter(self._verdicts(window[None])), None)

    def run(self, values) -> None:
        """Ingest a 1-D series and act on each verdict in order: the same
        verdicts, state and errors as ingest() and act() called on each
        observation in turn. A series numpy cannot read as floats, or one
        that is not 1-D, raises before any window is tested."""
        series = np.asarray(values, dtype=np.float64)
        if series.ndim != 1:
            raise ValueError(f"invalid-series: expected a 1-D series, got shape {series.shape}")
        # NaN, a null slot, fails both tests.
        invalid = np.flatnonzero((series < 0.0) | (series > 1.0))
        stop = int(invalid[0]) if invalid.size else series.size
        slots = np.concatenate((self._buffer, series[:stop]))
        size = self.window_size
        count = slots.size // size
        self._buffer = slots[count * size :].tolist()
        for verdict in self._verdicts(slots[: count * size].reshape(count, size)):
            self.act(verdict)
        if invalid.size:
            self.ingest(values[stop])  # raises ingest's error for this observation

    def _verdicts(self, windows: np.ndarray) -> list[DriftVerdict]:
        """The verdicts of consecutive complete windows, in order.

        AdaptiveRef tests its windows one at a time, each against the
        reference its predecessors' updates left. Against a fixed sample,
        every window from the first one tested on goes into one
        `permutation_pvalues` call.
        """
        samples = [window[~np.isnan(window)] for window in windows]
        verdicts = []
        for done, valid in enumerate(samples):
            index = self.batch_index
            self.batch_index += 1
            reference = self.reference
            if reference is None and valid.size >= 2:
                # ProdRef seeding: the first window with 2 valid values, even below
                # min_valid, becomes the frozen reference and is never evaluated.
                self.reference = make_reference(self.config.scheme, first_prod_batch=valid)
                self.consumed_batch = index
            elif reference is None or valid.size < self.min_valid:
                verdicts.append(self._verdict(index, valid.size, None))
            elif isinstance(reference, AdaptiveState):
                result = ks_vs_histogram(valid, reference.reference, self.config.permutations)
                verdict = self._verdict(index, valid.size, result)
                # Through the module, so that a wrapper installed on
                # schemes.adaptive_observe sees every update.
                self.reference = schemes.adaptive_observe(
                    reference, valid, verdict.p_value, self.config.threshold
                )
                self.adaptive_trace.append(
                    {
                        "batch_index": index,
                        "p_value": verdict.p_value,
                        "drift": verdict.drift,
                        "updated": self.reference is not reference,
                        "global_weight": self.reference.global_weight,
                    }
                )
                verdicts.append(verdict)
            else:
                rest = samples[done:]
                self.batch_index = index + len(rest)
                tested = [sample for sample in rest if sample.size >= self.min_valid]
                results = iter(permutation_pvalues(tested, reference, self.config.permutations))
                for i, sample in enumerate(rest, start=index):
                    result = next(results) if sample.size >= self.min_valid else None
                    verdicts.append(self._verdict(i, sample.size, result))
                break
        return verdicts

    def _verdict(self, index: int, n_valid: int, result) -> DriftVerdict:
        """Batch `index`'s verdict; without a test result it is unevaluated."""
        return DriftVerdict(
            agent_id=self.config.agent_id,
            batch_index=index,
            statistic=None if result is None else result.statistic,
            p_value=None if result is None else result.p_value,
            drift=result is not None and result.p_value < self.config.threshold,
            n_valid=int(n_valid),
        )

    def act(self, verdict: DriftVerdict) -> None:
        """Record a verdict and fire drift hooks.

        Hook failures are recorded and logged, never raised: monitoring
        must outlive a broken sink.
        """
        if verdict.agent_id != self.config.agent_id:
            raise ValueError(
                f"foreign-verdict: {verdict.agent_id} does not belong to {self.config.agent_id}"
            )
        self.verdicts.append(verdict)
        if verdict.drift and self.hooks:
            record = dict(verdict.alert(), timestamp=time.time())
            for hook in self.hooks:
                try:
                    hook(record)
                except Exception as exc:
                    self.hook_failures.append((verdict.batch_index, repr(exc)))
                    logger.warning(
                        "action hook failed for agent=%s batch=%d: %r",
                        verdict.agent_id,
                        verdict.batch_index,
                        exc,
                    )
