"""Agent-based output drift monitoring for multisite model deployments.

The package pairs a statistical kernel (two-sample and sample-vs-histogram
Kolmogorov-Smirnov tests with exact-null p-values) with per-site
monitoring agents, five reference schemes, severity scoring across agents,
and a deterministic simulation grid for evaluating all of it in silico.
"""

__version__ = "0.1.0"

from . import agent, config, metrics, schemes, severity, sim, stats
from .agent import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .schemes import *  # noqa: F401,F403
from .severity import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403
from .stats import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *agent.__all__,
    *config.__all__,
    *metrics.__all__,
    *schemes.__all__,
    *severity.__all__,
    *sim.__all__,
    *stats.__all__,
]
