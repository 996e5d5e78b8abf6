"""Simulated task-oriented dialogue environments and baseline RL policies.

The package bundles three slot-filling domains, an agenda-driven user
simulator, a configurable semantic error channel, a rule-based belief
tracker, a fixed summary action space and five dialogue policies, plus a
benchmark harness that produces learning curves and result tables.
"""

import os

# A threaded BLAS splits its sums by the thread count, so fixed seeds would
# give other bits on a machine with another core count.  One thread, unless
# the caller chose a count; this must run before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dialbench.domain import Ontology, generate_domain, query
from dialbench.environment import DialogueEnv, TaskConfig, list_tasks, make_task

__all__ = [
    "Ontology",
    "generate_domain",
    "query",
    "DialogueEnv",
    "TaskConfig",
    "list_tasks",
    "make_task",
]

__version__ = "0.1.0"
