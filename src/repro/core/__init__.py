"""PRESTO core: the paper's primary contribution.

The pieces map one-to-one onto the architecture of Figure 1:

* :mod:`repro.core.push` — the model-driven push protocol (proxy builds the
  model, sensor verifies readings against it, silence means "as predicted");
* :mod:`repro.core.cache` — the proxy's summary cache with progressive
  refinement;
* :mod:`repro.core.prediction` — the prediction engine (model fitting,
  temporal + spatial extrapolation, confidence);
* :mod:`repro.core.matching` — query–sensor matching (duty cycle, batching,
  compression tuned to query needs);
* :mod:`repro.core.sensor` / :mod:`repro.core.proxy` — the two active tiers;
* :mod:`repro.core.unified` — the temporally ordered view of detections
  across proxies;
* :mod:`repro.core.system` — the simulation harness that wires a whole
  deployment together and replays traces + query workloads;
* :mod:`repro.core.federation` — the multi-proxy cluster: sharding,
  directory-routed queries, replication and failover.
"""

from repro.core.cache import (
    CacheEntry,
    CacheSnapshot,
    EntrySource,
    SummaryCache,
)
from repro.core.config import FederationConfig, PrestoConfig
from repro.core.continuous import (
    ContinuousQuery,
    ContinuousQueryEngine,
    Notification,
    TriggerKind,
)
from repro.core.federation import (
    FederatedCell,
    FederatedReport,
    FederatedSystem,
    partition_sensors,
)
from repro.core.matching import QueryProfile, QuerySensorMatcher, SensorOperatingPoint
from repro.core.prediction import PredictionEngine
from repro.core.proxy import PrestoProxy
from repro.core.push import (
    ModelUpdate,
    ProxyModelTracker,
    PushDecision,
    SensorModelChecker,
)
from repro.core.queries import AnswerSource, QueryAnswer
from repro.core.sensor import PrestoSensor
from repro.core.system import PrestoCell, PrestoSystem, SystemReport

__all__ = [
    "PrestoConfig",
    "FederationConfig",
    "AnswerSource",
    "QueryAnswer",
    "CacheEntry",
    "CacheSnapshot",
    "EntrySource",
    "SummaryCache",
    "ContinuousQuery",
    "ContinuousQueryEngine",
    "Notification",
    "TriggerKind",
    "ModelUpdate",
    "ProxyModelTracker",
    "PushDecision",
    "SensorModelChecker",
    "PredictionEngine",
    "QueryProfile",
    "QuerySensorMatcher",
    "SensorOperatingPoint",
    "PrestoSensor",
    "PrestoProxy",
    "PrestoCell",
    "PrestoSystem",
    "SystemReport",
    "FederatedCell",
    "FederatedReport",
    "FederatedSystem",
    "partition_sensors",
]
