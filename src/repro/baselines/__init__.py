"""Baseline architectures and transmission strategies.

Two kinds of baseline live here:

* **Transmission strategies** (:mod:`repro.baselines.strategies`) — the four
  curves of the paper's Figure 2: batched push with/without wavelet
  compression and value-driven push at Δ=1/Δ=2.  These are trace-driven
  calculations over the same energy primitives the DES uses.
* **Architectures** (:mod:`repro.baselines.direct`,
  :mod:`repro.baselines.streaming`, :mod:`repro.baselines.bbq`,
  :mod:`repro.baselines.value_push`) — one runnable system per row of the
  paper's Table 1 (Directed Diffusion, Cougar, TinyDB/BBQ, Aurora/Medusa),
  all simulated on the same substrate as PRESTO so the comparison table can
  be regenerated quantitatively.
"""

from repro.baselines.bbq import BbqArchitecture
from repro.baselines.common import BaselineReport
from repro.baselines.direct import DirectQueryingArchitecture
from repro.baselines.strategies import (
    StrategyResult,
    batched_push_energy,
    value_driven_push_energy,
)
from repro.baselines.streaming import StreamingArchitecture
from repro.baselines.value_push import ValuePushArchitecture

__all__ = [
    "StrategyResult",
    "batched_push_energy",
    "value_driven_push_energy",
    "BaselineReport",
    "DirectQueryingArchitecture",
    "StreamingArchitecture",
    "BbqArchitecture",
    "ValuePushArchitecture",
]
