"""PRESTO: a predictive storage architecture for sensor networks.

Full reproduction of Desnoyers, Ganesan, Li, Li & Shenoy (HotOS X, 2005).

Top-level layout:

* :mod:`repro.core` — the paper's contribution (proxy, sensor, push
  protocol, query processing, ordered cross-proxy view, simulation
  harness);
* :mod:`repro.timeseries`, :mod:`repro.signal` — the modelling and
  signal-processing machinery the prediction engine uses;
* :mod:`repro.storage`, :mod:`repro.radio`, :mod:`repro.energy`,
  :mod:`repro.sync`, :mod:`repro.index`, :mod:`repro.simulation` — the
  substrates (flash archive, LPL MAC, energy accounting, clock sync, skip
  graph, event kernel);
* :mod:`repro.traces` — synthetic Intel-Lab-style traces and query
  workloads;
* :mod:`repro.baselines` — the Figure 2 strategies and one executable
  architecture per row of the paper's Table 1.

``python -m repro --help`` lists runnable experiment commands.
"""

__version__ = "1.0.0"
