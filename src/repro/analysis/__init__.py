"""Determinism lint: AST-based reproducibility analysis for this repository.

Every comparison the benchmark/drift-gate edifice makes — serial vs
``--jobs N`` campaign rows, federation reports across partition
counts, pinned scenario outputs — is **byte-exact**.  One stray
``np.random.default_rng()`` fallback, ``time.time()`` call or unordered
``set`` iteration in a kernel path silently breaks that property, and it
surfaces later as a mysterious drift-gate failure instead of a review
comment.  This package catches those hazards statically:

* :mod:`repro.analysis.findings` — :class:`Finding` records and the
  ``# repro-lint: ignore[rule-id]`` suppression scanner;
* :mod:`repro.analysis.policy` — which files each rule applies to (the
  sanctioned seed-plumbing sites, CLI/bench exemptions, the
  determinism-critical module list);
* :mod:`repro.analysis.rules` — the rule registry and the determinism
  rules themselves;
* :mod:`repro.analysis.runner` — file discovery, parsing and rule
  dispatch (:func:`lint_paths`);
* :mod:`repro.analysis.reporters` — text and JSON output;
* :mod:`repro.analysis.runtime` — the double-run sanitizer: one pinned
  scenario executed under different ``PYTHONHASHSEED`` values and serial
  vs parallel jobs must serialize byte-identically.

Surfaced as the ``repro lint`` CLI subcommand (see :mod:`repro.cli`) and
run in CI next to ruff/mypy.
"""

from __future__ import annotations

from repro.analysis.findings import Finding, Suppressions
from repro.analysis.policy import LintPolicy
from repro.analysis.reporters import render_json, render_text
from repro.analysis.rules import RULES, Rule, all_rules
from repro.analysis.runner import LintResult, lint_paths

__all__ = [
    "RULES",
    "Finding",
    "LintPolicy",
    "LintResult",
    "Rule",
    "Suppressions",
    "all_rules",
    "lint_paths",
    "render_json",
    "render_text",
]
