"""The paper's contribution: formal impact analysis of stealthy topology
poisoning attacks on Optimal Power Flow.

* :mod:`repro.core.encoding` — SMT encodings of the attack model
  (paper Eqs. 7-29) and the OPF model (Eqs. 30-36),
* :mod:`repro.core.session` — :class:`ImpactQuery` (the question both
  analyzers answer) and the analysis lifecycle they share,
* :mod:`repro.core.framework` — the Fig.-2 verification loop,
* :mod:`repro.core.fast` — the LODF/LCDF-based scalable analyzer
  (Section IV-A),
* :mod:`repro.core.results` — reports and rendering.
"""

from repro.core.encoding import (
    AttackEncodingConfig,
    AttackModelEncoding,
    AttackVectorSolution,
    OpfModelEncoding,
)
from repro.core.fast import FastImpactAnalyzer
from repro.core.framework import ImpactAnalyzer
from repro.core.results import (
    AnalysisTrace,
    CandidateEvaluation,
    ImpactReport,
)
from repro.core.session import ImpactQuery

__all__ = [
    "AnalysisTrace",
    "AttackEncodingConfig",
    "AttackModelEncoding",
    "AttackVectorSolution",
    "CandidateEvaluation",
    "FastImpactAnalyzer",
    "ImpactAnalyzer",
    "ImpactQuery",
    "ImpactReport",
    "OpfModelEncoding",
]
