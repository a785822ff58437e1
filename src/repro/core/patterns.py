"""Iterative memory-access-pattern detection.

The paper's first observation (Figure 2) is that training's memory behaviors
are *iterative*: every iteration issues (almost) the same sequence of
behaviors on (almost) the same blocks.  This module quantifies that claim:

* each iteration is reduced to a *signature* — the ordered sequence of
  ``(kind, size, category)`` tuples of its behaviors;
* pairwise similarity between iteration signatures is measured both as exact
  sequence similarity (ratio of the longest common prefix/suffix matching via
  difflib) and as a multiset Jaccard similarity (order-insensitive);
* a periodicity report states whether the trace is iterative (mean pairwise
  similarity above a threshold, by default 0.9) after discarding the first
  warm-up iteration (which additionally allocates parameters, gradients and
  optimizer state).
"""

from __future__ import annotations

import difflib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .trace import ACCESS_CODES, CATEGORY_FROM_CODE, KIND_FROM_CODE, MemoryTrace

Signature = Tuple[Tuple[str, int, str], ...]


@dataclass
class IterationSignature:
    """The behavior signature of one training iteration."""

    iteration: int
    signature: Signature
    event_count: int
    total_bytes_touched: int

    def multiset(self) -> Counter:
        """Order-insensitive view of the signature."""
        return Counter(self.signature)


@dataclass
class PatternReport:
    """Result of the iterative-pattern analysis."""

    signatures: List[IterationSignature]
    sequence_similarity: Dict[Tuple[int, int], float]
    jaccard_similarity: Dict[Tuple[int, int], float]
    mean_sequence_similarity: float
    mean_jaccard_similarity: float
    is_iterative: bool
    steady_state_start: int

    def summary(self) -> Dict[str, object]:
        """Compact summary used by reports and tests."""
        return {
            "num_iterations": len(self.signatures),
            "mean_sequence_similarity": self.mean_sequence_similarity,
            "mean_jaccard_similarity": self.mean_jaccard_similarity,
            "is_iterative": self.is_iterative,
            "steady_state_start": self.steady_state_start,
        }


def iteration_signature(trace: MemoryTrace, iteration: int) -> IterationSignature:
    """Build the behavior signature of one iteration (column-store selection).

    The per-iteration behaviors are selected with vectorized masks over
    :meth:`~repro.core.trace.MemoryTrace.columns`; only the final signature
    tuple is materialized in Python (it must be hashable for difflib).
    """
    cols = trace.columns()
    mask = cols.is_block_behavior & (cols.iteration == iteration)
    kinds = cols.kind_code[mask]
    sizes = cols.size[mask]
    categories = cols.category_code[mask]
    access_mask = np.isin(kinds, ACCESS_CODES)
    signature = tuple(zip((KIND_FROM_CODE[code].value for code in kinds),
                          sizes.tolist(),
                          (CATEGORY_FROM_CODE[code].value for code in categories)))
    return IterationSignature(
        iteration=iteration,
        signature=signature,
        event_count=int(kinds.size),
        total_bytes_touched=int(sizes[access_mask].sum()),
    )


def sequence_similarity(a: Signature, b: Signature) -> float:
    """Order-sensitive similarity of two signatures (difflib ratio in [0, 1])."""
    if not a and not b:
        return 1.0
    matcher = difflib.SequenceMatcher(a=a, b=b, autojunk=False)
    return matcher.ratio()


def jaccard_similarity(a: Signature, b: Signature) -> float:
    """Multiset Jaccard similarity of two signatures (order-insensitive)."""
    if not a and not b:
        return 1.0
    counter_a, counter_b = Counter(a), Counter(b)
    intersection = sum((counter_a & counter_b).values())
    union = sum((counter_a | counter_b).values())
    return intersection / union if union else 0.0


def detect_iterative_pattern(trace: MemoryTrace, skip_warmup: int = 1,
                             similarity_threshold: float = 0.9) -> PatternReport:
    """Quantify how iterative the trace's memory behaviors are.

    ``skip_warmup`` iterations at the start are excluded from the similarity
    statistics (but still reported in the signatures) because the first
    iteration also allocates parameters' gradients and optimizer state.
    """
    iterations = trace.iterations()
    signatures = [iteration_signature(trace, index) for index in iterations]
    steady = [sig for sig in signatures if sig.iteration >= skip_warmup]

    seq_sim: Dict[Tuple[int, int], float] = {}
    jac_sim: Dict[Tuple[int, int], float] = {}
    for i, first in enumerate(steady):
        for second in steady[i + 1:]:
            key = (first.iteration, second.iteration)
            seq_sim[key] = sequence_similarity(first.signature, second.signature)
            jac_sim[key] = jaccard_similarity(first.signature, second.signature)

    mean_seq = sum(seq_sim.values()) / len(seq_sim) if seq_sim else 1.0
    mean_jac = sum(jac_sim.values()) / len(jac_sim) if jac_sim else 1.0
    return PatternReport(
        signatures=signatures,
        sequence_similarity=seq_sim,
        jaccard_similarity=jac_sim,
        mean_sequence_similarity=mean_seq,
        mean_jaccard_similarity=mean_jac,
        is_iterative=mean_seq >= similarity_threshold,
        steady_state_start=skip_warmup,
    )
