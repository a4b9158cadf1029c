"""Asymmetric BPE segmentation toolkit.

Subword tokenization with independent source/target merge-operation counts,
plus the surrounding experimental machinery: stratified corpus sampling,
CHRF++ evaluation with paired significance testing, and sweep orchestration
over configuration grids.
"""

__version__ = "0.1.0"

from .bpe import MergeRule, MergeTable, learn_bpe, unsegment
from .chrf import corpus_chrf, paired_significance
from .sampler import bin_histogram, draw_sample, make_sample_plan
from .sweep import BpeConfig, enumerate_grid, recommend, tier_report

__all__ = [
    "MergeRule", "MergeTable", "learn_bpe", "unsegment",
    "corpus_chrf", "paired_significance",
    "bin_histogram", "draw_sample", "make_sample_plan",
    "BpeConfig", "enumerate_grid", "recommend", "tier_report",
    "__version__",
]
