"""Stylometric authorship verification and attribution toolkit."""

import os

# One BLAS thread unless the caller chose otherwise: the fits are small
# (tens to hundreds of rows), so threads cost more than they save, and a
# report does not then depend on the CPU count. This must run before
# numpy is first imported, through the submodules below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    Document,
    Segment,
    Token,
    load_annotations,
    load_corpus,
    normalize,
    read_word_list,
    segment,
    split_sentences,
    tokenize,
)
from .dro import DroConfig, extend, fit_profiles, oversample
from .errors import StylauthError
from .evaluation import LooReport, loo_pools, loo_run
from .experiments import (
    ablate,
    attribute_disputed,
    attribution_contingency,
    rank_similar,
    verify_disputed,
)
from .features import (
    FeatureBlock,
    FeatureConfig,
    FeatureSpace,
    Instance,
    cosine_similarity,
    fit_feature_space,
    vectorize,
)
from .learner import (
    TrainConfig,
    TrainedModel,
    explain,
    predict_proba,
    train_binary,
    train_multiclass,
    tune_C,
)
from .metrics import ContingencyTable, SoftContingencyTable, f1, macro_f1, soft_f1, vanilla_accuracy
from .pipeline import PipelineConfig, SegmentationConfig

__all__ = [
    "__version__",
    "Corpus",
    "Document",
    "Segment",
    "Token",
    "load_annotations",
    "load_corpus",
    "normalize",
    "read_word_list",
    "segment",
    "split_sentences",
    "tokenize",
    "DroConfig",
    "extend",
    "fit_profiles",
    "oversample",
    "StylauthError",
    "LooReport",
    "loo_pools",
    "loo_run",
    "ablate",
    "attribute_disputed",
    "attribution_contingency",
    "rank_similar",
    "verify_disputed",
    "FeatureBlock",
    "FeatureConfig",
    "FeatureSpace",
    "Instance",
    "cosine_similarity",
    "fit_feature_space",
    "vectorize",
    "TrainConfig",
    "TrainedModel",
    "explain",
    "predict_proba",
    "train_binary",
    "train_multiclass",
    "tune_C",
    "ContingencyTable",
    "SoftContingencyTable",
    "f1",
    "macro_f1",
    "soft_f1",
    "vanilla_accuracy",
    "PipelineConfig",
    "SegmentationConfig",
]
