"""Dataset substrate: synthetic generators and mini-batching.

The paper evaluates on six real datasets (US Census, ImageNet features,
Mnist8m, Kdd99, Rcv1, Deep1Billion).  Those datasets are not shipped here;
instead :mod:`repro.data.synthetic` generates matrices whose statistical
shape — dimensionality, sparsity, value-domain cardinality, and the amount
of column-sequence repetition across rows — matches each dataset profile
(see Table 5 of the paper and ``repro.data.registry``).
"""

from repro.data.minibatch import split_minibatches
from repro.data.registry import DATASET_PROFILES, DatasetProfile
from repro.data.synthetic import SyntheticConfig, make_classification, make_synthetic_matrix

__all__ = [
    "DATASET_PROFILES",
    "DatasetProfile",
    "SyntheticConfig",
    "make_classification",
    "make_synthetic_matrix",
    "split_minibatches",
]
