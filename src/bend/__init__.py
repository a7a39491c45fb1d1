"""Test-time debiasing of text-query embeddings against labeled reference
images, plus retrieval-bias evaluation over precomputed vectors."""

from .dataset import SplitSpec, read_dataset, split_reference_target, write_dataset

__version__ = "0.1.0"
