"""Test-time debiasing of text-query embeddings against labeled reference
images, plus retrieval-bias evaluation over precomputed vectors."""

from .augment import (
    GENDER,
    AttributeSpace,
    AugmentedQuerySet,
    attribute_space,
    augment_query,
    external_augmenter,
    generic_prompts,
    mentions_attribute,
)
from .client import EmbeddingEndpoint, embed_text
from .dataset import (
    LabeledEmbeddingTable,
    SplitSpec,
    SynthCell,
    SynthQuerySpec,
    SynthSpec,
    load_synth_spec,
    make_folds,
    read_dataset,
    split_reference_target,
    synth_generate,
    synth_query_rows,
    write_dataset,
    write_query_rows,
)
from .equalize import (
    MODES,
    DebiasReport,
    EqualizationSolution,
    debias,
    solve_binary,
    solve_general,
)
from .errors import BendError
from .metrics import (
    group_distance_gap,
    empirical_distribution,
    kl_divergence,
    max_skew,
    worst_group_auc,
)
from .pipeline import QueryRow, RunConfig, evaluate, load_queries, resolve_space
from .reference_index import (
    ReferenceIndex,
    RelevantSubsets,
    Retrieved,
    build_index,
    retrieve_top_k,
    top_n_by_attribute,
)
from .subspace import AttributeMatrix, build_attribute_matrix, orthogonalize
from .vectors import (
    gram_schmidt,
    normalize,
    project_out,
)

__version__ = "0.1.0"
