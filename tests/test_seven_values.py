"""The paper's multi-valued audit end to end: a 7-value attribute, 3 classes.

Step 2 equalizes the query's mean similarity to each value's relevant
references. It keeps the class signal when the value groups' means differ
only along value directions, and removes it when they also differ along the
class direction, as on ``synth_generate``'s one-axis geometry.
"""

import numpy as np

from bend.augment import attribute_space
from bend.dataset import (
    LabeledEmbeddingTable,
    SplitSpec,
    SynthCell,
    SynthQuerySpec,
    SynthSpec,
    split_reference_target,
    synth_generate,
    synth_query_rows,
)
from bend.pipeline import RunConfig, evaluate, parse_query_row

VALUES = tuple(f"v{i}" for i in range(7))
RACE = attribute_space("race", VALUES)
CLASSES = 3
PER_CELL = 300
DIM = 64
CONFIG = RunConfig("race", n=50, k=200, seed=13)


def _evaluate(table, rows) -> dict:
    reference, target = split_reference_target(table, SplitSpec(0.5, 5, seed=13))
    return evaluate([parse_query_row(row) for row in rows], reference, target, CONFIG)


def _fold_values(report: dict, mode: str, metric: str) -> list[float]:
    return [fold[metric] for q in report["queries"] for fold in q["modes"][mode]["folds"]]


def test_full_lowers_kl_and_max_skew_and_keeps_auc_on_value_directions():
    """Each record is its class direction plus 0.8 times its value's own
    direction, all orthonormal, plus noise; query c aims at class c and value
    c and carries no bundled directions, so step 1 uses the reference means."""
    rng = np.random.default_rng(7)
    basis = np.linalg.qr(rng.standard_normal((DIM, DIM)))[0].T
    class_dirs, value_dirs = basis[:CLASSES], basis[CLASSES : CLASSES + len(VALUES)]
    blocks, labels, classes = [], [], []
    for c in range(CLASSES):
        for v, value in enumerate(VALUES):
            center = class_dirs[c] + 0.8 * value_dirs[v]
            blocks.append(center + 0.05 * rng.standard_normal((PER_CELL, DIM)))
            labels += [value] * PER_CELL
            classes += [f"c{c}"] * PER_CELL
    vectors = np.concatenate(blocks)
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    table = LabeledEmbeddingTable(
        rows=vectors,
        ids=tuple(f"r{i:05d}" for i in range(len(labels))),
        attributes={"race": tuple(labels)},
        classes=tuple(classes),
        spaces={"race": RACE},
    )
    rows = [
        {"id": f"q{c}", "class": f"c{c}", "vector": (class_dirs[c] + value_dirs[c]).tolist()}
        for c in range(CLASSES)
    ]
    report = _evaluate(table, rows)
    aggregates = report["aggregates"]
    base, full = aggregates["baseline"], aggregates["full"]
    assert base["kl"]["mean"] > 0.4
    assert full["kl"]["mean"] < base["kl"]["mean"] / 10
    assert full["max_skew"]["mean"] < base["max_skew"]["mean"] / 2
    assert min(_fold_values(report, "baseline", "worst_group_auc")) == 1.0
    assert min(_fold_values(report, "full", "worst_group_auc")) >= 0.99


def test_full_loses_the_class_on_the_one_axis_geometry():
    """Every value on one axis, biases 0.8 down to -0.8: after normalization
    the group means weigh the class direction differently, so equalizing
    them projects the class out and worst-group AUC collapses under ``full``;
    ``step2-only`` equalizes the unorthogonalized query and keeps most of it."""
    biases = np.linspace(0.8, -0.8, len(VALUES)).tolist()
    spec = SynthSpec(
        dim=DIM,
        seed=42,
        noise=0.05,
        space=RACE,
        cells=tuple(
            SynthCell(f"c{c}", value, bias, PER_CELL)
            for c in range(CLASSES)
            for value, bias in zip(VALUES, biases)
        ),
        queries=tuple(
            SynthQuerySpec(f"q{c}", f"c{c}", "v0", aug_noise=0.3) for c in range(CLASSES)
        ),
    )
    report = _evaluate(synth_generate(spec), synth_query_rows(spec))
    aggregates = report["aggregates"]
    assert aggregates["full"]["kl"]["mean"] < aggregates["baseline"]["kl"]["mean"] / 5
    assert aggregates["baseline"]["worst_group_auc"]["mean"] == 1.0
    assert aggregates["step2-only"]["worst_group_auc"]["mean"] > 0.9
    assert aggregates["full"]["worst_group_auc"]["mean"] < 0.5
    assert min(_fold_values(report, "full", "worst_group_auc")) < 0.1
