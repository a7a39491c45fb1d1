"""The frozen end-to-end synthetic experiment shared by tests.

Generator seed, split seed, and augmentation noise were calibrated once and
pinned; every quantity downstream is deterministic.
"""

from bend.augment import GENDER
from bend.dataset import (
    SplitSpec,
    SynthCell,
    SynthQuerySpec,
    SynthSpec,
    split_reference_target,
    synth_generate,
    synth_query_rows,
)
from bend.pipeline import RunConfig, evaluate, parse_query_row

GENERATOR_SEED = 42
SPLIT_SEED = 13
AUG_NOISE = 0.3
BIAS = 0.8
NOISE = 0.05
DIM = 64
# three classes keep the per-fold retrieval pools barely above k, which pins
# the retrieved composition; totals are 2000 per attribute value
CLASS_COUNTS = (("c0", 668), ("c1", 666), ("c2", 666))


def acceptance_spec() -> SynthSpec:
    cells = []
    queries = []
    for name, count in CLASS_COUNTS:
        cells.append(SynthCell(name, "male", BIAS, count))
        cells.append(SynthCell(name, "female", -BIAS, count))
        queries.append(SynthQuerySpec(f"q-{name}", name, "male", aug_noise=AUG_NOISE))
    return SynthSpec(
        dim=DIM,
        seed=GENERATOR_SEED,
        noise=NOISE,
        space=GENDER,
        cells=tuple(cells),
        queries=tuple(queries),
    )


def acceptance_run_config() -> RunConfig:
    return RunConfig(
        attribute="gender",
        n=100,
        k=500,
        seed=SPLIT_SEED,
        fold_count=5,
    )


def run_acceptance_experiment() -> dict:
    spec = acceptance_spec()
    table = synth_generate(spec)
    reference, target = split_reference_target(
        table, SplitSpec(reference_fraction=0.5, fold_count=5, seed=SPLIT_SEED)
    )
    queries = [parse_query_row(row) for row in synth_query_rows(spec)]
    return evaluate(queries, reference, target, acceptance_run_config())
