"""The paper's headline as a bound: recall on links and on nonlinks, not accuracy.

At the paper's size (449 x 392 census records, 327 links) links are 0.19% of the
pairs, so a model that assigns every pair to C1 still scores about 0.998 accuracy.
Each seed runs the train and sweep commands' path: split the labeled pairs, calibrate
on the training half, and cut the test half at the chosen lambda (core.cut_counts).
The bounds are floors that catch a lost class, not the paper's 0.99; each seed's
recalls are recorded, so a change that moves them can be seen.
"""

import numpy as np
import pytest

from electre_linkage.calibration import calibrate
from electre_linkage.core import cut_counts
from electre_linkage.datagen import generate_pair_files
from electre_linkage.evaluation import split
from electre_linkage.ingest import census_schema, load_table, true_links
from electre_linkage.linkage import build_pairs, label_pairs

# two-class labels leave C2 without training pairs
pytestmark = pytest.mark.filterwarnings("ignore:category C2 has no training examples")

SEEDS = range(10)
NONLINK_RECALL = 0.9999  # on every seed
LINK_RECALL = 0.96  # on every seed
MEDIAN_LINK_RECALL = 0.985


def recalls(root, seed):
    """(nonlink recall, link recall) on the test half of one datagen seed, split seed 0."""
    a_path, b_path = root / f"a{seed}.csv", root / f"b{seed}.csv"
    generate_pair_files(a_path, b_path, n_a=449, n_b=392, n_links=327, seed=seed)
    schema = census_schema()
    a, _ = load_table(a_path, schema, "A")
    b, _ = load_table(b_path, schema, "B")
    train, test = split(label_pairs(build_pairs(a, b, schema), true_links(a, b)), 0.5, 0)
    model, _, _ = calibrate(train, criterion_names=schema.field_names)
    (counts,) = cut_counts(model, test.fields, test.labels, [model.cutting_level])
    return counts[1, 1] / counts[1].sum(), counts[3, 3] / counts[3].sum()


@pytest.fixture(scope="module")
def per_seed(tmp_path_factory):
    root = tmp_path_factory.mktemp("headline")
    return {seed: recalls(root, seed) for seed in SEEDS}


def test_both_classes_are_recalled_on_every_seed(per_seed, record_property):
    for seed, (nonlink, link) in per_seed.items():
        record_property(f"seed {seed} nonlink recall", round(float(nonlink), 6))
        record_property(f"seed {seed} link recall", round(float(link), 6))
    assert min(nonlink for nonlink, _ in per_seed.values()) >= NONLINK_RECALL
    assert min(link for _, link in per_seed.values()) >= LINK_RECALL


def test_median_link_recall(per_seed, record_property):
    median = float(np.median([link for _, link in per_seed.values()]))
    record_property("median link recall", round(median, 6))
    assert median >= MEDIAN_LINK_RECALL
