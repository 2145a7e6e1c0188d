"""Memory of the train, classify and sweep commands, as traced bytes a pair.

Each command runs in-process through cli.main on seeded census files of two
sizes, under both label policies, with tracemalloc tracing. numpy reports its
buffers to tracemalloc, so the traced peak counts the per-pair arrays, and it
does not count what the allocator keeps, which makes peak RSS move between runs
of the same code. The pairs are the n_a x n_b records asked of datagen.

A change that lowers a command's memory lowers its bound here too.
"""

from __future__ import annotations

import tracemalloc

import pytest

from electre_linkage.cli import main
from electre_linkage.datagen import generate_pair_files

SIZES = ((400, 300), (800, 600))
POLICIES = ("two_class", "banded")
COMMANDS = ("train", "classify", "sweep")

# the largest traced peak of the two policies, in bytes a pair, and about 10% more
BOUNDS = {
    (400, "train"): 27, (400, "classify"): 43, (400, "sweep"): 26,
    (800, "train"): 21, (800, "classify"): 19, (800, "sweep"): 20,
}


def traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        code = main([str(arg) for arg in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.fixture(scope="module")
def bytes_per_pair(tmp_path_factory):
    """{(n_a, policy, command): traced peak / (n_a * n_b)}; classify and sweep use the
    model train wrote from the same files."""
    root = tmp_path_factory.mktemp("memory")
    peaks = {}
    for na, nb in SIZES:
        a, b = root / f"a{na}.csv", root / f"b{na}.csv"
        generate_pair_files(a, b, n_a=na, n_b=nb, n_links=3 * nb // 4, seed=12)
        for policy in POLICIES:
            out = root / f"{policy}{na}"
            base = ["--dataset-a", a, "--dataset-b", b, "--output-dir", out,
                    "--label-policy", policy]
            model = ["--model", out / "electre_model.json"]
            for command, extra in zip(COMMANDS, ([], model, model)):
                peaks[na, policy, command] = traced_peak([command, *base, *extra]) / (na * nb)
    return peaks


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("na", [na for na, _ in SIZES])
def test_traced_bytes_per_pair_within_bound(bytes_per_pair, na, policy, command):
    assert bytes_per_pair[na, policy, command] <= BOUNDS[na, command]


def test_growth_with_the_pairs_is_recorded(bytes_per_pair, record_property):
    """Four times the pairs: the ratio of the traced peaks, recorded without a bound."""
    (small, _), (large, _) = SIZES
    for policy in POLICIES:
        for command in COMMANDS:
            ratio = (bytes_per_pair[large, policy, command] * 4
                     / bytes_per_pair[small, policy, command])
            record_property(f"{policy} {command} peak ratio", round(ratio, 2))
