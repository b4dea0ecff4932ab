"""Property tests: sharding is invisible in the sweep's output.

For any generated corpus, any shard count and any shard *completion
order*, the union of the shard runs of one sweep — one engine, as
``sweep --shards`` runs them — equals the unsharded ``match_all`` on
every run-invariant field.  The corpora
come from the BioModels-like generator so the property is exercised
on the component mix the engine actually faces (overlapping species
pools, mixed kinetics, rules, events), not just toy models.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.match_all import MatchMatrix, _Sweep, match_all
from repro.core.shards import enumerate_pairs, partition_pairs
from repro.corpus.biomodels_like import generate_model


def _corpus(seed: int, count: int):
    """A small deterministic corpus from the BioModels-like generator
    (node counts kept small so hundreds of examples stay fast)."""
    rng = np.random.default_rng(seed)
    return [
        generate_model(index, int(rng.integers(0, 9)), rng)
        for index in range(count)
    ]


@st.composite
def shard_runs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**20))
    count = draw(st.integers(min_value=1, max_value=6))
    shard_count = draw(st.integers(min_value=1, max_value=7))
    order = draw(st.permutations(list(range(shard_count))))
    include_self = draw(st.booleans())
    return seed, count, shard_count, order, include_self


@given(shard_runs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_shard_union_equals_match_all(run):
    seed, count, shard_count, order, include_self = run
    models = _corpus(seed, count)
    reference = match_all(models, include_self=include_self)
    sweep = _Sweep(models, None, 1, False)
    shards = partition_pairs(
        sweep.sizes, shard_count, include_self=include_self
    )
    parts = [
        sweep.run(shards[shard_id].pairs)
        for shard_id in order  # completion order must not matter
    ]
    merged = MatchMatrix.union(parts)
    assert [o.key() for o in merged.outcomes] == [
        o.key() for o in reference.outcomes
    ]


@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=500), min_size=0, max_size=40
    ),
    shard_count=st.integers(min_value=1, max_value=7),
    include_self=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_partition_is_exact_cover(sizes, shard_count, include_self):
    """Every pair lands in exactly one shard, whatever the sizes."""
    shards = partition_pairs(sizes, shard_count, include_self=include_self)
    assert len(shards) == shard_count
    union = [pair for shard in shards for pair in shard.pairs]
    assert sorted(union) == enumerate_pairs(len(sizes), include_self)
    assert len(union) == len(set(union))
