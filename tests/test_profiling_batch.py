"""Several layers measured as one runner batch.

* ``measure_layers`` gives bitwise what each layer measured alone gives:
  every zoo layer on the four plan targets, with duplicate counts, a
  repeated layer, partly memoised layers and a store that already holds
  some counts, under both noise seeds.
* A whole-model prune writes the same shard files as pruning one layer
  at a time, draws its noise in one ``noise_matrix`` call per batch,
  and reports the same outcome under a memo bound that evicts.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Target
from repro.core import PerformanceAwarePruner
from repro.core.pruner import uniform_keep
from repro.models import MODELS
from repro.profiling import ProfileRunner, ProfileStore
from repro.profiling import runner as runner_mod

#: The four targets of the whole-model pruning plan.
PLAN_TARGETS = (
    ("hikey-970", "acl-gemm"),
    ("hikey-970", "acl-direct"),
    ("hikey-970", "tvm"),
    ("jetson-tx2", "cudnn"),
)
NETWORKS = [MODELS.create(model) for model in ("resnet50", "vgg16", "alexnet")]
ZOO_LAYERS = list({
    network.conv_layer(index).spec: None
    for network in NETWORKS
    for index in network.conv_layer_indices
})


def make_runner(target, seed, store=None, bound=None):
    made = ProfileRunner.create(*target, runs=3, seed=seed)
    made.store = store
    if bound is not None:
        made.max_cache_entries = bound
    return made


def exact(sweep):
    """Every entry's fields with their types."""

    return [[(value, type(value)) for value in vars(m).values()] for m in sweep]


def alone(target, seed, layer, counts):
    """The layer measured on its own by a fresh runner: the reference bits."""

    return exact(make_runner(target, seed).measure_many(layer, counts))


def random_counts(rng, layer, most=6):
    counts = [rng.randint(1, layer.out_channels) for _ in range(rng.randint(1, most))]
    return counts + counts[:1]  # a duplicate count


def check_batch(tmp_path, target, seed, requests, memoised, stored, bound=None):
    path = tmp_path / "store"
    filler = make_runner(target, seed, ProfileStore(path))
    for layer, counts in stored:
        filler.measure_many(layer, counts)
    measuring = make_runner(target, seed, ProfileStore(path), bound)
    for layer, counts in memoised:
        measuring.measure_many(layer, counts)

    sweeps = measuring.measure_layers(requests)
    assert len(sweeps) == len(requests)
    for (layer, counts), sweep in zip(requests, sweeps):
        assert sweep.counts.tolist() == list(counts)
        assert exact(sweep) == alone(target, seed, layer, counts)
    if bound is not None:
        assert measuring.cache_size() <= bound


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("target", PLAN_TARGETS, ids="/".join)
def test_every_zoo_layer_in_one_batch_measures_as_alone(tmp_path, target, seed):
    rng = random.Random(f"{target}/{seed}")
    requests = [(layer, random_counts(rng, layer)) for layer in ZOO_LAYERS]
    requests.append((ZOO_LAYERS[0], random_counts(rng, ZOO_LAYERS[0])))  # a repeated layer
    requests.append((ZOO_LAYERS[1], []))
    memoised = [(layer, random_counts(rng, layer)) for layer in ZOO_LAYERS[::3]]
    stored = [(layer, random_counts(rng, layer)) for layer in ZOO_LAYERS[1::4]]
    check_batch(tmp_path, target, seed, requests, memoised, stored)


COUNT_LISTS = st.lists(st.integers(1, 64), max_size=8)
LAYER_PICKS = st.lists(st.tuples(st.integers(0, len(ZOO_LAYERS) - 1), COUNT_LISTS), max_size=5)


@settings(max_examples=30, deadline=None)
@given(
    target=st.sampled_from(PLAN_TARGETS),
    seed=st.sampled_from([0, 1]),
    requests=LAYER_PICKS,
    memoised=LAYER_PICKS,
    stored=LAYER_PICKS,
    bound=st.one_of(st.none(), st.integers(1, 40)),
)
def test_a_batch_measures_as_each_layer_alone(
    tmp_path_factory, target, seed, requests, memoised, stored, bound
):
    def resolve(picks):
        # Counts beyond a layer's size wrap into it.
        return [
            (ZOO_LAYERS[pick], [(count - 1) % ZOO_LAYERS[pick].out_channels + 1 for count in counts])
            for pick, counts in picks
        ]

    check_batch(
        tmp_path_factory.mktemp("batch"), target, seed,
        resolve(requests), resolve(memoised), resolve(stored), bound,
    )


def test_a_non_positive_count_measures_nothing():
    measuring = make_runner(PLAN_TARGETS[0], 0)
    with pytest.raises(ValueError, match="out_channels must be >= 1"):
        measuring.measure_layers([(ZOO_LAYERS[0], [4]), (ZOO_LAYERS[1], [0])])
    assert measuring.simulations == 0 and measuring.cache_size() == 0


def per_layer_prune(pruner, network, fraction, sweep_step):
    """The prune one layer at a time: each snap and each outcome read alone."""

    channels = {
        index: pruner.snap_to_step(network.conv_layer(index).spec, target, sweep_step)
        for index, target in uniform_keep(network, fraction).items()
    }
    for index, count in channels.items():
        spec = network.conv_layer(index).spec
        pruner.runner.measure_many(spec, [count, spec.out_channels])
    return channels


def shard_bytes(path):
    return {shard.name: shard.read_bytes() for shard in sorted(path.iterdir())}


@pytest.mark.parametrize("model", ["alexnet", "resnet50"])
@pytest.mark.parametrize("target", PLAN_TARGETS, ids="/".join)
def test_a_whole_model_prune_writes_the_per_layer_shard_files(tmp_path, model, target):
    network = MODELS.create(model)
    batched = PerformanceAwarePruner(
        Target(*target), runner=make_runner(target, 0, ProfileStore(tmp_path / "batched"))
    )
    single = PerformanceAwarePruner(
        Target(*target), runner=make_runner(target, 0, ProfileStore(tmp_path / "single"))
    )
    outcome = batched.prune_performance_aware_fraction(network, 0.25)
    assert outcome.channels == per_layer_prune(single, network, 0.25, 1)
    assert batched.runner.simulations == single.runner.simulations
    assert shard_bytes(tmp_path / "batched") == shard_bytes(tmp_path / "single")


@pytest.mark.parametrize("sweep_step", [1, 8])
@pytest.mark.parametrize("work", ["prune", "profile"])
def test_a_whole_model_prune_draws_noise_once(monkeypatch, work, sweep_step):
    calls = []
    original = runner_mod.noise_matrix

    def counting(*args, **kwargs):
        noise = original(*args, **kwargs)
        calls.append(len(noise))
        return noise

    monkeypatch.setattr(runner_mod, "noise_matrix", counting)
    pruner = PerformanceAwarePruner(Target(*PLAN_TARGETS[0]), runner=make_runner(PLAN_TARGETS[0], 0))
    network = MODELS.create("resnet50")
    if work == "prune":
        pruner.prune_performance_aware_fraction(network, 0.25, sweep_step=sweep_step)
    else:
        pruner.profile_network(network, sweep_step=sweep_step)
    assert len(calls) == 1
    assert calls == [pruner.runner.simulations]


@pytest.mark.parametrize("bound", [1, 50])
def test_a_tiny_memo_bound_reports_the_same(bound):
    target = Target(*PLAN_TARGETS[0])
    network = MODELS.create("alexnet")

    def outcomes(runner):
        pruner = PerformanceAwarePruner(target, runner=runner)
        aware = pruner.prune_performance_aware_fraction(network, 0.25, sweep_step=4)
        budget = pruner.prune_for_latency(network, aware.latency_ms, sweep_step=8)
        profiles = pruner.profile_network(network, sweep_step=8)
        return aware, budget, {
            index: profile.table.as_series() for index, profile in profiles.items()
        }

    assert outcomes(make_runner(PLAN_TARGETS[0], 0, bound=bound)) == outcomes(
        make_runner(PLAN_TARGETS[0], 0)
    )
