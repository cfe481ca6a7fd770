"""The paper's claims as properties over every device, tile-rule library and zoo layer.

* Every latency step the staircase analysis finds sits between two
  channel counts where the library's tiling decision changes:
  ``padded_channels`` for cuDNN, ``split_columns`` for ACL GEMM and
  ``channel_divisibility`` for ACL Direct.
* cuDNN latency is bitwise flat wherever the padded channel count is.
* Performance-aware pruning is never slower than uninstructed pruning at
  the same fraction, up to ``snap_to_step``'s 0.1% tolerance.

TVM is left out on purpose: its utilisation ramp at 1-6 channels adds
steps its plan notes do not explain.
"""

import pytest

from repro.api import PruningRequest, Session, Target
from repro.gpusim import DEVICES
from repro.libraries import LIBRARIES, channel_divisibility, padded_channels, split_columns
from repro.models import MODELS

#: The tiling decision each library's staircase follows.
DECISIONS = {
    "cudnn": lambda count: padded_channels(count)[0],
    "acl-gemm": split_columns,
    "acl-direct": channel_divisibility,
}

TARGETS = [
    Target(device, library)
    for device in DEVICES.available()
    for library in sorted(DECISIONS)
    if DEVICES.get(device).api == LIBRARIES.create(library).api
]

LAYERS = [
    (model, index)
    for model in MODELS.available()
    for index in MODELS.create(model).conv_layer_indices
]


@pytest.fixture(scope="module")
def session():
    return Session()


def _profiles(session, target):
    for model, index in LAYERS:
        spec = session.network(model).conv_layer(index).spec
        yield spec, session.profile_layer(target, spec, sweep_step=1)


@pytest.mark.parametrize("target", TARGETS, ids=lambda target: target.label)
def test_steps_follow_the_tile_rule(session, target):
    decision = DECISIONS[target.library]
    unexplained = [
        (spec.name, step.channels_before, step.channels_after)
        for spec, profile in _profiles(session, target)
        for step in profile.analysis.steps
        if decision(step.channels_before) == decision(step.channels_after)
    ]
    assert unexplained == []


@pytest.mark.parametrize(
    "target", [t for t in TARGETS if t.library == "cudnn"], ids=lambda target: target.label
)
def test_cudnn_flat_within_a_padded_count(session, target):
    for spec, profile in _profiles(session, target):
        by_padding = {}
        for count, time_ms in zip(*profile.table.as_series()):
            by_padding.setdefault(int(padded_channels(count)[0]), set()).add(time_ms)
        assert all(len(times) == 1 for times in by_padding.values()), spec.name


@pytest.mark.parametrize("target", TARGETS, ids=lambda target: target.label)
@pytest.mark.parametrize("model", MODELS.available())
def test_performance_aware_never_slower_than_uninstructed(session, target, model):
    comparison = session.compare(PruningRequest(model, target, fraction=0.25))
    aware = comparison["performance-aware"].latency_ms
    naive = comparison["uninstructed"].latency_ms
    assert aware <= 1.001 * naive
