"""``plan_counts`` (one batch over a vector of counts) against per-count ``plan``."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import DEVICES, KernelBatch
from repro.libraries import LIBRARIES, LibraryError
from repro.models import MODELS, LayerSpecError

#: Every conv layer of every zoo model.
_LAYERS = [
    MODELS.create(model).conv_layer(index).spec
    for model in MODELS.available()
    for index in MODELS.create(model).conv_layer_indices
]

_ARRAYS = (
    "offsets",
    "arithmetic_instructions",
    "memory_instructions",
    "work_items",
    "vector_efficiency",
    "memory_locality",
    "job_counts",
)


def _compatible_devices(library):
    return [
        DEVICES.get(name)
        for name in DEVICES.available()
        if DEVICES.get(name).api == library.api
    ]


def _kinds(batch):
    return [batch.kind_table[kind] for kind in batch.kinds.tolist()]


@st.composite
def _sweeps(draw, library_name):
    library = LIBRARIES.create(library_name)
    layer = draw(st.sampled_from(_LAYERS))
    device = draw(st.sampled_from(_compatible_devices(library)))
    top = layer.out_channels
    counts = draw(st.lists(st.integers(1, top), min_size=1, max_size=48))
    # The edges of the range ride along with every draw.
    return library, layer, device, [1, top] + counts


@pytest.mark.parametrize("library_name", sorted(LIBRARIES.available()))
def test_plan_counts_equals_per_count_plan(library_name):
    @settings(max_examples=40, deadline=None)
    @given(sweep=_sweeps(library_name))
    def check(sweep):
        library, layer, device, counts = sweep
        batch = library.plan_counts(layer, counts, device)
        expected = KernelBatch.from_plans(
            library.plan(layer.with_out_channels(count), device) for count in counts
        )
        for name in _ARRAYS:
            got, want = getattr(batch, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert _kinds(batch) == _kinds(expected)
        assert batch.notes == expected.notes

    check()


@pytest.mark.parametrize("library_name", sorted(LIBRARIES.available()))
def test_plan_is_the_batch_of_one(library_name):
    library = LIBRARIES.create(library_name)
    device = _compatible_devices(library)[0]
    layer = _LAYERS[0]
    batch = library.plan_counts(layer, range(1, layer.out_channels + 1), device)
    for count in (1, 2, 3, layer.out_channels):
        plan = library.plan_with_channels(layer, count, device)
        assert batch.plan(count - 1, library.name, layer.name) == plan
        for kernel in plan:
            assert type(kernel.arithmetic_instructions) is int
            assert type(kernel.work_items) is int
            assert type(kernel.vector_efficiency) is float


def test_plan_counts_validates_counts_and_device():
    library = LIBRARIES.create("acl-gemm")
    layer = _LAYERS[0]
    with pytest.raises(LayerSpecError):
        library.plan_counts(layer, [4, 0], DEVICES.get("hikey-970"))
    with pytest.raises(LibraryError):
        library.plan_counts(layer, [4], DEVICES.get("jetson-tx2"))
    assert len(library.plan_counts(layer, [], DEVICES.get("hikey-970"))) == 0


#: The four targets of the 12-step plan.
_PLAN_TARGETS = (
    ("hikey-970", "acl-gemm"),
    ("hikey-970", "acl-direct"),
    ("hikey-970", "tvm"),
    ("jetson-tx2", "cudnn"),
)

#: One zoo conv layer per shape: a plan depends on the shape, not the name.
_SHAPES = list({replace(layer, name="shape"): layer for layer in _LAYERS}.values())


@pytest.mark.parametrize("device_name, library_name", _PLAN_TARGETS)
def test_note_table_is_distinct_and_indexes_every_plan_note(device_name, library_name):
    library, device = LIBRARIES.create(library_name), DEVICES.get(device_name)
    for layer in _LAYERS:
        counts = range(1, layer.out_channels + 1)
        batch = library.plan_counts(layer, counts, device)
        assert len(set(batch.note_table)) == len(batch.note_table), layer.name
        assert len(batch.note_index) == len(batch) == layer.out_channels
        if layer in _SHAPES:
            assert batch.notes == tuple(
                library.plan_with_channels(layer, count, device).notes for count in counts
            ), layer.name


@pytest.mark.parametrize("device_name, library_name", _PLAN_TARGETS)
def test_empty_counts_plan_an_empty_note_table(device_name, library_name):
    library, device = LIBRARIES.create(library_name), DEVICES.get(device_name)
    batch = library.plan_counts(_LAYERS[0], [], device)
    assert (len(batch), batch.note_table, batch.notes) == (0, (), ())
