"""Shared fixtures and thread/crash sanitizers for the test suite."""

from __future__ import annotations

import faulthandler
import threading

import pytest

from repro.gpusim import DEVICES, GpuSimulator
from repro.libraries import LIBRARIES
from repro.models import build_alexnet, build_resnet50, build_vgg16
from repro.profiling import ProfileRunner

# Dump tracebacks of every thread on hard crashes/hangs (SIGSEGV,
# SIGABRT, fatal deadlock kills) instead of dying silently.
faulthandler.enable()

#: Uncaught exceptions from background threads (job-queue workers,
#: HTTP handlers, test helper threads), recorded by the excepthook
#: below so the owning test fails instead of the error vanishing into
#: stderr.  Guarded by its own lock: hooks fire on arbitrary threads.
_THREAD_ERRORS = []
_THREAD_ERRORS_LOCK = threading.Lock()
_ORIGINAL_EXCEPTHOOK = threading.excepthook


def _recording_excepthook(hook_args) -> None:
    with _THREAD_ERRORS_LOCK:
        _THREAD_ERRORS.append(hook_args)
    _ORIGINAL_EXCEPTHOOK(hook_args)


threading.excepthook = _recording_excepthook


@pytest.fixture(autouse=True)
def fail_on_background_thread_exception():
    """Fail any test during which a background thread died unhandled."""

    with _THREAD_ERRORS_LOCK:
        _THREAD_ERRORS.clear()
    yield
    with _THREAD_ERRORS_LOCK:
        errors = list(_THREAD_ERRORS)
        _THREAD_ERRORS.clear()
    if errors:
        summaries = "; ".join(
            f"{getattr(error.thread, 'name', '?')}: "
            f"{error.exc_type.__name__}: {error.exc_value}"
            for error in errors
        )
        pytest.fail(f"unhandled exception in background thread(s): {summaries}")


@pytest.fixture(scope="session")
def run_queued():
    """Run a plan as a service job on a fresh in-memory :class:`JobQueue`.

    The returned callable blocks until the queue has drained and returns
    the finished :class:`~repro.service.jobs.Job`; its step records hold
    the same JSON projections the HTTP API serves.
    """

    from repro.service import JobQueue

    def run(plan, seed=0, profile_store=None, trace=None):
        with JobQueue(profile_store=profile_store, trace=trace) as queue:
            job_id = queue.submit(plan, seed=seed).id
        return queue.store.get(job_id)

    return run


@pytest.fixture(scope="session")
def resnet50():
    return build_resnet50()


@pytest.fixture(scope="session")
def vgg16():
    return build_vgg16()


@pytest.fixture(scope="session")
def alexnet():
    return build_alexnet()


@pytest.fixture(scope="session")
def layer16(resnet50):
    """ResNet-50 layer 16: the paper's calibration layer (3x3, 128 filters)."""

    return resnet50.conv_layer(16).spec


@pytest.fixture(scope="session")
def layer14(resnet50):
    """ResNet-50 layer 14: 1x1 projection with 512 filters."""

    return resnet50.conv_layer(14).spec


@pytest.fixture(scope="session")
def layer45(resnet50):
    """ResNet-50 layer 45: 1x1 expansion with 2048 filters."""

    return resnet50.conv_layer(45).spec


@pytest.fixture(scope="session")
def hikey():
    return DEVICES.get("hikey-970")


@pytest.fixture(scope="session")
def odroid():
    return DEVICES.get("odroid-xu4")


@pytest.fixture(scope="session")
def tx2():
    return DEVICES.get("jetson-tx2")


@pytest.fixture(scope="session")
def nano():
    return DEVICES.get("jetson-nano")


@pytest.fixture(scope="session")
def acl_gemm():
    return LIBRARIES.create("acl-gemm")


@pytest.fixture(scope="session")
def acl_direct():
    return LIBRARIES.create("acl-direct")


@pytest.fixture(scope="session")
def cudnn():
    return LIBRARIES.create("cudnn")


@pytest.fixture(scope="session")
def tvm():
    return LIBRARIES.create("tvm")


@pytest.fixture(scope="session")
def hikey_simulator(hikey):
    return GpuSimulator(hikey)


@pytest.fixture(scope="session")
def tx2_simulator(tx2):
    return GpuSimulator(tx2)


@pytest.fixture(scope="session")
def gemm_runner(hikey, acl_gemm):
    """Shared ACL GEMM runner on the HiKey 970 (cached across tests)."""

    return ProfileRunner(device=hikey, library=acl_gemm, runs=3)


@pytest.fixture(scope="session")
def cudnn_runner(tx2, cudnn):
    """Shared cuDNN runner on the Jetson TX2 (cached across tests)."""

    return ProfileRunner(device=tx2, library=cudnn, runs=3)


@pytest.fixture(scope="session")
def direct_runner(hikey, acl_direct):
    """Shared ACL Direct runner on the HiKey 970 (cached across tests)."""

    return ProfileRunner(device=hikey, library=acl_direct, runs=3)
