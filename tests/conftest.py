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
#: fleet heartbeats, test helper threads), recorded by the excepthook
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


class FleetOfOne:
    """The service's ``remote`` job loop over an in-process lease manager.

    Per step, in plan order: prefetch the step's measurements through
    :meth:`RemoteExecutor.prefetch`, then run the step (its dependencies
    stripped, as the job queue does) through ``Session.execute``.
    """

    def __init__(self, manager) -> None:
        from repro.service.fleet import RemoteExecutor

        self.manager = manager
        self.prefetcher = RemoteExecutor(manager=manager)

    def execute(self, session, plan) -> dict:
        from repro.api import Plan, Step

        results = {}
        for step in plan:
            self.prefetcher.prefetch(session, step)
            single = Plan()
            single.add(Step(id=step.id, kind=step.kind, params=step.params))
            results.update(session.execute(single, "serial"))
        return results


@pytest.fixture(scope="module")
def remote_executor():
    """A :class:`FleetOfOne` wired to an in-process lease manager.

    One board thread claims each published lease, measures it through
    the fleet worker's own measurement path and completes it — a fleet
    of one without the HTTP hop.
    """

    from repro.service.fleet import FleetWorker, LeaseManager

    manager = LeaseManager()
    worker = manager.register_worker("board")["worker"]
    stop = threading.Event()

    def board() -> None:
        while not stop.is_set():
            lease = manager.claim(worker, timeout=0.05)
            if lease is not None:
                manager.complete(
                    lease["lease"], worker, measurements=FleetWorker._measure(lease)
                )

    thread = threading.Thread(target=board, name="test-board", daemon=True)
    thread.start()
    yield FleetOfOne(manager)
    stop.set()
    thread.join(timeout=5.0)


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
