"""repro — Performance-aware CNN channel pruning for embedded GPUs.

A full reproduction of Radu et al., "Performance Aware Convolutional
Neural Network Channel Pruning for Embedded GPUs" (IISWC 2019), built on
an analytical embedded-GPU simulator instead of physical boards.

Start at :mod:`repro.api` — the canonical entry point::

    from repro.api import Session, Target, PruningRequest

    session = Session()
    target = Target("hikey-970", "acl-gemm")
    report = session.prune(PruningRequest("resnet50", target, fraction=0.25))

Subpackages
-----------
``repro.api``
    The official front door: ``Target``/``Session`` objects, the unified
    plugin ``Registry`` and the serializable request/report pipeline.
``repro.models``
    CNN model zoo (ResNet-50, VGG-16, AlexNet) as layer-spec graphs.
``repro.nn``
    NumPy reference convolution routines (direct and im2col+GEMM).
``repro.gpusim``
    Analytical embedded GPU simulator (Mali G72/T628, Jetson TX2/Nano).
``repro.libraries``
    Planning models of ACL GEMM, ACL Direct, cuDNN and TVM.
``repro.profiling``
    Median-of-N measurement, latency tables, the profile store.
``repro.core``
    The paper's contribution: staircase analysis and performance-aware
    channel pruning (plus criteria, accuracy proxy and search).
``repro.analysis``
    Speedup matrices and latency curves (the figures' data).
``repro.experiments``
    One generator per paper figure/table (``python -m repro.experiments``).
``repro.obs``
    Observability: thread-safe metrics (``/v1/metrics``) and inert span
    tracing with cross-process stitching (``X-Repro-Trace``).
``repro.service``
    Long-lived Plan execution service: job queue, HTTP API with NDJSON
    event streaming, and the ``ServiceClient`` (imported on demand —
    ``import repro.service``).
"""

from . import analysis, core, experiments, gpusim, libraries, models, nn, obs, profiling
from . import api
from .api import PruningReport, PruningRequest, Session, Target
from .core import PerformanceAwarePruner
from .gpusim import GpuSimulator
from .profiling import ProfileRunner

__version__ = "11.0.0"

__all__ = [
    "GpuSimulator",
    "PerformanceAwarePruner",
    "ProfileRunner",
    "PruningReport",
    "PruningRequest",
    "Session",
    "Target",
    "__version__",
    "analysis",
    "api",
    "core",
    "experiments",
    "gpusim",
    "libraries",
    "models",
    "nn",
    "obs",
    "profiling",
]
