"""Streaming connectivity service: epoch-rotated snapshot serving.

The long-running server leg of the paper's premise — a dynamic structure
absorbing a high-rate update stream while answering concurrent
connectivity/BFS/components queries.  Readers never block the writer:

* :mod:`repro.service.epoch` — refcounted immutable snapshot epochs
  (:class:`EpochStore`), keyed on the representation's mutation counter;
* :mod:`repro.service.drainer` — the single writer
  (:class:`UpdateDrainer`) applying batched update streams through the
  vectorised ``apply_arcs`` path and rotating epochs;
* :mod:`repro.service.server` — the asyncio HTTP front end
  (:class:`GraphService`) and its thread-backed :class:`ServiceHandle`.

See ``docs/SERVICE.md`` for the architecture and consistency model, and
``python -m repro serve --help`` for the CLI entry point.
"""

from repro.service.drainer import UpdateDrainer
from repro.service.epoch import Epoch, EpochStore
from repro.service.server import GraphService, ServiceHandle

__all__ = [
    "Epoch",
    "EpochStore",
    "UpdateDrainer",
    "GraphService",
    "ServiceHandle",
]
