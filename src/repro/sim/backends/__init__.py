"""Simulation backends.

Two backends execute a workload:

* ``event`` — the full discrete-event engine
  (:class:`repro.sim.system.MultiGPUSystem`), modelling latency and
  contention explicitly.  Always available; always correct.
* ``functional`` — :func:`run_functional`, an exact-schedule replay that
  produces **bit-identical** counters, sharing degrees, and latency means
  for statistics-only runs at a fraction of the cost.  Raises
  :class:`BackendUnsupported` outside its replayable scope (non-LRU
  replacement, fault injection, telemetry, snapshots, …).

``docs/backends.md`` documents the scope and the cross-validation gates
(`scripts/check_fidelity.py`, the nightly CI fidelity job) that keep the
two in lock-step.
"""

from __future__ import annotations

from repro.sim.backends.functional import BackendUnsupported, run_functional

#: The valid values of every ``--backend`` flag / ``backend=`` parameter.
BACKENDS = ("event", "functional")

DEFAULT_BACKEND = "event"


def validate_backend(backend: str) -> str:
    """Validate a backend name; names are case-sensitive."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (expected one of {', '.join(BACKENDS)})"
        )
    return backend


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BackendUnsupported",
    "run_functional",
    "validate_backend",
]
