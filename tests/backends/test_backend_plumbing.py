"""Backend selection plumbing: validation, cache keys, and job specs.

The backend choice must be part of every simulation's identity — a
functional-backend result may never be served from (or stored into) an
event-engine cache entry, even though the two are cross-validated
bit-identical, so a fidelity regression can neither poison nor hide
behind the cache.
"""

import pytest

from repro.config.presets import baseline_config
from repro.sim.backends import BACKENDS, validate_backend
from repro.sim.cache import fingerprint_digest, run_fingerprint
from repro.sim.parallel import JobSpec, expand_matrix


class TestValidateBackend:
    def test_known_backends(self):
        assert BACKENDS == ("event", "functional")
        for name in BACKENDS:
            assert validate_backend(name) == name

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'quantum'"):
            validate_backend("quantum")

    def test_names_are_case_sensitive(self):
        # Like argparse ``choices`` and the serve API: one spelling per
        # backend, so one simulation never has two cache identities.
        with pytest.raises(ValueError, match="unknown backend 'Functional'"):
            validate_backend("Functional")


class TestFingerprint:
    def _fingerprint(self, backend):
        return run_fingerprint(
            kind="single", workload="MM", policy="baseline",
            config=baseline_config(), scale=0.05, seed=None, backend=backend,
        )

    def test_backend_is_keyed(self):
        digests = set()
        for backend in BACKENDS:
            fingerprint = self._fingerprint(backend)
            assert fingerprint["backend"] == backend
            digests.add(fingerprint_digest(fingerprint))
        assert len(digests) == len(BACKENDS)

    def test_default_backend_is_event(self):
        fingerprint = run_fingerprint(
            kind="single", workload="MM", policy="baseline",
            config=baseline_config(), scale=0.05, seed=None,
        )
        assert fingerprint == self._fingerprint("event")


class TestJobSpec:
    def _spec(self, scale=0.05, **kwargs):
        return JobSpec(kind="single", workload="MM", policy="baseline",
                       scale=scale, **kwargs)

    def test_default_backend(self):
        spec = self._spec()
        assert spec.backend == "event"
        assert "+functional" not in spec.label
        assert spec.fingerprint()["backend"] == "event"

    def test_functional_backend_label_and_fingerprint(self):
        spec = self._spec(backend="functional")
        assert spec.label.endswith("+functional")
        assert spec.fingerprint()["backend"] == "functional"

    def test_invalid_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown backend"):
            self._spec(backend="quantum")

    def test_miscased_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown backend"):
            self._spec(backend="Functional")

    def test_execute_routes_to_functional(self):
        import dataclasses

        ref = self._spec(scale=0.02).execute()
        fast = self._spec(scale=0.02, backend="functional").execute()
        assert dataclasses.asdict(fast) == dataclasses.asdict(ref)


class TestExpandMatrix:
    def test_backend_applied_to_every_spec(self):
        pairs = expand_matrix(
            ["fig02_baseline_hit_rates"], scale=0.05, backend="functional"
        )
        assert pairs
        assert all(spec.backend == "functional" for _, spec in pairs)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            expand_matrix(["fig02_baseline_hit_rates"], scale=0.05,
                          backend="quantum")
