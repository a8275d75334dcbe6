"""Structural fingerprints: equal model ⇔ equal digest, any change ⇒ new."""

import pytest

from repro.engine import (
    assembly_fingerprint,
    canonical_json,
    plan_key,
    service_fingerprint,
)
from repro.errors import EvaluationError, ModelError
from repro.scenarios import local_assembly, remote_assembly
from repro.scenarios.search_sort import SearchSortParameters


class TestCanonicalJson:
    def test_deterministic_across_rebuilds(self):
        assert canonical_json(local_assembly()) == canonical_json(local_assembly())

    def test_compact_and_sorted(self):
        text = canonical_json(local_assembly())
        assert ": " not in text  # compact separators
        assert text.startswith("{")


class TestAssemblyFingerprint:
    def test_stable_across_rebuilds(self):
        assert assembly_fingerprint(local_assembly()) == assembly_fingerprint(
            local_assembly()
        )

    def test_distinct_assemblies_distinct_digests(self):
        assert assembly_fingerprint(local_assembly()) != assembly_fingerprint(
            remote_assembly()
        )

    def test_attribute_change_changes_fingerprint(self):
        base = assembly_fingerprint(local_assembly())
        tweaked = assembly_fingerprint(
            local_assembly(SearchSortParameters(phi_sort1=5e-6))
        )
        assert base != tweaked

    def test_evaluation_leaves_fingerprint_unchanged(self):
        from repro.core import ReliabilityEvaluator

        assembly = local_assembly()
        before = canonical_json(assembly), assembly_fingerprint(assembly)
        ReliabilityEvaluator(assembly).pfail("search", elem=1, list=50, res=1)
        after = canonical_json(assembly), assembly_fingerprint(assembly)
        assert after == before
        assert after[1] == assembly_fingerprint(local_assembly())

    def test_sha256_hex_shape(self):
        digest = assembly_fingerprint(local_assembly())
        assert len(digest) == 64
        int(digest, 16)  # hex


class TestServiceFingerprint:
    def test_depends_on_service_name(self):
        assembly = local_assembly()
        assert service_fingerprint(assembly, "search") != service_fingerprint(
            assembly, "sort1"
        )

    def test_unknown_service_is_typed_error(self):
        with pytest.raises((EvaluationError, ModelError)):
            service_fingerprint(local_assembly(), "nope")


class TestPlanKey:
    def test_key_carries_symbolic_attributes_flag(self):
        assembly = local_assembly()
        plain = plan_key(assembly, "search", False)
        attrs = plan_key(assembly, "search", True)
        assert plain != attrs
        assert plain[:2] == attrs[:2]
