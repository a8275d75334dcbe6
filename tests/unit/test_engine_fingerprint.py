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


class TestFingerprintMemo:
    """The digest is memoized per assembly object; every mutation resets
    it, and a memoized digest always equals a fresh rebuild's."""

    @pytest.fixture
    def serializations(self, monkeypatch):
        from repro.dsl import serializer

        calls = []
        original = serializer.assembly_to_dict

        def counting(assembly):
            calls.append(assembly.name)
            return original(assembly)

        monkeypatch.setattr(serializer, "assembly_to_dict", counting)
        return calls

    def test_a_second_fingerprint_serializes_nothing(self, serializations):
        assembly = local_assembly()
        first = assembly_fingerprint(assembly)
        assert len(serializations) == 1
        assert assembly_fingerprint(assembly) == first
        assert service_fingerprint(assembly, "search")
        assert plan_key(assembly, "search")[0] == first
        assert len(serializations) == 1

    def test_canonical_json_then_fingerprint_serializes_once(
        self, serializations
    ):
        import hashlib

        assembly = local_assembly()
        text = canonical_json(assembly)
        assert assembly_fingerprint(assembly) == hashlib.sha256(
            text.encode("utf-8")
        ).hexdigest()
        assert len(serializations) == 1

    def test_memoized_digest_equals_a_fresh_rebuild(self):
        assembly = local_assembly()
        assembly_fingerprint(assembly)
        assert assembly._canonical is not None
        assert assembly_fingerprint(assembly) == assembly_fingerprint(
            local_assembly()
        )

    def test_add_service_resets_the_memo(self):
        from repro.model import SimpleService

        assembly = local_assembly()
        before = assembly_fingerprint(assembly)
        assembly.add_service(SimpleService("extra", failure_probability=0.1))
        assert assembly._canonical is None
        rebuilt = local_assembly().add_service(
            SimpleService("extra", failure_probability=0.1)
        )
        assert assembly_fingerprint(assembly) != before
        assert assembly_fingerprint(assembly) == assembly_fingerprint(rebuilt)

    def test_bind_resets_the_memo(self):
        assembly = local_assembly()
        before = assembly_fingerprint(assembly)
        assembly.bind("search", "spare", "sort1")
        assert assembly._canonical is None
        rebuilt = local_assembly().bind("search", "spare", "sort1")
        assert assembly_fingerprint(assembly) != before
        assert assembly_fingerprint(assembly) == assembly_fingerprint(rebuilt)

    def test_a_rename_misses_the_memo(self):
        assembly = local_assembly()
        before = assembly_fingerprint(assembly)
        assembly.name = "renamed"
        rebuilt = local_assembly()
        rebuilt.name = "renamed"
        assert assembly_fingerprint(assembly) != before
        assert assembly_fingerprint(assembly) == assembly_fingerprint(rebuilt)
        assert '"name":"renamed"' in canonical_json(assembly)

    @pytest.mark.parametrize(
        "field",
        ["name", "interface", "failure_probability", "duration", "flow"],
    )
    def test_services_refuse_reassignment(self, field):
        assembly = local_assembly()
        before = assembly_fingerprint(assembly)
        service = next(s for s in assembly.services if hasattr(s, field))
        with pytest.raises(AttributeError, match="read-only"):
            setattr(service, field, getattr(service, field))
        assert assembly._canonical is not None
        assert assembly_fingerprint(assembly) == before
        assert assembly_fingerprint(local_assembly()) == before
