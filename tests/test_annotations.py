"""Tests for the annotation registry (paper step (a))."""

from repro.analysis import Program
from repro.annotations import (
    AnnotationRegistry,
    ScaleDepAnnotation,
    scale_dependent,
)


def test_call_form_registers_names():
    registry = AnnotationRegistry()
    scale_dependent("ring", "endpoint_state_map", registry=registry,
                    note="membership state")
    assert registry.is_scale_dependent("ring")
    assert registry.is_scale_dependent("endpoint_state_map")
    assert not registry.is_scale_dependent("counter")


def test_qualified_name_matches_by_tail():
    registry = AnnotationRegistry()
    scale_dependent("token_to_endpoint", registry=registry)
    assert registry.is_scale_dependent("metadata.token_to_endpoint")
    assert registry.is_scale_dependent("self.ring.token_to_endpoint")


def test_decorator_form_registers_qualname():
    registry = AnnotationRegistry()

    @scale_dependent(registry=registry, axis="data")
    class RingTable:
        pass

    assert registry.is_scale_dependent("RingTable")
    annotation = registry.annotation_for("RingTable")
    assert annotation.axis == "data"


def test_annotation_metadata_retrievable():
    registry = AnnotationRegistry()
    scale_dependent("blocks", registry=registry, axis="data",
                    note="block map grows with data size")
    annotation = registry.annotation_for("namenode.blocks")
    assert isinstance(annotation, ScaleDepAnnotation)
    assert annotation.note == "block map grows with data size"
    assert registry.annotation_for("unknown") is None


def test_pil_safety_override_lifecycle():
    registry = AnnotationRegistry()
    assert registry.pil_safety_override("f") is None
    registry.add_pil_safe("f")
    assert registry.pil_safety_override("f") is True
    registry.add_pil_unsafe("f")   # latest verdict wins
    assert registry.pil_safety_override("f") is False
    registry.add_pil_safe("f")
    assert registry.pil_safety_override("f") is True


def test_clear_resets_everything():
    registry = AnnotationRegistry()
    scale_dependent("x", registry=registry)
    registry.add_pil_safe("f")
    registry.clear()
    assert registry.scale_dependent_names() == []
    assert registry.pil_safety_override("f") is None


def test_global_registry_has_cassandra_annotations():
    """The Cassandra model's source carries its step-(a) annotations."""
    names = Program.load(["repro.cassandra"]).registry.scale_dependent_names()
    assert "token_to_endpoint" in names
    assert "endpoint_state_map" in names
    # The paper's budget: the whole annotation set is tiny.
    assert len(names) < 30
