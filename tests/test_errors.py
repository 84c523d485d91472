"""Tests for the repro.errors exception hierarchy."""

from __future__ import annotations

import inspect

import pytest

from repro import errors
from repro.errors import (
    CheckpointCorruptionError,
    LiveServiceError,
    ReproError,
)


def _error_classes():
    return [
        obj
        for _, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, ReproError)
    ]


class TestHierarchy:
    def test_module_exports_a_hierarchy(self):
        assert len(_error_classes()) >= 10

    @pytest.mark.parametrize(
        "exc_class", _error_classes(), ids=lambda cls: cls.__name__
    )
    def test_every_error_is_raisable(self, exc_class):
        with pytest.raises(exc_class):
            raise exc_class("boom")

    @pytest.mark.parametrize(
        "exc_class", _error_classes(), ids=lambda cls: cls.__name__
    )
    def test_every_error_is_catchable_as_repro_error(self, exc_class):
        with pytest.raises(ReproError):
            raise exc_class("boom")

    @pytest.mark.parametrize(
        "exc_class", _error_classes(), ids=lambda cls: cls.__name__
    )
    def test_message_survives(self, exc_class):
        assert str(exc_class("the message")) == "the message"

    def test_repro_error_does_not_mask_programming_errors(self):
        # The reason the hierarchy exists: catching ReproError must not
        # swallow TypeError/ValueError raised by buggy calling code.
        assert not issubclass(TypeError, ReproError)
        assert not issubclass(ValueError, ReproError)
        assert not issubclass(ReproError, (TypeError, ValueError))

    def test_docstrings_everywhere(self):
        for exc_class in _error_classes():
            assert exc_class.__doc__, f"{exc_class.__name__} lacks a docstring"


class TestSpecificRelationships:
    def test_checkpoint_corruption_is_a_live_service_error(self):
        # Existing callers catching LiveServiceError on checkpoint load
        # keep working now that corruption is surfaced separately.
        assert issubclass(CheckpointCorruptionError, LiveServiceError)

    def test_convergence_is_a_simulation_error(self):
        assert issubclass(errors.ConvergenceError, errors.SimulationError)

    def test_mapping_is_a_measurement_error(self):
        assert issubclass(errors.MappingError, errors.MeasurementError)

    def test_relationship_is_a_topology_error(self):
        assert issubclass(errors.RelationshipError, errors.TopologyError)
