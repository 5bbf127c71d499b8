"""Tests for the small support modules: errors, package API."""

import pytest

import repro
from repro.errors import (
    DatasetError,
    FitError,
    GraphStructureError,
    InvalidChipSpecError,
    InvalidDesignPointError,
    ProjectionError,
    ReproError,
    UnknownNodeError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            UnknownNodeError(3, (180.0, 5.0)),
            InvalidChipSpecError("bad"),
            InvalidDesignPointError("bad"),
            GraphStructureError("bad"),
            FitError("bad"),
            ProjectionError("bad"),
            DatasetError("bad"),
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert isinstance(exc, ReproError)

    def test_unknown_node_is_value_error(self):
        assert isinstance(UnknownNodeError(3, (180.0, 5.0)), ValueError)

    def test_fit_error_is_runtime_error(self):
        assert isinstance(FitError("x"), RuntimeError)


class TestPackageApi:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_flow(self):
        model = repro.CmosPotentialModel.paper()
        old = model.evaluate(45, 1000, area_mm2=100, tdp_w=100)
        new = model.evaluate(5, 1000, area_mm2=100, tdp_w=100)
        assert repro.csr(250.0, new.throughput / old.throughput) > 0
