"""Tests for the technology-backend protocol, registry, and built-ins.

The load-bearing property: the ``cmos`` backend is the scalar oracle —
bit-identical to ``CmosPotentialModel.paper()`` — while the derived
backends (``finfet``, ``tfet``) move the device laws in the physically
expected directions through the same fit machinery.
"""

import math

import pytest

from repro.cmos.model import CmosPotentialModel
from repro.errors import ValidationError
from repro.tech import (
    DeviceParams,
    TechMetadata,
    backend_index,
    backend_names,
    derived_backend,
    get_backend,
    register_backend,
)
from repro.tech.base import SURFACE_NODES, TechBackend

BUILTINS = ("chiplet", "cmos", "finfet", "tfet")


class TestRegistry:
    def test_builtins_are_registered(self):
        assert set(BUILTINS) <= set(backend_names())

    def test_names_are_sorted(self):
        assert backend_names() == sorted(backend_names())

    def test_unknown_backend_lists_valid_names(self):
        with pytest.raises(ValidationError, match="cmos"):
            get_backend("gallium_arsenide")

    def test_duplicate_registration_rejected_without_replace(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_backend(get_backend("cmos"))

    def test_index_carries_full_descriptions(self):
        index = backend_index()
        assert [entry["name"] for entry in index] == backend_names()
        for entry in index:
            assert entry["source"]
            assert isinstance(entry["parameters"], dict)
            assert len(entry["param_hash"]) == 64

    def test_metadata_rejects_non_identifier_names(self):
        with pytest.raises(ValidationError):
            TechMetadata(
                name="bad name!", display_name="x", description="x", source="x"
            )


class TestParamHash:
    def test_hash_is_stable_across_instances(self):
        from repro.tech import tfet_backend

        assert tfet_backend().param_hash() == tfet_backend().param_hash()
        assert tfet_backend().param_hash() == get_backend("tfet").param_hash()

    def test_hash_distinguishes_backends(self):
        hashes = {get_backend(name).param_hash() for name in BUILTINS}
        assert len(hashes) == len(BUILTINS)

    def test_hash_tracks_parameter_content(self):
        a = derived_backend(
            "probe", "Probe", "d", "s", DeviceParams(dynamic_energy_scale=0.5)
        )
        b = derived_backend(
            "probe", "Probe", "d", "s", DeviceParams(dynamic_energy_scale=0.6)
        )
        assert a.param_hash() != b.param_hash()


class TestCmosOracle:
    @pytest.mark.parametrize("node", [45.0, 16.0, 5.0])
    @pytest.mark.parametrize("tdp", [None, 100.0])
    def test_bit_identical_to_paper_model(self, node, tdp):
        paper = CmosPotentialModel.paper()
        backend_model = get_backend("cmos").model()
        assert backend_model.evaluate(
            node, 1000.0, area_mm2=100.0, tdp_w=tdp
        ) == paper.evaluate(node, 1000.0, area_mm2=100.0, tdp_w=tdp)

    def test_wall_limits_identity(self):
        from repro.wall.limits import _limits

        backend = get_backend("cmos")
        for row in _limits().values():
            assert backend.wall_limits(row) is row
            assert backend.die_count(row.max_die_mm2) == 1


class TestDerivedBackends:
    def test_tfet_cuts_dynamic_energy_and_clock(self):
        cmos = get_backend("cmos").model().scaling.scaling(5.0)
        tfet = get_backend("tfet").model().scaling.scaling(5.0)
        assert tfet.dynamic_energy < 0.2 * cmos.dynamic_energy
        assert tfet.leakage_power < cmos.leakage_power
        assert tfet.frequency < cmos.frequency
        assert tfet.vdd < cmos.vdd

    def test_finfet_moderately_better_and_faster(self):
        cmos = get_backend("cmos").model().scaling.scaling(5.0)
        finfet = get_backend("finfet").model().scaling.scaling(5.0)
        assert finfet.dynamic_energy < cmos.dynamic_energy
        assert finfet.leakage_power < cmos.leakage_power
        assert finfet.frequency > cmos.frequency

    def test_tfet_wall_limits_derate_the_clock(self):
        from repro.wall.limits import _limits

        backend = get_backend("tfet")
        row = _limits()["video_decoding"]
        derated = backend.wall_limits(row)
        assert derated.frequency_mhz < row.frequency_mhz
        assert derated.max_die_mm2 == row.max_die_mm2

    def test_low_power_devices_lift_tdp_limited_gains(self):
        # Under a tight power cap a TFET chip lights more transistors.
        cmos_gains = get_backend("cmos").model().evaluate(
            5.0, 1000.0, area_mm2=600.0, tdp_w=50.0
        )
        tfet_gains = get_backend("tfet").model().evaluate(
            5.0, 1000.0, area_mm2=600.0, tdp_w=50.0
        )
        assert tfet_gains.active_transistors > cmos_gains.active_transistors

    def test_device_params_reject_nonpositive_scales(self):
        with pytest.raises(ValidationError):
            DeviceParams(dynamic_energy_scale=0.0)
        with pytest.raises(ValidationError):
            DeviceParams(leakage_scale=-1.0)
        with pytest.raises(ValidationError):
            DeviceParams(frequency_scale=float("nan"))


class TestScalingSurfaces:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_density_surface_monotone_toward_newer_nodes(self, name):
        surface = get_backend(name).density_surface()
        values = [surface[node] for node in SURFACE_NODES]
        assert all(math.isfinite(v) and v > 0 for v in values)
        assert values == sorted(values)  # oldest -> newest node grows

    @pytest.mark.parametrize("name", BUILTINS)
    def test_tdp_surface_monotone_and_finite(self, name):
        surface = get_backend(name).tdp_surface()
        values = [surface[node] for node in SURFACE_NODES]
        assert all(math.isfinite(v) and v > 0 for v in values)
        for older, newer in zip(values, values[1:]):
            assert newer >= older  # era-stepped law: non-strict

    @pytest.mark.parametrize("name", BUILTINS)
    def test_frequency_energy_surface_points_physical(self, name):
        surface = get_backend(name).frequency_energy_surface()
        for node, point in surface.items():
            for key, value in point.items():
                assert math.isfinite(value) and value > 0, (node, key, value)


class TestModelCache:
    def test_model_is_built_once_and_cached(self):
        backend = get_backend("finfet")
        assert backend.model() is backend.model()

    def test_instances_with_equal_parameters_share_one_model(self):
        from repro.tech import finfet_backend

        assert finfet_backend().model() is get_backend("finfet").model()

    def test_chiplet_base_is_part_of_the_key(self):
        from repro.tech import chiplet_backend, finfet_backend

        over_finfet = chiplet_backend(base=finfet_backend())
        assert over_finfet.name == get_backend("chiplet").name
        assert over_finfet.model() is not get_backend("chiplet").model()

    @pytest.mark.parametrize("name", BUILTINS)
    def test_wall_reports_are_computed_once(self, name):
        from repro.tech.scenarios import wall_reports

        assert wall_reports(name) is wall_reports(name)

    def test_base_backend_requires_build_model(self):
        backend = TechBackend(
            TechMetadata(name="stub", display_name="s", description="d", source="s")
        )
        with pytest.raises(NotImplementedError):
            backend.model()
