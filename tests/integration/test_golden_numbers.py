"""Golden regression snapshot of the reproduction's headline numbers.

These pin the values EXPERIMENTS.md reports (with modest tolerances), so an
accidental change to the model, a dataset, or the scheduler shows up as a
diff against the recorded reproduction — not silently.  When a change is
*intentional*, update both this file and EXPERIMENTS.md.
"""

import pytest

from repro.cmos.model import CmosPotentialModel
from repro.datasheets.reference import reference_database


@pytest.fixture(scope="module")
def model():
    return CmosPotentialModel.paper()


class TestGoldenFits:
    def test_refit_density_law(self):
        fitted = CmosPotentialModel.from_database(reference_database())
        assert fitted.density_fit.coefficient == pytest.approx(5.04e9, rel=0.02)
        assert fitted.density_fit.exponent == pytest.approx(0.869, abs=0.005)

    def test_refit_tdp_laws(self):
        fitted = CmosPotentialModel.from_database(reference_database())
        expected = {
            "55nm-40nm": (0.02, 0.85),
            "32nm-28nm": (0.11, 0.73),
            "22nm-12nm": (0.41, 0.60),
            "10nm-5nm": (2.10, 0.41),
        }
        for fit in fitted.tdp_model.fits:
            coefficient, exponent = expected[fit.era.name]
            assert fit.coefficient == pytest.approx(coefficient, rel=0.15)
            assert fit.exponent == pytest.approx(exponent, abs=0.03)


class TestGoldenStudies:
    def test_video_decoders(self, model):
        from repro.studies import video_decoders

        summary = video_decoders.study().summary(model)
        assert summary["max_performance_gain"] == pytest.approx(64.2, rel=0.02)
        assert summary["max_efficiency_gain"] == pytest.approx(35.7, rel=0.02)
        assert summary["best_performer_csr"] == pytest.approx(0.53, abs=0.05)

    def test_bitcoin(self, model):
        from repro.studies import bitcoin

        all_platforms = bitcoin.study().summary(model)
        assert all_platforms["max_performance_gain"] == pytest.approx(
            6.05e5, rel=0.05
        )
        asic = bitcoin.asic_study().summary(model)
        assert asic["max_performance_gain"] == pytest.approx(509, rel=0.02)
        assert asic["max_performance_csr"] == pytest.approx(6.1, abs=0.5)

    def test_fpga_cnn(self, model):
        from repro.studies import fpga_cnn

        alexnet = fpga_cnn.study("alexnet").summary(model)
        assert alexnet["max_performance_gain"] == pytest.approx(24.0, rel=0.02)
        vgg = fpga_cnn.study("vgg16").summary(model)
        assert vgg["max_performance_gain"] == pytest.approx(8.8, rel=0.03)

    def test_gpu_graphics(self, model):
        from repro.studies import gpu_graphics

        summary = gpu_graphics.study("GTA V FHD").summary(model)
        assert summary["max_performance_gain"] == pytest.approx(4.8, abs=0.3)
        csr = gpu_graphics.architecture_csr(model)
        assert csr["Maxwell 2"] == pytest.approx(1.31, abs=0.05)
        assert csr["Fermi"] == pytest.approx(0.95, abs=0.05)


class TestGoldenWall:
    def test_headrooms(self, model):
        from repro.wall import wall_report_all_domains

        expected = {
            ("video_decoding", "performance"): (1.8, 99.6),
            ("video_decoding", "efficiency"): (1.7, 5.4),
            ("gaming_graphics", "performance"): (1.3, 3.2),
            ("gaming_graphics", "efficiency"): (1.6, 3.2),
            ("convolutional_nn", "performance"): (1.9, 6.8),
            ("convolutional_nn", "efficiency"): (2.7, 6.4),
            ("bitcoin_mining", "performance"): (1.0, 9.4),
            ("bitcoin_mining", "efficiency"): (1.1, 3.8),
        }
        for report in wall_report_all_domains(model):
            want_low, want_high = expected[(report.domain, report.metric)]
            low, high = report.headroom
            assert low == pytest.approx(want_low, abs=0.2), report.domain
            assert high == pytest.approx(want_high, rel=0.1), report.domain
