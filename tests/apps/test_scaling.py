"""Tests for the power-law scaling models."""

import pytest

from repro.apps.scaling import AppScalingModel, PowerLaw, calibrate


class TestPowerLaw:
    def test_exact_fit(self):
        # y = 2 * x^1.5 fitted from exact samples.
        xs = [1.0, 4.0, 9.0, 16.0]
        ys = [2 * x**1.5 for x in xs]
        law = PowerLaw.fit(xs, ys)
        assert law.exponent == pytest.approx(1.5, abs=1e-9)
        assert law.coefficient == pytest.approx(2.0, rel=1e-9)
        assert law(100.0) == pytest.approx(2 * 100**1.5, rel=1e-9)

    def test_constant_fit(self):
        law = PowerLaw.fit([1, 10, 100], [5.0, 5.0, 5.0])
        assert law.exponent == pytest.approx(0.0, abs=1e-12)
        assert law(1e12) == pytest.approx(5.0)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            PowerLaw.fit([1.0], [1.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PowerLaw.fit([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            PowerLaw.fit([1.0, 2.0], [1.0, -2.0])

    def test_rejects_nonpositive_eval(self):
        law = PowerLaw(1.0, 1.0)
        with pytest.raises(ValueError):
            law(0.0)


class TestCalibration:
    @pytest.fixture(scope="class")
    def im_model(self) -> AppScalingModel:
        return calibrate("im", sizes=(4, 8, 16))

    def test_qubits_grow_with_ops(self, im_model):
        assert im_model.logical_qubits(1e6) > im_model.logical_qubits(1e4)

    def test_depth_grows_with_ops(self, im_model):
        assert im_model.critical_path(1e6) >= im_model.critical_path(1e4)

    def test_parallelism_positive(self, im_model):
        assert im_model.parallelism_factor > 1.0

    def test_fractions_in_range(self, im_model):
        assert 0.0 < im_model.t_fraction < 1.0
        assert 0.0 < im_model.two_qubit_fraction < 1.0

    def test_t_count_linear(self, im_model):
        assert im_model.t_count(2e6) == pytest.approx(2 * im_model.t_count(1e6))

    def test_communication_ops_bounded(self, im_model):
        assert im_model.communication_ops(1e6) < 1e6

    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            calibrate("im", sizes=(4,))

    def test_extrapolation_is_finite(self, im_model):
        # Figure 7 sweeps to 1e24 operations.
        assert im_model.logical_qubits(1e24) > 0
        assert im_model.critical_path(1e24) > 0
