import math

import pytest
from hypothesis import given, strategies as st

from optobath import (
    HBAR_SI,
    MsiGeometry,
    enhanced_coupling_from_hardware,
    msi_coupling,
)
from optobath.msi import g_a_from_hardware_block


def geometry(r_m=0.3, omega_0=1e15, d=0.03, L=0.05, l=0.02):
    return MsiGeometry(r_m=r_m, omega_0=omega_0, d=d, L=L, l=l)


class TestMsiCoupling:
    def test_transparent_membrane_decouples(self):
        assert msi_coupling(geometry(r_m=0.0)) == 0.0

    def test_direct_value(self):
        geo = geometry(r_m=0.3, omega_0=1e15, d=0.03, L=0.05, l=0.02)
        assert geo.effective_length == pytest.approx(0.1)
        assert msi_coupling(geo) == pytest.approx(3e15, rel=1e-12)

    def test_doubling_length_halves_coupling(self):
        g1 = msi_coupling(geometry(d=0.03, L=0.05, l=0.02))
        g2 = msi_coupling(geometry(d=0.06, L=0.10, l=0.04))
        assert g2 == pytest.approx(g1 / 2.0, rel=1e-12)

    @given(
        r1=st.floats(0.01, 0.99),
        scale=st.floats(0.5, 2.0),
        omega_0=st.floats(1e14, 1e16),
    )
    def test_linearity(self, r1, scale, omega_0):
        base = geometry(r_m=r1, omega_0=omega_0)
        assert msi_coupling(geometry(r_m=r1, omega_0=scale * omega_0)) == pytest.approx(
            scale * msi_coupling(base), rel=1e-12
        )
        if r1 * scale < 1:
            assert msi_coupling(geometry(r_m=r1 * scale, omega_0=omega_0)) == pytest.approx(
                scale * msi_coupling(base), rel=1e-12
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_m": -0.1},
            {"r_m": 1.0},
            {"omega_0": -1e15},
            {"d": 0.0},
            {"L": -0.1},
            {"omega_0": math.nan},
            {"d": math.inf},
            {"r_m": "0.5"},
        ],
    )
    def test_geometry_validation(self, kwargs):
        with pytest.raises(ValueError):
            geometry(**kwargs)


class TestEnhancedCoupling:
    def test_zero_drive(self):
        assert enhanced_coupling_from_hardware(geometry(), 0.0, 1e-12, 2 * math.pi * 1e6) == 0

    def test_inverse_sqrt_mass_scaling(self):
        geo = geometry()
        g1 = enhanced_coupling_from_hardware(geo, 1e4, 1e-12, 2 * math.pi * 1e6)
        g4 = enhanced_coupling_from_hardware(geo, 1e4, 4e-12, 2 * math.pi * 1e6)
        assert g4 == pytest.approx(g1 / 2.0, rel=1e-12)

    def test_round_trip_through_dimensionless_units(self):
        geo = geometry(r_m=0.2, omega_0=1.216e15, d=0.01, L=0.04, l=0.015)
        mass, omega_m = 8.0e-11, 2 * math.pi * 3.0e5
        b_s = 2.4e4
        g_a = enhanced_coupling_from_hardware(geo, b_s, mass, omega_m)
        q_zpf = math.sqrt(HBAR_SI / (2 * mass * omega_m))
        b_back = g_a * omega_m / (msi_coupling(geo) * q_zpf)
        assert b_back == pytest.approx(b_s, rel=1e-12)

    def test_hardware_block(self):
        block = {
            "r_m": 0.2, "omega_0": 1.216e15, "d": 0.01, "L": 0.04, "l": 0.015,
            "b_s": 2.4e4, "mass": 8.0e-11, "omega_m_si": 2 * math.pi * 3.0e5,
        }
        geo = geometry(r_m=0.2, omega_0=1.216e15, d=0.01, L=0.04, l=0.015)
        expected = enhanced_coupling_from_hardware(
            geo, 2.4e4, 8.0e-11, 2 * math.pi * 3.0e5
        )
        assert g_a_from_hardware_block(block) == pytest.approx(expected, rel=1e-15)

    def test_hardware_block_validation(self):
        with pytest.raises(ValueError, match="missing"):
            g_a_from_hardware_block({"r_m": 0.2})
        block = {
            "r_m": 0.2, "omega_0": 1e15, "d": 0.01, "L": 0.04, "l": 0.015,
            "b_s": 1e4, "mass": 1e-11, "omega_m_si": 1e6, "extra": 1.0,
        }
        with pytest.raises(ValueError, match="unknown"):
            g_a_from_hardware_block(block)
