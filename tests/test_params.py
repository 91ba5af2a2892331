import math
import sys
import threading
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, strategies as st

from optobath import (
    DriveSpec,
    SystemParams,
    compute_rates,
    compute_spectrum,
    default_grid,
    equilibrium_displacement,
    optimal_detuning,
    pump_coupling,
    stability_map,
    steady_state_amplitude,
    thermal_occupation,
)
from optobath.params import fan_out


class TestSystemParams:
    def test_defaults_valid(self):
        p = SystemParams()
        assert p.omega_m == 1.0
        assert p.kappa_a == 0.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("omega_m", 0.0),
            ("kappa_c", -1.0),
            ("kappa_c", 0.0),
            ("beta", 0.0),
            ("cutoff", -2.0),
            ("gamma_m", -1e-9),
            ("kappa_a", -0.1),
            ("g_a", -0.2),
            ("g_c", -0.2),
            ("kappa_c", math.inf),
            ("beta", math.inf),
            ("cutoff", math.inf),
            ("delta_a", -math.inf),
            ("g_c", math.nan),
            ("g_c", True),
            ("beta", "0.3"),
            ("delta_c", None),
        ],
    )
    def test_invariants_rejected(self, field, value):
        with pytest.raises(ValueError):
            SystemParams(**{field: value})

    def test_frozen(self):
        p = SystemParams()
        with pytest.raises(FrozenInstanceError):
            p.g_c = 0.3

    def test_dict_round_trip(self, fig1):
        assert SystemParams.from_dict(fig1.to_dict()) == fig1

    @pytest.mark.parametrize("data", [{"g_c": True}, {"beta": "0.3"},
                                      {"kappa_c": math.inf}, {"delta_a": None}])
    def test_from_dict_requires_finite_numbers(self, data):
        with pytest.raises(ValueError):
            SystemParams.from_dict(data)

    def test_from_dict_accepts_ints_as_floats(self):
        p = SystemParams.from_dict({"omega_m": 2, "beta": 1})
        assert p.omega_m == 2.0 and isinstance(p.omega_m, float)
        assert p.beta == 1.0 and isinstance(p.beta, float)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            SystemParams.from_dict({"g_q": 1.0})

    @pytest.mark.parametrize("name", [f.name for f in fields(SystemParams)])
    def test_every_field_reaches_an_output(self, fig1, name):
        # a field that no spectrum, rate table or stability raster reads is
        # a setting that does nothing
        def outputs(p):
            grid = default_grid(p, n=20)
            return (compute_spectrum(p, grid).to_csv(), compute_rates(p, grid).to_csv(),
                    stability_map(p, "g_c", [0.1, 0.3], "g_a", [0.1, 0.3]).to_csv())

        perturbed = replace(fig1, **{name: getattr(fig1, name) * 1.1 + 0.01})
        assert outputs(perturbed) != outputs(fig1)


class TestSteadyStateAmplitude:
    def test_zero_drive(self):
        amp, mag = steady_state_amplitude(DriveSpec(1.0, 0.0, 0.3), kappa=2.0)
        assert amp == 0
        assert mag == 0

    def test_resonant_drive(self):
        # sqrt(2)*1/(0 - 1) = -1.414..., hand evaluation of the closed form
        amp, mag = steady_state_amplitude(DriveSpec(1.0, 1.0, 0.0), kappa=2.0)
        assert amp == pytest.approx(-1.4142135623730951)
        assert mag == pytest.approx(1.4142135623730951, abs=1e-4)

    def test_detuned_drive(self):
        # |sqrt(2)/(-i - 1)| = sqrt(2)/sqrt(2) = 1
        _, mag = steady_state_amplitude(DriveSpec(1.0, 1.0, -1.0), kappa=2.0)
        assert mag == pytest.approx(1.0, rel=1e-12)

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            steady_state_amplitude(DriveSpec(1.0, 1.0, 0.0), kappa=0.0)

    @given(
        a1=st.floats(0.01, 10.0),
        a2=st.floats(0.01, 10.0),
        d1=st.floats(0.0, 5.0),
        d2=st.floats(0.0, 5.0),
        kappa=st.floats(0.1, 5.0),
    )
    def test_monotone_in_amplitude_and_detuning(self, a1, a2, d1, d2, kappa):
        m = lambda a, d: steady_state_amplitude(DriveSpec(1.0, a, d), kappa)[1]
        if a1 < a2:
            assert m(a1, d1) <= m(a2, d1)
        if d1 < d2:
            assert m(a1, d2) <= m(a1, d1)

    def test_pump_coupling_scales_with_amplitude(self):
        g1 = pump_coupling(DriveSpec(0.5, 1.0, 0.0), kappa=2.0)
        g2 = pump_coupling(DriveSpec(0.5, 2.0, 0.0), kappa=2.0)
        assert g2 == pytest.approx(2 * g1)


class TestEquilibriumDisplacement:
    def test_no_pump(self):
        assert equilibrium_displacement(1.0, 0.0) == 0

    def test_unit_case(self):
        assert equilibrium_displacement(1.0, 1.0, omega_m=1.0) == pytest.approx(-1.0)

    def test_scaled_case(self):
        assert equilibrium_displacement(2.0, math.sqrt(3.0), omega_m=2.0) == pytest.approx(-1.5)


class TestOptimalDetuning:
    def test_matches_unit_detuning(self):
        assert optimal_detuning(2.0 / math.sqrt(3.0)) == pytest.approx(-1.0, rel=1e-14)

    def test_direct_values(self):
        assert optimal_detuning(2.0) == pytest.approx(-math.sqrt(3.0))
        assert optimal_detuning(1.0) == pytest.approx(-0.8660254037844386)

    @given(kappa_c=st.floats(1e-3, 1e3))
    def test_identity_to_machine_precision(self, kappa_c):
        d = optimal_detuning(kappa_c)
        assert d < 0
        assert 4 * d**2 - 3 * kappa_c**2 == pytest.approx(0.0, abs=1e-14 * kappa_c**2)


def test_thermal_occupation_bose_form():
    assert thermal_occupation(1.0, math.log(2.0)) == pytest.approx(1.0, rel=1e-12)
    assert thermal_occupation(1.0, 1e-4) == pytest.approx(1e4, rel=1e-3)


def test_fan_out_takes_each_start_once(pools):
    # 8 workers on any host, with the interpreter switching threads every microsecond:
    # a start taken twice or lost shows in the tally, and a hang fails the join
    taken, starts = [], range(0, 4000, 2)

    def fill(start):
        taken.append((start, threading.get_ident()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=fan_out, args=(fill, starts, 8))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and pools == [7]
    assert sorted(start for start, _ in taken) == list(starts)
    assert runner.ident in {thread for _, thread in taken}
