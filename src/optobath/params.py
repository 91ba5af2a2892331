"""Parameter set, unit conventions and steady-state pump relations.

It also holds what the other modules share: the argument checks, and the
fan-out that runs a loop's items on the caller and a few pool threads.

Everything downstream works in natural units hbar = k_B = M = 1, with all
rates and detunings quoted in units of the mechanical frequency omega_m.
In these units the mechanical zero-point spread is q_zpf = sqrt(1/(2 omega_m)),
so hbar*G^2 = 2 g^2 omega_m for a pump-enhanced coupling g = G * q_zpf, and
user input reduces to the two coupling frequencies g_a, g_c.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, asdict, replace

import numpy as np

SQRT3 = math.sqrt(3.0)


def finite_real(name: str, value) -> float:
    """``value`` as a float if it is a finite real number, not a bool; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _finite_result(name: str, value: float) -> float:
    """``value`` if it is finite; else ValueError, as finite inputs overflowed it."""
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite ({value!r}): the inputs overflow it")
    return value


def count_at_least(name: str, value, floor: int) -> int:
    """``value`` as an int if it is an integer >= floor, not a bool; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < floor:
        raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")
    return int(value)


def finite_reals(name: str, values) -> np.ndarray:
    """``values`` as a float array if every entry is finite; else ValueError."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite real numbers")
    return values


def check_fields(record, *, positive=(), nonneg=()) -> None:
    """Set each dataclass field to a finite float with the given sign; else ValueError."""
    for f in fields(record):
        object.__setattr__(record, f.name, finite_real(f.name, getattr(record, f.name)))
    for name in positive:
        if getattr(record, name) <= 0:
            raise ValueError(f"{name} must be > 0, got {getattr(record, name)!r}")
    for name in nonneg:
        if getattr(record, name) < 0:
            raise ValueError(f"{name} must be >= 0, got {getattr(record, name)!r}")


def check_frequency(name: str, omega, *, allow_zero: bool = False):
    """``omega``, a list or tuple as a float array, if every entry is finite and > 0 (>= 0
    with allow_zero); else ValueError. A number or an array comes back as given, keeping its bits."""
    w = np.asarray(omega)
    if not (((w >= 0) if allow_zero else (w > 0)) & (w < math.inf)).all():
        raise ValueError(f"{name} must be finite and {'>=' if allow_zero else '>'} 0")
    return w.astype(float) if isinstance(omega, (list, tuple)) else omega


def usable_cpus() -> int:
    """The number of CPUs this process may run on now (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(fill, starts, workers: int) -> None:
    """Call fill(start) for each start, on ``workers`` threads, the caller one of them.

    Runs inline when there is one worker or at most one start. Otherwise a per-call pool
    of workers - 1 threads and the caller draw starts from one shared iterator, the caller
    taking its first before any helper starts; after an error no thread takes a new start,
    and the first error is re-raised once every thread has stopped.
    """
    if workers <= 1 or len(starts) <= 1:
        for start in starts:
            fill(start)
        return
    items, lock, errors = iter(starts), threading.Lock(), []

    def take():
        with lock:
            return next(items, None)

    def drain(start):
        try:
            while start is not None and not errors:
                fill(start)
                start = take()
        except BaseException as exc:  # re-raised on the caller
            errors.append(exc)

    first = take()
    with ThreadPoolExecutor(workers - 1) as pool:
        for _ in range(workers - 1):
            pool.submit(lambda: drain(take()))
        drain(first)
    if errors:
        raise errors[0]


@dataclass(frozen=True)
class SystemParams:
    """All physical rates, detunings and couplings of the driven system.

    Frequencies are in units of omega_m, inverse temperature ``beta`` is
    hbar*beta in units of 1/omega_m, and ``cutoff`` is the exponential
    roll-off frequency of the Ohmic mechanical bath.
    """

    omega_m: float = 1.0     # mechanical frequency, the global unit
    gamma_m: float = 0.0     # mechanical damping rate, >= 0
    kappa_c: float = 1.0     # cooling cavity linewidth, > 0
    kappa_a: float = 0.0     # system cavity loss, >= 0 (0 = perfect cavity)
    delta_a: float = -1.0    # drive-frame detuning of the system mode
    delta_c: float = -SQRT3 / 2.0  # detuning of the cooling drive (signed)
    g_a: float = 0.0         # pump-enhanced system-bath coupling, >= 0
    g_c: float = 0.0         # pump-enhanced cooling coupling, >= 0
    beta: float = 1.0        # hbar * (inverse bath temperature), > 0
    cutoff: float = 1e3      # Ohmic exponential cutoff, > 0

    def __post_init__(self):
        check_fields(self, positive=("omega_m", "kappa_c", "beta", "cutoff"),
                     nonneg=("gamma_m", "kappa_a", "g_a", "g_c"))

    @classmethod
    def from_dict(cls, data: dict) -> "SystemParams":
        """Build from a flat key-value mapping; unknown keys are an error.

        Values must be real numbers: JSON booleans and strings are rejected
        rather than coerced.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown parameter(s): {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def sideband_weight(self) -> float:
        """hbar G_c^2 = 2 g_c^2 omega_m, the weight of each cooling-cavity sideband."""
        return 2.0 * self.g_c**2 * self.omega_m

    @property
    def cavity_r2(self) -> float:
        """r2 = delta_c^2 + kappa_c^2/4, the cooling cavity's squared complex detuning."""
        return self.delta_c**2 + self.kappa_c**2 / 4.0

    @property
    def threshold_core(self) -> float:
        """omega_m r2 + 4 g_c^2 delta_c; at red detuning it is 0 at g_c_max, > 0 below it."""
        return self.omega_m * self.cavity_r2 + 4.0 * self.g_c**2 * self.delta_c


def fig1_cooled() -> SystemParams:
    """Bath-engine parameters of the laser-cooled working point."""
    return SystemParams(
        omega_m=1.0, gamma_m=1e-6, kappa_c=2.0 / SQRT3, kappa_a=0.0,
        delta_a=-1.0, delta_c=-1.0, g_a=0.45, g_c=0.45, beta=1e-4, cutoff=1e3,
    )


def fig1_bare() -> SystemParams:
    """Same mechanics with the cooling drive off."""
    return replace(fig1_cooled(), g_c=0.0)


# Named parameter sets, by the CLI's --preset spelling.
PRESETS = {"fig1-bare": fig1_bare, "fig1-cooled": fig1_cooled}


def q_zpf_squared(omega_m: float = 1.0) -> float:
    """Zero-point position variance hbar/(2 M omega_m) in natural units."""
    return 1.0 / (2.0 * omega_m)


def thermal_occupation(omega, beta):
    """Bose occupation 1/(exp(beta*omega) - 1), for floats or arrays.

    Used for the mechanical environment and, at beta_eff, for the photons.
    Past beta*omega ~ 709 expm1 overflows to inf and the occupation is 0,
    which is the exact limit, so that overflow is not warned about.
    """
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(beta * omega)


@dataclass(frozen=True)
class DriveSpec:
    """Raw drive description used to derive a pump-enhanced coupling.

    ``coupling`` is the bare optomechanical coupling already folded to a
    frequency (G0 * q_zpf), ``amplitude`` the input drive amplitude
    (square-root photon flux, non-negative after phase absorption) and
    ``detuning`` the drive detuning.
    """

    coupling: float
    amplitude: float
    detuning: float

    def __post_init__(self):
        check_fields(self, nonneg=("amplitude",))


def steady_state_amplitude(drive: DriveSpec, kappa: float) -> tuple[complex, float]:
    """Steady cavity amplitude sqrt(kappa)*a_in / (i*Delta - kappa/2).

    Returns the complex amplitude together with its magnitude; the magnitude
    is what enters the pump-enhanced coupling once the phase is absorbed
    into the drive definition.
    """
    if not finite_real("kappa", kappa) > 0:
        raise ValueError("kappa must be > 0")
    amp = math.sqrt(kappa) * drive.amplitude / (1j * drive.detuning - kappa / 2.0)
    return amp, _finite_result("steady amplitude", abs(amp))


def pump_coupling(drive: DriveSpec, kappa: float) -> float:
    """Pump-enhanced coupling g = (G0 q_zpf) * |steady amplitude|."""
    _, mag = steady_state_amplitude(drive, kappa)
    return _finite_result("pump coupling", drive.coupling * mag)


def equilibrium_displacement(g_c0: float, c_s: complex, omega_m: float = 1.0) -> float:
    """Static displacement -G_c0 |c_s|^2 / omega_m^2 balancing radiation pressure."""
    g_c0, omega_m = finite_real("g_c0", g_c0), finite_real("omega_m", omega_m)
    if omega_m <= 0:
        raise ValueError("omega_m must be > 0")
    ratio = finite_real("|c_s|", abs(c_s)) / omega_m
    return _finite_result("equilibrium displacement", -g_c0 * ratio * ratio)


def optimal_detuning(kappa_c: float) -> float:
    """Red-detuned cooling detuning with 4*delta_c^2 = 3*kappa_c^2.

    This choice cancels the curvature of the low-frequency effective
    temperature, making it flat around omega = 0.
    """
    if not finite_real("kappa_c", kappa_c) > 0:
        raise ValueError("kappa_c must be > 0")
    return -(SQRT3 / 2.0) * kappa_c
