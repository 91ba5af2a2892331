"""Command-line front end: sweeps, presets, figure data and validation.

Exit codes: 0 on success, 1 when validation finds a failing check, 2 for
configuration errors (bad parameters, malformed sweep specs, unreadable
config files).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__, _table
from .msi import g_a_from_hardware_block
from .params import SystemParams
from .rates import compute_rates
from .spectrum import compute_spectrum, g_c_max
from .stability import stability_map
from .validate import fig1_bare, fig1_cooled, run_checks


class ConfigError(Exception):
    """Invalid configuration: reported on stderr with exit code 2."""


PRESETS = {
    "fig1-bare": fig1_bare,
    "fig1-cooled": fig1_cooled,
}

# Cooling-drive family for the laser-cooling-dominated sweep, as fractions
# of g_c_max. The drive-off member keeps a small gamma_m and hot bath so its
# bath is defined at all.
FIG3_FRACTIONS = (0.0, 0.24, 0.48, 0.72, 0.96)


def fig3_family() -> list[SystemParams]:
    base = replace(fig1_cooled(), gamma_m=0.0, g_c=0.0)
    members = []
    for frac in FIG3_FRACTIONS:
        if frac == 0.0:
            members.append(replace(base, gamma_m=1e-6, beta=1e-4))
        else:
            members.append(replace(base, g_c=frac * g_c_max(base)))
    return members


_OVERRIDE_FLAGS = {
    "--omega-m": "omega_m",
    "--gamma-m": "gamma_m",
    "--kappa-b": "kappa_b",
    "--kappa-c": "kappa_c",
    "--kappa-a": "kappa_a",
    "--delta-a": "delta_a",
    "--delta-b": "delta_b",
    "--delta-c": "delta_c",
    "--ga": "g_a",
    "--gc": "g_c",
    "--beta": "beta",
    "--cutoff": "cutoff",
}


def _add_param_flags(parser):
    parser.add_argument("--config", metavar="PATH", help="JSON parameter file")
    parser.add_argument("--preset", choices=sorted(PRESETS) + ["fig3"],
                        help="named parameter set")
    for flag, dest in _OVERRIDE_FLAGS.items():
        parser.add_argument(flag, dest=dest, type=float, default=None)


def _add_output_flags(parser):
    parser.add_argument("--out", "-o", metavar="PATH", help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")


def _add_grid_flags(parser, prefix="grid"):
    parser.add_argument(f"--{prefix}-min", type=float, default=1e-4)
    parser.add_argument(f"--{prefix}-max", type=float, default=4.0)
    parser.add_argument(f"--{prefix}-count", type=int, default=400)
    parser.add_argument(f"--{prefix}-scale", choices=("log", "lin"), default="log")


def build_params(args) -> SystemParams:
    """Merge config file, preset and per-flag overrides into SystemParams."""
    data: dict = {}
    if args.preset and args.preset != "fig3":
        data.update(PRESETS[args.preset]().to_dict())
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config document must be a JSON object")
        hardware = loaded.pop("hardware", None)
        if hardware is not None:
            try:
                loaded["g_a"] = g_a_from_hardware_block(hardware)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        data.update(loaded)
    for dest in _OVERRIDE_FLAGS.values():
        value = getattr(args, dest)
        if value is not None:
            data[dest] = value
    try:
        return SystemParams.from_dict(data) if data else SystemParams()
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def make_grid(lo: float, hi: float, count: int, scale: str) -> np.ndarray:
    if count < 2:
        raise ConfigError("sweep count must be >= 2")
    if not lo < hi:
        raise ConfigError("sweep min must be < max")
    if scale == "log":
        if lo <= 0:
            raise ConfigError("log grid requires min > 0")
        return np.logspace(math.log10(lo), math.log10(hi), count)
    return np.linspace(lo, hi, count)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _family_spectrum_csv(members: list[SystemParams], grid: np.ndarray) -> str:
    """One table: the member's g_c, then its spectrum columns, members stacked."""
    spectra = [compute_spectrum(member, grid).columns() for member in members]
    return _table.to_csv({"g_c": np.repeat([member.g_c for member in members], len(grid)),
                          **{name: np.concatenate([spec[name] for spec in spectra])
                             for name in spectra[0]}})


def cmd_spectrum(args) -> int:
    grid = make_grid(args.grid_min, args.grid_max, args.grid_count, args.grid_scale)
    if args.preset == "fig3":
        _emit(_family_spectrum_csv(fig3_family(), grid), args.out)
        return 0
    p = build_params(args)
    try:
        spec = compute_spectrum(p, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _emit(spec.to_csv() if args.format == "csv" else spec.to_json() + "\n", args.out)
    return 0


def cmd_rates(args) -> int:
    p = build_params(args)
    if (args.omega_a is None) != (args.nu_b is None):
        raise ConfigError("--omega-a and --nu-b must be given together")
    if args.omega_a is not None:
        omega = args.omega_a - args.nu_b
        if omega <= 0:
            raise ConfigError("omega_a - nu_b must be positive")
        grid = np.array([omega])
    else:
        grid = make_grid(args.grid_min, args.grid_max, args.grid_count, args.grid_scale)
    try:
        table = compute_rates(p, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _emit(table.to_csv() if args.format == "csv" else table.to_json() + "\n", args.out)
    return 0


def cmd_stability(args) -> int:
    p = build_params(args)
    values1 = make_grid(args.min1, args.max1, args.count1, "lin")
    values2 = make_grid(args.min2, args.max2, args.count2, "lin")
    try:
        smap = stability_map(p, args.var1, values1, args.var2, values2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _emit(smap.to_csv() if args.format == "csv" else smap.to_json() + "\n", args.out)
    return 0


def cmd_validate(args) -> int:
    p = build_params(args)
    report = run_checks(p, seed=args.seed)
    text = json.dumps(report, indent=1) + "\n"
    _emit(text, args.out)
    if args.out:
        for check in report["checks"]:
            print(f"{check['name']}: {check['status']}")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optobath",
        description="Engineered-bath properties of a laser-cooled optomechanical system",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="effective spectral density and temperature")
    _add_param_flags(sp)
    _add_grid_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_spectrum)

    rp = sub.add_parser("rates", help="photon emission/absorption rates and occupation")
    _add_param_flags(rp)
    _add_grid_flags(rp)
    rp.add_argument("--omega-a", type=float, default=None,
                    help="absolute system frequency (with --nu-b)")
    rp.add_argument("--nu-b", type=float, default=None,
                    help="drive frequency; Omega = omega_a - nu_b")
    _add_output_flags(rp)
    rp.set_defaults(func=cmd_rates)

    st = sub.add_parser("stability", help="stability raster over two parameters")
    _add_param_flags(st)
    st.add_argument("--var1", default="g_c")
    st.add_argument("--min1", type=float, default=0.0)
    st.add_argument("--max1", type=float, default=0.7)
    st.add_argument("--count1", type=int, default=50)
    st.add_argument("--var2", default="g_a")
    st.add_argument("--min2", type=float, default=0.0)
    st.add_argument("--max2", type=float, default=0.6)
    st.add_argument("--count2", type=int, default=50)
    _add_output_flags(st)
    st.set_defaults(func=cmd_stability)

    vp = sub.add_parser("validate", help="run every oracle cross-check")
    _add_param_flags(vp)
    vp.add_argument("--seed", type=int, default=20240801)
    vp.add_argument("--out", "-o", metavar="PATH", default=None)
    vp.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
