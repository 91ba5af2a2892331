"""Command-line front end: sweeps, presets, figure data and validation.

Exit codes: 0 on success, 1 when validation finds a failing check, 2 for
configuration errors: bad parameters, malformed sweep specs, unreadable
config files, and any value the library rejects with ValueError or, at a
susceptibility pole, with PoleError.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace

import numpy as np

from . import __version__, _table
from .msi import g_a_from_hardware_block
from .params import PRESETS, SystemParams, fig1_bare, fig1_cooled
from .rates import compute_rates
from .response import PoleError
from .spectrum import compute_spectrum, g_c_max
from .stability import stability_map

# Cooling-drive family for the laser-cooling-dominated sweep, as fractions
# of g_c_max. The drive-off member is fig1-bare, whose small gamma_m and hot
# bath keep its bath defined at all.
FIG3_FRACTIONS = (0.0, 0.24, 0.48, 0.72, 0.96)


def fig3_family() -> list[SystemParams]:
    base = replace(fig1_cooled(), gamma_m=0.0, g_c=0.0)
    return [fig1_bare() if frac == 0.0 else replace(base, g_c=frac * g_c_max(base))
            for frac in FIG3_FRACTIONS]


# SystemParams field -> override flag: the field name with "-" for "_",
# except the two couplings, which keep their short spellings.
_PARAM_FLAGS = {f.name: "--" + f.name.replace("_", "-") for f in fields(SystemParams)}
_PARAM_FLAGS.update(g_a="--ga", g_c="--gc")


def _add_param_flags(parser, presets=tuple(sorted(PRESETS))):
    parser.add_argument("--config", metavar="PATH", help="JSON parameter file")
    parser.add_argument("--preset", choices=presets, help="named parameter set")
    for dest, flag in _PARAM_FLAGS.items():
        parser.add_argument(flag, dest=dest, type=float, default=None)


def _add_output_flags(parser):
    parser.add_argument("--out", "-o", metavar="PATH", help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")


def _add_grid_flags(parser):
    parser.add_argument("--grid-min", type=float, default=1e-4)
    parser.add_argument("--grid-max", type=float, default=4.0)
    parser.add_argument("--grid-count", type=int, default=400)
    parser.add_argument("--grid-scale", choices=("log", "lin"), default="log")


def _overrides(args) -> dict:
    """The parameter flags given on the command line, by field name."""
    return {dest: getattr(args, dest) for dest in _PARAM_FLAGS if getattr(args, dest) is not None}


def build_params(args) -> SystemParams:
    """Merge config file, preset and per-flag overrides into SystemParams."""
    data: dict = {}
    if args.preset:
        data.update(PRESETS[args.preset]().to_dict())
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError("config document must be a JSON object")
        if "hardware" in loaded:
            if "g_a" in loaded:
                raise ValueError('config gives g_a twice: as "g_a" and through its "hardware" block')
            loaded["g_a"] = g_a_from_hardware_block(loaded.pop("hardware"))
        data.update(loaded)
    data.update(_overrides(args))
    return SystemParams.from_dict(data)


def make_grid(lo: float, hi: float, count: int, scale: str) -> np.ndarray:
    if count < 2:
        raise ValueError("sweep count must be >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("sweep min and max must be finite, with min < max")
    if scale == "log":
        if lo <= 0:
            raise ValueError("log grid requires min > 0")
        return np.logspace(math.log10(lo), math.log10(hi), count)
    return np.linspace(lo, hi, count)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _write(table, args) -> None:
    """Write a table in the chosen --format to --out or stdout."""
    _emit(table.to_csv() if args.format == "csv" else table.to_json() + "\n", args.out)


class _Columns(dict, _table.Table):
    """A table with no library type: an ordered column name -> column mapping."""

    def columns(self) -> dict:
        return self


def _fig3_table(args, grid: np.ndarray) -> _Columns:
    """One table: the member's g_c, then its spectrum columns, members stacked."""
    ignored = ["--config"] if args.config else []
    ignored += [_PARAM_FLAGS[dest] for dest in _overrides(args)]
    if ignored:
        raise ValueError("--preset fig3 fixes its own parameters and would ignore "
                         + ", ".join(ignored))
    members = fig3_family()
    spectra = [compute_spectrum(member, grid).columns() for member in members]
    return _Columns({"g_c": np.repeat([member.g_c for member in members], len(grid)),
                     **{name: np.concatenate([spec[name] for spec in spectra])
                        for name in spectra[0]}})


def cmd_spectrum(args) -> int:
    grid = make_grid(args.grid_min, args.grid_max, args.grid_count, args.grid_scale)
    if args.preset == "fig3":
        table = _fig3_table(args, grid)
    else:
        table = compute_spectrum(build_params(args), grid)
    _write(table, args)
    return 0


def cmd_rates(args) -> int:
    p = build_params(args)
    if (args.omega_a is None) != (args.nu_b is None):
        raise ValueError("--omega-a and --nu-b must be given together")
    if args.omega_a is not None:
        grid = np.array([args.omega_a - args.nu_b])
    else:
        grid = make_grid(args.grid_min, args.grid_max, args.grid_count, args.grid_scale)
    _write(compute_rates(p, grid), args)
    return 0


def cmd_stability(args) -> int:
    p = build_params(args)
    values1 = make_grid(args.min1, args.max1, args.count1, "lin")
    values2 = make_grid(args.min2, args.max2, args.count2, "lin")
    _write(stability_map(p, args.var1, values1, args.var2, values2), args)
    return 0


def cmd_validate(args) -> int:
    from .validate import run_checks  # the oracles load only for this command
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
    _add_param_flags(sp, presets=(*sorted(PRESETS), "fig3"))
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


_PARSER = build_parser()  # built once per process; parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, PoleError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
