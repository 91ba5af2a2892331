"""Exact output text of the formats that no golden CSV covers.

Every table goes through one writer, optobath._table. These strings are the
byte-for-byte output of the per-table serializers it replaced: blank and
null cells of criteria that do not apply, NaN tokens in JSON, pole and
nonthermal spectrum rows, the correlation CSV and the fig3 family table.
"""

import contextlib
import io
import json
from dataclasses import replace

import numpy as np

from optobath import SystemParams, compute_rates, compute_spectrum, stability_map
from optobath.cli import main
from optobath.correlation import CorrelationSeries

MAP_CSV = (
    "delta_c,g_a,s1,s2,s3,abscissa,analytic,eigen,disagree\n"
    "-9.000000000000e-01,3.000000000000e-01,,,,-3.740085804463e-03,,stable,false\n"
    "-1.000000000000e+00,3.000000000000e-01,4.532199613139e-01,1.000000000000e+00,3.752776749733e-02,-7.775326758771e-02,true,stable,false\n"
)

MAP_JSON = """\
{
 "var1": "delta_c",
 "values1": [
  -0.9,
  -1.0
 ],
 "var2": "g_a",
 "values2": [
  0.3
 ],
 "s1": [
  [
   null
  ],
  [
   0.45321996131385633
  ]
 ],
 "s2": [
  [
   null
  ],
  [
   1.0
  ]
 ],
 "s3": [
  [
   null
  ],
  [
   0.03752776749732578
  ]
 ],
 "abscissa": [
  [
   -0.003740085804463221
  ],
  [
   -0.07775326758770536
  ]
 ],
 "analytic": [
  [
   null
  ],
  [
   true
  ]
 ],
 "eigen": [
  [
   "stable"
  ],
  [
   "stable"
  ]
 ],
 "disagree": [
  [
   false
  ],
  [
   false
  ]
 ]
}"""

RATES_JSON = """\
{
 "Omega": [
  0.3,
  1.5
 ],
 "gamma_plus": [
  0.10254739247062174,
  0.15012006055699745
 ],
 "gamma_minus": [
  0.043796653653195204,
  0.016627370733316875
 ],
 "n_bar": [
  NaN,
  NaN
 ],
 "n_bar_lossy": [
  0.23240241172481244,
  0.40959636107879444
 ]
}"""

SPECTRUM_CSV = (
    "omega,j_eff,beta_eff,t_eff,flags\n"
    "5.000000000000e-01,0.000000000000e+00,0.000000000000e+00,inf,nonthermal\n"
    "1.000000000000e+00,nan,nan,nan,pole\n"
    "2.000000000000e+00,0.000000000000e+00,0.000000000000e+00,inf,nonthermal\n"
)

SPECTRUM_JSON = """\
{
 "omega": [
  0.5,
  1.0,
  2.0
 ],
 "j_eff": [
  0.0,
  NaN,
  0.0
 ],
 "beta_eff": [
  0.0,
  NaN,
  0.0
 ],
 "t_eff": [
  Infinity,
  NaN,
  Infinity
 ],
 "flags": [
  "nonthermal",
  "pole",
  "nonthermal"
 ]
}"""

SERIES_CSV = (
    "t,re,im,tag\n"
    "0.000000000000e+00,1.000000000000e+00,0.000000000000e+00,total\n"
    "5.000000000000e-01,2.500000000000e-01,-5.000000000000e-01,total\n"
)

FIG3_CSV = (
    "g_c,omega,j_eff,beta_eff,t_eff,flags\n"
    "0.000000000000e+00,1.000000000000e-04,9.999999200000e-11,1.000000000000e-04,1.000000000000e+04,\n"
    "0.000000000000e+00,4.000000000000e+00,1.770680869945e-08,1.000000000000e-04,1.000000000000e+04,\n"
    "1.385640646055e-01,1.000000000000e-04,5.616717392224e-06,3.000000000000e+00,3.333333333333e-01,\n"
    "1.385640646055e-01,4.000000000000e+00,6.671981685005e-06,2.496322075278e-01,4.005893349674e+00,\n"
    "2.771281292110e-01,1.000000000000e-04,3.368860304818e-05,3.000000000000e+00,3.333333333333e-01,\n"
    "2.771281292110e-01,4.000000000000e+00,2.673886724383e-05,2.496322075278e-01,4.005893349674e+00,\n"
    "4.156921938165e-01,1.000000000000e-04,1.935631519966e-04,3.000000000000e+00,3.333333333333e-01,\n"
    "4.156921938165e-01,4.000000000000e+00,6.035418442200e-05,2.496322075278e-01,4.005893349674e+00,\n"
    "5.542562584220e-01,1.000000000000e-04,1.298496060500e-02,3.000000000000e+00,3.333333333333e-01,\n"
    "5.542562584220e-01,4.000000000000e+00,1.077761825911e-04,2.496322075278e-01,4.005893349674e+00,\n"
)


def test_stability_map_blank_and_null_cells(fig1_cold):
    # off the optimal detuning (delta_c = -0.9) the analytic criteria do not
    # apply: empty CSV cells, null in JSON
    smap = stability_map(fig1_cold, "delta_c", np.array([-0.9, -1.0]), "g_a", np.array([0.3]))
    assert smap.to_csv() == MAP_CSV
    assert smap.to_json() == MAP_JSON


def test_rates_json_carries_nan_tokens(fig1):
    # blue detuning: no lossless equilibrium (NaN), a lossy one exists
    table = compute_rates(replace(fig1, delta_c=1.0, kappa_a=0.5), np.array([0.3, 1.5]))
    assert table.to_json() == RATES_JSON
    assert "NaN" in RATES_JSON and json.loads(RATES_JSON)["n_bar_lossy"][0] > 0


def test_spectrum_pole_and_nonthermal_rows():
    # at delta_c = 0 the undamped mechanical pole survives at omega = 1 and
    # the sideband asymmetry vanishes, so beta_eff = 0 elsewhere
    p = SystemParams(gamma_m=0.0, g_c=0.3, kappa_c=1.0, delta_c=0.0)
    spec = compute_spectrum(p, np.array([0.5, 1.0, 2.0]))
    assert spec.to_csv() == SPECTRUM_CSV
    assert spec.to_json() == SPECTRUM_JSON


def test_correlation_csv():
    series = CorrelationSeries(times=np.array([0.0, 0.5]),
                               values=np.array([1.0 + 0j, 0.25 - 0.5j]), tag="total")
    assert series.to_csv() == SERIES_CSV


def test_fig3_family_csv():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["spectrum", "--preset", "fig3", "--grid-count", "2"]) == 0
    assert out.getvalue() == FIG3_CSV

