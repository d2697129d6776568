"""Scalar DOP853 stepper on Python floats for the ODE oracle.

The explicit Runge-Kutta pair of order 8 with embedded 5th- and 3rd-order
error estimates and 7th-order dense output (Dormand & Prince; Hairer,
Norsett & Wanner, "Solving ODEs I", sec. II.5, code ``dop853.f``), written for
one scalar unknown.  Step-size selection follows scipy's ``DOP853`` rule for
rule, so both take the same steps; scipy itself is never imported.
"""

from __future__ import annotations

import math

# DOP853 tableau from Hairer's dop853.f, in the digits of scipy's
# scipy/integrate/_ivp/dop853_coefficients.py (BSD-3-Clause, the SciPy
# developers).  Stages 0-11 take a step, row A[12] holds the weights of the
# 8th-order solution (its stage 12 is the derivative at the step's end), and
# stages 13-15 only feed the dense output.
C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    1.0, 0.1, 0.2, 0.7777777777777778,
)
A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
        20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
        15.279233632882423, -33.28821096898486, -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
        -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
        27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
        0.6433927460157636,
    ),
    (
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
        0.04471061572777259,
    ),
    (
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
        -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
        -0.008298,
    ),
    (
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    ),
    (
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987,
    ),
)
E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
)
E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
)
D = (
    (
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894,
    ),
    (
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    ),
    (
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    ),
    (
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    ),
)

STAGES = 12
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # the error estimate is of order 7


def _dot(row, k) -> float:
    # a plain left-to-right sum, so results do not depend on the Python version
    total = 0.0
    for a, stage in zip(row, k):
        total += a * stage
    return total


def initial_step(rate, y0: float, f0: float, t_bound: float, rtol: float, atol: float) -> float:
    """First step size from t = 0 by the rule of sec. II.4, as in scipy."""
    scale = atol + abs(y0) * rtol
    d0 = abs(y0 / scale)
    d1 = abs(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    d2 = abs((rate(h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100 * h0, h1, t_bound)


def step(rate, t: float, y: float, f: float, h_abs: float, t_bound: float,
         rtol: float, atol: float):
    """One accepted step from (t, y), where f is the derivative there.

    Returns the step end, the new value and the derivative there, the step's
    interpolant, the next step size and the number of rejected trials, or
    None once the step size underflows.
    """
    min_step = 10.0 * (math.nextafter(t, math.inf) - t)
    h_abs = max(h_abs, min_step)
    rejected = 0
    while True:
        if h_abs < min_step:
            return None
        t_new = min(t + h_abs, t_bound)
        h = t_new - t
        h_abs = h
        k = [f]
        for s in range(1, STAGES):
            k.append(rate(t + C[s] * h, y + _dot(A[s], k) * h))
        y_new = y + h * _dot(A[STAGES], k)
        k.append(rate(t + h, y_new))

        scale = atol + max(abs(y), abs(y_new)) * rtol
        err5 = _dot(E5, k) / scale
        err3 = _dot(E3, k) / scale
        err5_sq = err5 * err5
        denom = err5_sq + 0.01 * (err3 * err3)
        error_norm = 0.0 if denom == 0.0 else h * err5_sq / math.sqrt(denom)
        if error_norm < 1.0:
            if error_norm == 0.0:
                factor = MAX_FACTOR
            else:
                factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            if rejected:
                factor = min(1.0, factor)
            row = _dense_row(rate, t, y, h, y_new, k)
            return t_new, y_new, k[STAGES], row, h_abs * factor, rejected
        h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
        rejected += 1


def _dense_row(rate, t: float, y: float, h: float, y_new: float, k: list) -> tuple:
    """Interpolant of one accepted step: (t, h, y, F0, ..., F6).

    Appends the three extra stages to ``k``.
    """
    for s in range(STAGES + 1, len(C)):
        k.append(rate(t + C[s] * h, y + _dot(A[s], k) * h))
    dy = y_new - y
    return (t, h, y, dy, h * k[0] - dy, 2.0 * dy - h * (k[STAGES] + k[0]),
            *(h * _dot(row, k) for row in D))


def _interpolate(t: float, t_old, h, y_old, f0, f1, f2, f3, f4, f5, f6) -> float:
    """y at ``t`` from one step's interpolant, in scipy's nested form."""
    x = (t - t_old) / h
    y = f6 * x
    y = (y + f5) * (1 - x)
    y = (y + f4) * x
    y = (y + f3) * (1 - x)
    y = (y + f2) * x
    y = (y + f1) * (1 - x)
    y = (y + f0) * x
    return y + y_old

