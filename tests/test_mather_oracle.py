"""Mather theory's closed forms for the mechanical family against the
package's probe regime.

For H = (p + a)^2 / 2 + V(x) on the circle with |a| above a0 = int
sqrt(2 (max V - V)), the Mather set is one periodic orbit:
  - alpha(a) solves int sqrt(2 (alpha - V)) dx = |a|;
  - the drift is v = sign(a) sqrt(2 (alpha - V)), and tau = int dx / |v|;
  - m* has density 1 / (tau |v|), and alpha'(a) = 1 / tau, the orbit's
    rotation number (Mather, Math. Z. 207, 1991);
  - for an x-independent coupling F(m) = int f dm, c(m_T) = alpha -
    int f dm* for every m_T.
For V = 0 these are alpha = a^2 / 2 and tau = 1 / |a|.

The probe runs to t = 20 at dt = 0.004, and that short probe, not the
grid, is the largest error: c0 sits above alpha by 1.3e-4 to 2.7e-4 and
the drift's period is off by up to 0.39% at both n = 256 and 512.  The
bounds below are the gaps measured on this probe plus 25%; a sharper
regime may tighten them, never loosen them.  The tests take about 2.5 s.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from mfglab.coupling import CouplingFunctional
from mfglab.hamiltonians import Mechanical, Potential
from mfglab.lax_oleinik import alpha_function, critical_value
from mfglab.measures import CircleMeasure
from mfglab.mfg import periodic_regime, periodic_solution

T_PROBE, DT = 20.0, 0.004
H_ALPHA = 0.02  # alpha' by the centred difference of two probes at a +- this
MARGIN = 1.25   # each bound is the measured gap times this
# measured gaps (max over n = 256 and 512): c0 - alpha, drift tau - tau,
# alpha' - 1 / tau and c(m_T) - (alpha - int f dm*), the last two at n = 512
MEASURED = {
    1.6: (1.481e-4, 2.662e-3, 3.447e-3, 5.860e-2),
    2.0: (2.664e-4, 8.214e-4, 4.490e-4, 3.720e-2),
}


def cosine_speed(alpha: float, x):
    """|v| = sqrt(2 (alpha - V)) on the orbit of energy alpha, V = cos 2 pi x."""
    return np.sqrt(2.0 * (alpha - np.cos(2.0 * np.pi * x)))


def cosine_alpha(a: float) -> float:
    """alpha(a) for the cosine potential (max V = 1), |a| above a0 = 4 / pi."""
    def action(alpha):
        return quad(lambda x: cosine_speed(alpha, x), 0.0, 1.0, limit=200)[0] - abs(a)

    return brentq(action, 1.0, 1.0 + a * a, xtol=1e-15)


def cosine_tau(alpha: float) -> float:
    return quad(lambda x: 1.0 / cosine_speed(alpha, x), 0.0, 1.0, limit=200)[0]


def mather_mean(f, alpha: float) -> float:
    """int f dm* for m* of density 1 / (tau |v|)."""
    integral = quad(lambda x: f(x) / cosine_speed(alpha, x), 0.0, 1.0, limit=200)[0]
    return integral / cosine_tau(alpha)


@pytest.mark.parametrize("a", sorted(MEASURED))
def test_probe_regime_against_mather_oracle(a):
    c0_gap, tau_gap, slope_gap, c_gap = (MARGIN * g for g in MEASURED[a])
    model = Mechanical(a, Potential.cosine())
    alpha = cosine_alpha(a)
    tau = cosine_tau(alpha)
    regimes = {n: periodic_regime(model, critical_value(model, T_PROBE, n, DT))
               for n in (256, 512)}
    for n, regime in regimes.items():
        assert abs(regime.c0 - alpha) <= c0_gap, (n, regime.c0 - alpha)
        assert abs(regime.drift.tau - tau) <= tau_gap, (n, regime.drift.tau - tau)
    # the rest at n = 512 only: at n = 256 the bump's push-forward drifts
    # 1.23e-4 in mass at a = 1.6, over the transport's 1e-4 check
    n = 512
    slope = (alpha_function(model, a + H_ALPHA, T_PROBE, n, DT)
             - alpha_function(model, a - H_ALPHA, T_PROBE, n, DT)) / (2.0 * H_ALPHA)
    assert abs(slope - 1.0 / tau) <= slope_gap, slope - 1.0 / tau
    coupling = CouplingFunctional.cosine4pi()
    # c(m_T) carries the probe's bias times |f| <= 4 pi, the same for each m_T
    c_exact = alpha - mather_mean(coupling.f, alpha)
    for name in ("one-plus-cosine", "gaussian-bump(0.3,0.1)", "lebesgue"):
        ps = periodic_solution(CircleMeasure.from_name(name, n), regimes[n], coupling, dt=DT)
        assert abs(ps.c_mt - c_exact) <= c_gap, (name, ps.c_mt - c_exact)


def test_free_particle_regime_is_exact():
    """V = 0: alpha = a^2 / 2 and tau = 1 / |a|, to round-off (measured
    gaps 5.6e-17 and 4.4e-16 at n = 256; the bound 1e-14 is round-off
    with a 20x margin)."""
    a = 0.7
    model = Mechanical(a, Potential.zero())
    regime = periodic_regime(model, critical_value(model, T_PROBE, 256, DT))
    assert abs(regime.c0 - a * a / 2.0) <= 1e-14
    assert abs(regime.drift.tau - 1.0 / a) <= 1e-14
