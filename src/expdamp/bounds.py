"""Decay bounds on the history term of the initialization response.

The history term -c*(h*psi) splits over the root structure into a
vibratory part I1 (complex pair) and a dissipative part I2 (real root).
Bounding |cos| by 1 and |psi| by M*(1-exp(-mu*a))*exp(-mu*t) gives the
analytic envelopes

    B1(t) = 2c|R1| M (1-e^{-mu a}) |e^{-mu t} - e^{-alpha t}| / |alpha - mu|
    B2(t) =  c|R3| M (1-e^{-mu a}) |e^{-mu t} - e^{-gamma t}| / |gamma - mu|,

both differences of decaying exponentials, hence vanishing as t grows.
The residue magnitudes |R1|, |R3| (rather than signed values) make the
domination a theorem for genuinely complex residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, NotOscillatory
from .eigen import EigenSolution, solve_eigen
from .history import history_weight
from .model import HistoryProfile, InitialState, OscillatorParams, _times, history_sup_norm
from .response import initialization_response, time_grid

__all__ = ["BoundReport", "split_history_term", "decay_bounds", "verify_decay"]


@dataclass(frozen=True)
class BoundReport:
    """Per-sample bound checks plus tail/envelope assertions.

    envelope_ok and tail_ok are None, and tail_time is inf, when the
    assertions were skipped: for an undamped spectrum (c = 0), and where
    rho = min(alpha, gamma, mu) is not positive enough for 30/rho to be a
    finite time.
    """

    t: np.ndarray
    i1_abs: np.ndarray
    i2_abs: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    ok1: np.ndarray
    ok2: np.ndarray
    undamped: bool
    envelope_ok: bool | None
    tail_time: float
    tail_x: float
    tail_i1: float
    tail_i2: float
    tail_ok: bool | None

    @property
    def bounds_ok(self) -> bool:
        return bool(np.all(self.ok1) and np.all(self.ok2))


def _require_oscillatory(eig: EigenSolution):
    if not eig.oscillatory:
        raise NotOscillatory(
            "the spectrum has three real roots; the vibratory/dissipative "
            "split needs a complex-conjugate pair"
        )


def split_history_term(
    params: OscillatorParams,
    eig: EigenSolution,
    history: HistoryProfile | None,
    t,
):
    """(I1, I2): vibratory and dissipative parts of -c*(h*psi)(t), finite t >= 0."""
    _require_oscillatory(eig)
    t = _times(t, "the history term")
    scalar = t.ndim == 0
    w = history_weight(params.kernel, history).value
    if params.c == 0.0 or w == 0.0:
        zero = np.zeros_like(t)
        return (0.0, 0.0) if scalar else (zero, zero)
    mu, c = params.mu, params.c
    # A pair whose real part rounds above 0 overflows the exponential, and
    # a non-finite part raises below.
    with np.errstate(over="ignore", invalid="ignore"):
        down = np.exp(-mu * t)
        conv_pair = w * (np.exp(eig.s1 * t) - down) / (eig.s1 + mu)
        i1 = -2.0 * c * (eig.r1 * conv_pair).real
        s3, r3 = eig.s3.real, eig.r3.real
        # r3 = (mu + s3)/p'(s3) is exactly 0 when s3 + mu rounds to 0: no mode, not 0/0.
        i2 = -c * r3 * w * (np.exp(s3 * t) - down) / (s3 + mu) if r3 else np.zeros_like(t)
    if not (np.isfinite(i1).all() and np.isfinite(i2).all()):
        raise DegenerateSpectrum(
            "the history term leaves float64's range; the roots are not resolved at this scale"
        )
    if scalar:
        return float(i1), float(i2)
    return np.asarray(i1, dtype=float), np.asarray(i2, dtype=float)


def _decay_factor(rate: float, mu: float, t):
    """|e^{-mu t} - e^{-rate t}| / |rate - mu|, with the analytic limit
    t*e^{-mu t} when rate and mu (nearly) coincide; t comes checked from decay_bounds."""
    if abs(rate - mu) < 1e-8 * mu:
        out = t * np.exp(-mu * t)
    else:
        out = np.abs(np.exp(-mu * t) - np.exp(-rate * t)) / abs(rate - mu)
    return out if out.ndim else float(out)


def decay_bounds(
    params: OscillatorParams,
    eig: EigenSolution,
    m_sup: float,
    a: float,
    t,
):
    """(B1, B2) envelopes for |I1|, |I2| given the history sup-norm M; finite t >= 0."""
    _require_oscillatory(eig)
    t = _times(t, "the bounds")
    if not 0 <= m_sup < math.inf:
        raise ValueError(f"history sup-norm must be finite and >= 0, got {m_sup}")
    if not 0 <= a < math.inf:
        raise ValueError(f"history length a must be finite and >= 0, got {a}")
    mu, c = params.mu, params.c
    depth = -math.expm1(-mu * a)
    coeff1 = 2.0 * c * abs(eig.r1) * m_sup * depth
    coeff2 = c * abs(eig.r3) * m_sup * depth
    b1 = coeff1 * _decay_factor(eig.alpha, mu, t)
    b2 = coeff2 * _decay_factor(eig.gamma, mu, t)
    return b1, b2


def _amplitude_scale(state: InitialState, w: float, params, beta: float) -> float:
    return max(
        abs(state.x0),
        abs(state.v0) / beta,
        abs(w) * params.c / params.k + 1e-12,
    )


def verify_decay(
    params: OscillatorParams,
    state: InitialState,
    history: HistoryProfile | None,
    t_end: float,
    dt: float,
) -> BoundReport:
    """Check bound domination on the grid and asymptotic recession.

    Envelope and tail assertions run on internal analytic grids (the
    closed forms are O(1) per point), so they do not depend on t_end.
    Failed assertions come back as flags, never exceptions; undamped
    systems (c = 0), and decay rates below float64's resolution (30/rho
    not finite), skip the decay assertions entirely.
    """
    eig = solve_eigen(params)
    _require_oscillatory(eig)
    t = time_grid(t_end, dt)

    w = history_weight(params.kernel, history).value
    m_sup = 0.0
    a = 0.0
    if history is not None:
        m_sup = history_sup_norm(history)
        a = history.a

    i1, i2 = split_history_term(params, eig, history, t)
    i1_abs, i2_abs = np.abs(i1), np.abs(i2)
    b1, b2 = decay_bounds(params, eig, m_sup, a, t)
    b1 = np.broadcast_to(np.asarray(b1, dtype=float), t.shape)
    b2 = np.broadcast_to(np.asarray(b2, dtype=float), t.shape)
    ok1 = i1_abs <= b1 + 1e-10
    ok2 = i2_abs <= b2 + 1e-10

    undamped = params.c == 0.0
    alpha, beta, gamma = eig.alpha, eig.beta, eig.gamma
    rho = min(alpha, gamma, params.mu)
    if undamped or not rho > 30.0 / np.finfo(float).max:
        return BoundReport(
            t=t, i1_abs=i1_abs, i2_abs=i2_abs, b1=np.asarray(b1), b2=np.asarray(b2),
            ok1=ok1, ok2=ok2, undamped=undamped, envelope_ok=None,
            tail_time=math.inf, tail_x=math.nan, tail_i1=math.nan,
            tail_i2=math.nan, tail_ok=None,
        )

    scale = _amplitude_scale(state, w, params, beta)
    atol = 1e-12 * scale

    # Envelope recession: window maxima of |x| strictly decrease past 10/rho;
    # tail recession at 30/rho.  Past float64's range the modal sums overflow
    # to inf or NaN there, which the roots cannot resolve.
    window = 2.0 * math.pi / beta
    tail_time = 30.0 / rho
    tail_grid = np.linspace(tail_time, tail_time + max(window, 1.0 / rho), 257)
    with np.errstate(over="ignore", invalid="ignore"):
        maxima = []
        for j in range(6):
            lo = 10.0 / rho + j * window
            grid = np.linspace(lo, lo + window, 65)
            maxima.append(float(np.max(np.abs(
                initialization_response(params, state, history, grid)
            ))))
        tail_x = float(np.max(np.abs(
            initialization_response(params, state, history, tail_grid)
        )))
    if not np.isfinite(maxima + [tail_x]).all():
        raise DegenerateSpectrum("the modal sums leave float64's range past 10/rho")
    envelope_ok = all(
        later < earlier or later <= atol
        for earlier, later in zip(maxima, maxima[1:])
    )

    t_i1, t_i2 = split_history_term(params, eig, history, tail_grid)
    tail_i1 = float(np.max(np.abs(t_i1)))
    tail_i2 = float(np.max(np.abs(t_i2)))
    tol = 1e-6 * scale
    tail_ok = tail_x < tol and tail_i1 < tol and tail_i2 < tol

    return BoundReport(
        t=t, i1_abs=i1_abs, i2_abs=i2_abs, b1=np.asarray(b1), b2=np.asarray(b2),
        ok1=ok1, ok2=ok2, undamped=False, envelope_ok=envelope_ok,
        tail_time=tail_time, tail_x=tail_x, tail_i1=tail_i1, tail_i2=tail_i2,
        tail_ok=tail_ok,
    )
