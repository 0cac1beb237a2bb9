"""Gaussian mechanism calibration and Renyi-DP accounting.

All noise math is real-valued; rounding to whole bytes happens in the shaping
layer. The accountant composes N Gaussian queries of sensitivity ``delta_w``
and noise ``sigma`` in the Renyi domain and converts to an (epsilon, delta)
guarantee by minimizing over Renyi orders.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ConfigError

# Orders used when converting composed Renyi losses to (epsilon, delta). The
# analytic optimum for pure Gaussian composition is appended per call; the
# fixed grid guards against misuse with future non-Gaussian losses.
ALPHA_GRID: tuple[float, ...] = tuple(
    [1.01, 1.05]
    + [round(1.0 + 0.1 * i, 2) for i in range(1, 10)]  # 1.1 .. 1.9
    + list(range(2, 65))
    + [128.0, 256.0, 512.0]
)


@dataclass(frozen=True)
class DpParams:
    """Full shaping configuration.

    epsilon_t/delta_t: per-query privacy budget; delta_w: neighboring distance
    bound (bytes); interval/window: shaping interval T and neighboring window W
    in nanoseconds, window a positive multiple of interval; cutoff: upper clamp
    on the shaped length (bytes, ``math.inf`` for unbounded).
    """

    epsilon_t: float
    delta_t: float
    delta_w: float
    interval: int
    window: int
    cutoff: float = math.inf

    def __post_init__(self):
        if self.epsilon_t <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon_t}")
        if not 0 < self.delta_t < 1:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta_t}")
        if self.delta_w <= 0:
            raise ConfigError(f"sensitivity must be > 0, got {self.delta_w}")
        if self.interval <= 0 or self.window <= 0:
            raise ConfigError("interval and window must be positive")
        if self.window % self.interval != 0:
            raise ConfigError(
                f"window ({self.window}) must be a multiple of interval ({self.interval})"
            )
        if self.cutoff <= 0:
            raise ConfigError(f"cutoff must be > 0, got {self.cutoff}")

    @property
    def intervals_per_window(self) -> int:
        return self.window // self.interval


@dataclass(frozen=True)
class PrivacyReport:
    """Composed (epsilon, delta) guarantee over a sequence of queries."""

    sigma: float
    queries: int
    epsilon_total: float
    alpha_star: float


def gaussian_sigma(delta_w: float, epsilon: float, delta: float) -> float:
    """Classical single-query Gaussian calibration.

    sigma = delta_w * sqrt(2 * ln(1.25/delta)) / epsilon.
    """
    if delta_w <= 0 or epsilon <= 0:
        raise ConfigError("sensitivity and epsilon must be > 0")
    if not 0 < delta < 1:
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    return delta_w * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def sample_gaussian(sigma: float, rng: random.Random) -> float:
    """One draw from N(0, sigma^2).

    Uses the generator's Box-Muller transform (``random.Random.gauss``), which
    is rejection-free, so draws are a fixed function of the underlying uniform
    stream; a given seed always yields the same sequence. sigma == 0 returns
    exactly 0.0. The tunnel draws here per tick; ``simulate`` uses ``gaussian_draws``.
    """
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return 0.0
    return rng.gauss(0.0, sigma)


def gaussian_draws(sigma: float, rng: random.Random, n: int) -> list[float]:
    """``n`` successive ``sample_gaussian(sigma, rng)`` draws, bit for bit, in one pass.

    Leaves ``rng`` as those calls would, ``gauss_next`` included. One
    ``getrandbits`` call gives the uniforms: its 32-bit words are the
    generator's outputs, least significant first, made into ``random()``'s
    53-bit floats. numpy does Box-Muller's correctly rounded steps (products,
    sums, square root); log, cos and sin go through ``math`` as in ``gauss``,
    as numpy's may differ in the last ulp. sigma == 0 consumes nothing.
    """
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0 or not n:
        return [0.0] * n
    import numpy as np  # here, so that a tunnel process never loads it

    cached = [] if rng.gauss_next is None else [rng.gauss_next]  # gauss's unused sine value
    pairs = (n - len(cached) + 1) // 2
    words = np.frombuffer(rng.getrandbits(128 * pairs).to_bytes(16 * pairs, "little"), "<u4")
    u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)
    x2pi = (u[0::2] * (2.0 * math.pi)).tolist()
    g2rad = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - u[1::2]).tolist()), float, pairs))
    cos, sin = (np.fromiter(map(f, x2pi), float, pairs) * g2rad for f in (math.cos, math.sin))
    z = np.concatenate((cached, np.column_stack((cos, sin)).ravel()))
    rng.gauss_next = float(z[n]) if len(z) > n else None
    return (0.0 + z[:n] * sigma).tolist()


def rdp_epsilon_gaussian(delta_w: float, sigma: float, alpha: float) -> float:
    """Renyi loss of one Gaussian query at order alpha: alpha * d^2 / (2 sigma^2)."""
    if alpha <= 1:
        raise ConfigError(f"Renyi order must be > 1, got {alpha}")
    if sigma <= 0 or delta_w <= 0:
        raise ConfigError("sigma and sensitivity must be > 0")
    return alpha * delta_w * delta_w / (2.0 * sigma * sigma)


def _alpha_candidates(rho_total: float, delta_target: float) -> list[float]:
    candidates = list(ALPHA_GRID)
    if rho_total > 0:
        # exact minimizer of rho*alpha + ln(1/delta)/(alpha-1)
        candidates.append(1.0 + math.sqrt(math.log(1.0 / delta_target) / rho_total))
    return candidates


def compose_to_dp(delta_w: float, sigma: float, queries: int, delta_target: float) -> PrivacyReport:
    """Compose ``queries`` Gaussian queries and convert to (epsilon, delta).

    epsilon_total = min over orders alpha of
    ``queries * rdp(alpha) + ln(1/delta_target) / (alpha - 1)``.
    """
    if queries < 0:
        raise ConfigError(f"query count must be >= 0, got {queries}")
    if not 0 < delta_target < 1:
        raise ConfigError(f"delta must be in (0, 1), got {delta_target}")
    if queries == 0:
        return PrivacyReport(sigma, 0, 0.0, math.inf)
    if sigma <= 0:
        raise ConfigError("sigma must be > 0 when composing queries")
    rho_total = queries * delta_w * delta_w / (2.0 * sigma * sigma)
    log_inv_delta = math.log(1.0 / delta_target)
    best_eps = math.inf
    best_alpha = math.inf
    for alpha in _alpha_candidates(rho_total, delta_target):
        eps = queries * rdp_epsilon_gaussian(delta_w, sigma, alpha) + log_inv_delta / (alpha - 1.0)
        if eps < best_eps:
            best_eps = eps
            best_alpha = alpha
    return PrivacyReport(sigma, queries, best_eps, best_alpha)


def sigma_for_budget(
    delta_w: float,
    epsilon_target: float,
    delta_target: float,
    queries: int,
    rel_tol: float = 1e-3,
) -> float:
    """Smallest sigma whose composed loss over ``queries`` stays within budget.

    Bisects on sigma to within ``rel_tol`` relative tolerance; the returned
    value always satisfies compose_to_dp(...) <= epsilon_target.
    """
    if not 0 < epsilon_target < math.inf:
        raise ConfigError(f"epsilon budget must be finite and > 0, got {epsilon_target}")
    if queries < 1:
        raise ConfigError(f"query count must be >= 1, got {queries}")

    def loss(sigma: float) -> float:
        return compose_to_dp(delta_w, sigma, queries, delta_target).epsilon_total

    hi = gaussian_sigma(delta_w, epsilon_target, delta_target)
    while loss(hi) > epsilon_target:
        hi *= 2.0
    lo = hi / 2.0
    while loss(lo) <= epsilon_target:  # stops: the loss grows without bound as sigma falls
        lo /= 2.0
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if loss(mid) <= epsilon_target:
            hi = mid
        else:
            lo = mid
    return hi


def tamaraw_gamma_bound(epsilon: float, n: int) -> float:
    """Upper bound on an optimal classifier's success rate over an n-trace corpus.

    An epsilon-DP shaped corpus of n traces caps any attack's correct-guess
    probability at min(1, e^epsilon / n).
    """
    if n < 1:
        raise ConfigError(f"corpus size must be >= 1, got {n}")
    if epsilon < 0:
        raise ConfigError(f"epsilon must be >= 0, got {epsilon}")
    return min(1.0, math.exp(epsilon) / n)
