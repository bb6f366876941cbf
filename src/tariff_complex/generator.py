"""Synthetic electricity-retail instances.

The generator builds instances with H = 3 price attributes per contract (peak
and off-peak energy rates plus a fixed annual charge), contracts cycling
through four archetypes (flat or time-of-use, standard or green), reservation
bills taken as the cheapest competitor offer, and costs from a flat per-kWh
stack.  Flat contracts are encoded by tying their peak and off-peak
coordinates with a pair of polytope rows, so every price coordinate stays
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, LinearConstraint, PricePolytope

_TIME_OF_USE_SHIFT = 0.15  # share of peak consumption movable off peak

# Six market offers: (peak rate, off-peak rate, fixed charge); flat offers
# carry one rate for both periods.
_COMPETITORS = (
    {"peak": 0.174, "offpeak": 0.174, "fixed": 136.0, "flat": True},
    {"peak": 0.1819, "offpeak": 0.1819, "fixed": 136.0, "flat": True},
    {"peak": 0.1840, "offpeak": 0.147, "fixed": 144.0, "flat": False},
    {"peak": 0.19, "offpeak": 0.155, "fixed": 144.0, "flat": False},
    {"peak": 0.166, "offpeak": 0.166, "fixed": 148.0, "flat": True},
    {"peak": 0.23, "offpeak": 0.135, "fixed": 141.0, "flat": False},
)

# (time_of_use, green) per archetype, cycled over contracts
_ARCHETYPES = ((False, False), (True, False), (False, True), (True, True))


@dataclass
class GeneratorConfig:
    """Knobs for the synthetic electricity-retail instance family."""

    S: int = 10
    n_company_contracts: int = 4
    seed: int = 0
    peak_kwh_range: tuple[float, float] = (1000.0, 5000.0)
    offpeak_kwh_range: tuple[float, float] = (500.0, 3000.0)
    load_shift: float = _TIME_OF_USE_SHIFT
    green_uplifts: tuple[float, ...] = (0.04, 0.02, 0.0)
    regulated_prices: tuple[float, float, float] = (0.1840, 0.147, 144.0)
    energy_cost_peak: float = 0.085
    energy_cost_offpeak: float = 0.060
    network_cost: float = 0.050
    fixed_cost: float = 60.0
    green_premium: float = 0.010
    rate_upper: float = 0.40
    fixed_upper: float = 400.0
    population: float = 1.0
    competitors: tuple[dict, ...] = _COMPETITORS

    def __post_init__(self):
        if self.S < 1:
            raise ValueError(f"need at least one segment, got S={self.S}")
        if self.n_company_contracts < 1:
            raise ValueError("need at least one company contract")
        if not 0.0 <= self.load_shift <= 1.0:
            raise ValueError(f"load_shift must lie in [0, 1], got {self.load_shift}")
        if any(u < 0 for u in self.green_uplifts):
            raise ValueError("green uplifts must be nonnegative")


def _consumption(cfg: GeneratorConfig, peak: float, offpeak: float, time_of_use: bool):
    if time_of_use:
        moved = cfg.load_shift * peak
        return peak - moved, offpeak + moved
    return peak, offpeak


def _offer_bill(cfg: GeneratorConfig, offer: dict, peak: float, offpeak: float) -> float:
    p, o = _consumption(cfg, peak, offpeak, time_of_use=not offer["flat"])
    return offer["peak"] * p + offer["offpeak"] * o + offer["fixed"]


def generate(cfg: GeneratorConfig) -> Instance:
    """Build a seeded synthetic instance; identical seeds give identical JSON."""
    rng = np.random.default_rng(cfg.seed)
    S, W, H = cfg.S, cfg.n_company_contracts, 3
    peak = rng.uniform(*cfg.peak_kwh_range, size=S)
    offpeak = rng.uniform(*cfg.offpeak_kwh_range, size=S)
    uplift = np.array([cfg.green_uplifts[s % len(cfg.green_uplifts)] for s in range(S)])

    E = np.zeros((S, W, H))
    R = np.zeros((S, W))
    C = np.zeros((S, W))
    reg = {"peak": cfg.regulated_prices[0], "offpeak": cfg.regulated_prices[1],
           "fixed": cfg.regulated_prices[2], "flat": False}
    extra = []
    for w in range(W):
        time_of_use, green = _ARCHETYPES[w % len(_ARCHETYPES)]
        if not time_of_use:
            # flat contract: same rate in both periods
            g = np.zeros(W * H)
            g[w * H] = 1.0
            g[w * H + 1] = -1.0
            extra.append(LinearConstraint(g=g, h=0.0))
            extra.append(LinearConstraint(g=-g, h=0.0))
        for s in range(S):
            p, o = _consumption(cfg, peak[s], offpeak[s], time_of_use)
            E[s, w] = (p, o, 1.0)
            best = min(_offer_bill(cfg, offer, peak[s], offpeak[s])
                       for offer in cfg.competitors)
            R[s, w] = best
            if green:
                R[s, w] += uplift[s] * _offer_bill(cfg, reg, peak[s], offpeak[s])
            unit_peak = cfg.energy_cost_peak + cfg.network_cost
            unit_off = cfg.energy_cost_offpeak + cfg.network_cost
            if green:
                unit_peak += cfg.green_premium
                unit_off += cfg.green_premium
            C[s, w] = unit_peak * p + unit_off * o + cfg.fixed_cost

    rho = rng.dirichlet(np.ones(S)) * cfg.population
    lower = np.zeros((W, H))
    upper = np.tile([cfg.rate_upper, cfg.rate_upper, cfg.fixed_upper], (W, 1))
    poly = PricePolytope(lower=lower, upper=upper, extra=tuple(extra))
    return Instance(S=S, W=W, H=H, E=E, R=R, C=C, rho=rho, polytope=poly)
