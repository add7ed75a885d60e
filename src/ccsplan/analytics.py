"""Environmental and economic post-processing of solved scenarios.

Technology contribution shares, per-region cashflows (with the storage-fee
transfer ledger kept separate from the national net, which mirrors the
cost-only objective), payback years, and CCS trade-flow accounting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import ScenarioResult


@dataclass
class ContributionShares:
    solar_t: np.ndarray  # cumulative tonnes offset by year
    wind_t: np.ndarray
    ccs_t: np.ndarray
    solar_pct: float | None  # shares at the final year; None when nothing offset
    wind_pct: float | None
    ccs_pct: float | None


@dataclass
class CashflowSeries:
    start_year: int
    invest_re: np.ndarray  # (n, T) yen
    invest_ccs: np.ndarray  # capture cost, attributed to the origin region
    transport_cost: np.ndarray
    storage_fee_paid: np.ndarray
    fit_revenue: np.ndarray
    ets_revenue: np.ndarray
    storage_fee_received: np.ndarray  # transfer to selling regions

    def net(self) -> np.ndarray:
        """(n, T) net per region and year, excluding seller transfer receipts."""
        return (
            self.fit_revenue + self.ets_revenue
            - self.invest_re - self.invest_ccs
            - self.transport_cost - self.storage_fee_paid
        )

    def national_net(self) -> np.ndarray:
        """Yearly national net excluding seller transfer receipts (the view
        that reproduces the negated cost objective)."""
        return self.net().sum(axis=0)

    def cumulative_net(self) -> np.ndarray:
        return np.cumsum(self.national_net())


def contribution_shares(result: ScenarioResult) -> ContributionShares:
    """Cumulative tonnes offset by solar, wind, and CCS, plus end shares."""
    inst = result.instance
    plan = result.plan
    # (K, T) in TECH_ORDER: each year's offsets added region by region, then accumulated
    solar, wind = np.cumsum((inst.g * plan.re_installed).sum(axis=0), axis=1)
    ccs = np.cumsum(plan.ccs_of_region().sum(axis=0))
    total = solar[-1] + wind[-1] + ccs[-1]
    if total > 0:
        pct = [100.0 * offset[-1] / total for offset in (solar, wind, ccs)]
    else:
        pct = [None, None, None]
    return ContributionShares(
        solar_t=solar,
        wind_t=wind,
        ccs_t=ccs,
        solar_pct=pct[0],
        wind_pct=pct[1],
        ccs_pct=pct[2],
    )


def reduction_percentage(total_offset: float, national_baseline: float) -> float:
    """Headline reduction against an external national baseline, in percent."""
    if national_baseline <= 0:
        raise ValueError(f"national baseline must be > 0, got {national_baseline!r}")
    return 100.0 * total_offset / national_baseline


def cashflow(result: ScenarioResult) -> CashflowSeries:
    """Per region-year cashflows evaluated on the plan.

    FIT revenue applies the year-t price to all capacity installed up to t.
    """
    inst = result.instance
    plan = result.plan
    g = inst.globals
    cp, ccsp, gt, sp = g.cp, g.ccsp, g.gt, g.sp

    re = plan.re_installed  # (n, K, T); each sum below adds the techs in turn
    fit_price = sp * inst.h[:, :, None]
    invest_re = (inst.rp * re).sum(axis=1)
    fit = (fit_price * np.cumsum(re, axis=2)).sum(axis=1)
    ets = (cp * inst.g * re).sum(axis=1)

    invest_ccs = ccsp * plan.ccs_of_region()
    # ccs_traded[j, i, t] is bought by j from i; each sum adds the regions in turn
    transport = (gt * inst.distance_km[:, :, None] * plan.ccs_traded).sum(axis=1)
    fee = cp * plan.ccs_traded

    return CashflowSeries(
        start_year=inst.horizon.start_year,
        invest_re=invest_re,
        invest_ccs=invest_ccs,
        transport_cost=transport,
        storage_fee_paid=fee.sum(axis=1),
        fit_revenue=fit,
        ets_revenue=ets,
        storage_fee_received=fee.sum(axis=0),
    )


def payback_year(series: CashflowSeries) -> int | None:
    """First calendar year with non-negative national cumulative net, or None
    when break-even is not reached within the horizon."""
    cum = series.cumulative_net()
    hit = np.nonzero(cum >= 0)[0]
    if hit.size == 0:
        return None
    return series.start_year + int(hit[0])


@dataclass
class TradeMatrix:
    any_trading: bool
    total_traded_t: float


def trade_matrix(result: ScenarioResult) -> TradeMatrix:
    total = result.plan.total_traded_t
    return TradeMatrix(any_trading=total > 0, total_traded_t=total)
