"""Environmental and economic post-processing of solved scenarios.

Technology contribution shares, per-region cashflows (with the storage-fee
transfer ledger kept separate from the national net, which mirrors the
cost-only objective), payback years, and CCS trade-flow accounting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import TECH_ORDER, TechKind, distance
from .engine import ScenarioResult


@dataclass
class ContributionShares:
    years: list  # calendar years
    solar_t: np.ndarray  # cumulative tonnes offset by year
    wind_t: np.ndarray
    ccs_t: np.ndarray
    solar_pct: float | None  # shares at the final year; None when nothing offset
    wind_pct: float | None
    ccs_pct: float | None

    @property
    def total_t(self) -> np.ndarray:
        return self.solar_t + self.wind_t + self.ccs_t


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

    def national_net_with_transfers(self) -> np.ndarray:
        return self.national_net() + self.storage_fee_received.sum(axis=0)

    def cumulative_net(self) -> np.ndarray:
        return np.cumsum(self.national_net())


def contribution_shares(result: ScenarioResult) -> ContributionShares:
    """Cumulative tonnes offset by solar, wind, and CCS, plus end shares."""
    inst = result.instance
    plan = result.plan
    by_tech = {}
    for k, kind in enumerate(TECH_ORDER):
        per_year = np.zeros(inst.T)
        for i, region in enumerate(inst.regions):
            per_year += region.tech[kind].g * plan.re_installed[i, k, :]
        by_tech[kind] = np.cumsum(per_year)
    ccs = np.cumsum(plan.ccs_of_region().sum(axis=0))
    total = by_tech[TechKind.SOLAR][-1] + by_tech[TechKind.WIND][-1] + ccs[-1]
    if total > 0:
        pct = [100.0 * by_tech[TechKind.SOLAR][-1] / total,
               100.0 * by_tech[TechKind.WIND][-1] / total,
               100.0 * ccs[-1] / total]
    else:
        pct = [None, None, None]
    return ContributionShares(
        years=list(inst.horizon.years),
        solar_t=by_tech[TechKind.SOLAR],
        wind_t=by_tech[TechKind.WIND],
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
    n, T = inst.n, inst.T
    g = inst.globals
    cp, ccsp, gt, sp = g.cp, g.ccsp, g.gt, g.sp

    invest_re = np.zeros((n, T))
    fit = np.zeros((n, T))
    ets = np.zeros((n, T))
    for i, region in enumerate(inst.regions):
        for k, kind in enumerate(TECH_ORDER):
            rt = region.tech[kind]
            re = plan.re_installed[i, k, :]
            invest_re[i] += rt.rp * re
            fit[i] += sp[kind] * rt.h * np.cumsum(re)
            ets[i] += cp * rt.g * re

    invest_ccs = ccsp * plan.ccs_of_region()
    transport = np.zeros((n, T))
    fee_paid = np.zeros((n, T))
    fee_recv = np.zeros((n, T))
    for j in inst.buyers:
        for i in inst.sellers:
            traded = plan.ccs_traded[j, i, :]
            if traded.any():
                transport[j] += gt * distance(j, i, inst) * traded
                fee_paid[j] += cp * traded
                fee_recv[i] += cp * traded

    return CashflowSeries(
        start_year=inst.horizon.start_year,
        invest_re=invest_re,
        invest_ccs=invest_ccs,
        transport_cost=transport,
        storage_fee_paid=fee_paid,
        fit_revenue=fit,
        ets_revenue=ets,
        storage_fee_received=fee_recv,
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
    traded: np.ndarray  # (n, n, T) tonnes, [buyer j, seller i, year]
    any_trading: bool
    total_traded_t: float


def trade_matrix(result: ScenarioResult) -> TradeMatrix:
    traded = result.plan.ccs_traded
    total = float(traded.sum())
    return TradeMatrix(traded=traded, any_trading=total > 0, total_traded_t=total)
