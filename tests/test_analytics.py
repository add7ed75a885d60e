import numpy as np
import pytest

from ccsplan.analytics import (
    CashflowSeries,
    cashflow,
    contribution_shares,
    payback_year,
    reduction_percentage,
    trade_matrix,
)
from ccsplan.builder import COST_ONLY, scenario_config
from ccsplan.engine import run_scenario

from conftest import make_trade_instance, make_unit_instance


def test_reduction_percentage_headline():
    assert reduction_percentage(834.24e6, 1.25e9) == pytest.approx(66.7392)


def test_reduction_percentage_rejects_bad_baseline():
    with pytest.raises(ValueError, match="> 0"):
        reduction_percentage(1.0, 0.0)
    with pytest.raises(ValueError, match="> 0"):
        reduction_percentage(1.0, -5.0)


@pytest.fixture
def unit_result(unit_instance):
    return run_scenario(unit_instance, scenario_config(1, objective_mode=COST_ONLY))


def test_unit_contribution_shares(unit_result):
    shares = contribution_shares(unit_result)
    assert shares.solar_pct == pytest.approx(80.0)
    assert shares.wind_pct == pytest.approx(0.0)
    assert shares.ccs_pct == pytest.approx(20.0)
    np.testing.assert_allclose(shares.total_t, [50.0])
    assert shares.years == [2018]


def test_shares_none_when_nothing_deployed():
    inst = make_unit_instance(cap=np.inf)
    inst.globals.cp = np.array([0.0])
    inst.globals.sp = {k: np.zeros(1) for k in inst.globals.sp}
    res = run_scenario(inst, scenario_config(1, objective_mode=COST_ONLY))
    shares = contribution_shares(res)
    assert shares.solar_pct is None and shares.ccs_pct is None


def test_cashflow_matches_negated_objective(unit_result):
    cash = cashflow(unit_result)
    total = cash.national_net().sum()
    assert total == pytest.approx(-unit_result.objective_value, rel=1e-12)
    np.testing.assert_allclose(cash.invest_re.sum(), 32.0)  # 8 yen/GW * 4 GW
    np.testing.assert_allclose(cash.fit_revenue.sum(), 8.0)  # 2 * 1 GWh/GW * 4
    np.testing.assert_allclose(cash.ets_revenue.sum(), 40.0)  # credits accrue to the renewables


def test_unit_payback_is_first_year(unit_result):
    assert payback_year(cashflow(unit_result)) == 2018


def test_payback_none_when_never_positive():
    neg = CashflowSeries(
        start_year=2018,
        invest_re=np.full((1, 3), 5.0),
        invest_ccs=np.zeros((1, 3)),
        transport_cost=np.zeros((1, 3)),
        storage_fee_paid=np.zeros((1, 3)),
        fit_revenue=np.ones((1, 3)),
        ets_revenue=np.zeros((1, 3)),
        storage_fee_received=np.zeros((1, 3)),
    )
    assert payback_year(neg) is None
    np.testing.assert_allclose(neg.cumulative_net(), [-4.0, -8.0, -12.0])


def test_payback_mid_horizon():
    s = CashflowSeries(
        start_year=2018,
        invest_re=np.array([[10.0, 0.0, 0.0]]),
        invest_ccs=np.zeros((1, 3)),
        transport_cost=np.zeros((1, 3)),
        storage_fee_paid=np.zeros((1, 3)),
        fit_revenue=np.array([[0.0, 6.0, 6.0]]),
        ets_revenue=np.zeros((1, 3)),
        storage_fee_received=np.zeros((1, 3)),
    )
    assert payback_year(s) == 2020


def test_transfer_ledger_balances():
    inst = make_trade_instance()
    res = run_scenario(inst, scenario_config(3, nonneg_emissions=True))
    cash = cashflow(res)
    assert cash.storage_fee_paid.sum() == pytest.approx(cash.storage_fee_received.sum())
    assert cash.storage_fee_received[0].sum() == pytest.approx(35.0)  # cp=1 per tonne
    with_transfers = cash.national_net_with_transfers().sum()
    assert with_transfers == pytest.approx(cash.national_net().sum() + 35.0)
    assert cash.national_net().sum() == pytest.approx(-res.objective_value, rel=1e-12)


def test_trade_matrix_flags():
    inst = make_trade_instance()
    res = run_scenario(inst, scenario_config(3, nonneg_emissions=True))
    tm = trade_matrix(res)
    assert tm.any_trading
    assert tm.total_traded_t == pytest.approx(35.0)
    res_free = run_scenario(inst, scenario_config(3))  # no floor: local storage suffices
    assert not trade_matrix(res_free).any_trading
