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
from ccsplan.builder import COST_ONLY, DeploymentPlan, VariableIndex, build_objective, scenario_config
from ccsplan.domain import GlobalParams, Horizon, ModelInstance, Region
from ccsplan.engine import ScenarioResult, run_scenario

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


def test_shares_none_when_nothing_deployed():
    inst = make_unit_instance(cap=np.inf)
    inst.globals.cp = np.array([0.0])
    inst.globals.sp = np.zeros((2, 1))
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
    assert cash.national_net().sum() == pytest.approx(-res.objective_value, rel=1e-12)


def test_trades_run_from_buyer_to_seller():
    # buyers b1, b2 and sellers s1, s2 interleaved, two years, and a given
    # matrix with d(j, i) != d(i, j): the traded-CCS objective coefficients
    # and the cashflows must read d from buyer j to seller i
    T = 2
    ids, storage = ("b1", "s1", "b2", "s2"), (0.0, 50.0, 0.0, 80.0)
    regions = [
        Region(id=rid, baseline_emissions=100.0, ccs_capacity=cap, location=None)
        for rid, cap in zip(ids, storage)
    ]
    g = GlobalParams(cp=np.array([3.0, 5.0]), ccsp=np.array([2.0, 7.0]), gt=np.array([0.1, 0.3]),
                     cap=np.full(T, np.inf), sp=np.zeros((2, T)))
    km = np.array([[0.0, 10.0, 20.0, 30.0], [40.0, 0.0, 50.0, 60.0],
                   [70.0, 80.0, 0.0, 90.0], [110.0, 130.0, 170.0, 0.0]])
    inst = ModelInstance(horizon=Horizon(2018, T), regions=regions, globals=g, g=np.zeros((4, 2, T)),
                         rp=np.zeros((4, 2, T)), h=np.zeros((4, 2)), potential=np.zeros((4, 2)), distances=km)
    np.testing.assert_array_equal(inst.buyers, [0, 2])
    np.testing.assert_array_equal(inst.sellers, [1, 3])
    assert np.array(ids)[inst.buyers].tolist() == ["b1", "b2"]

    index = VariableIndex(inst)
    c = build_objective(inst, index)
    traded = np.zeros((4, 4, T))
    for n, (j, i) in enumerate([(0, 1), (0, 3), (2, 1), (2, 3)]):
        np.testing.assert_array_equal(c[index.ccs_b[j, i]], g.ccsp + g.gt * km[j, i] + g.cp)
        traded[j, i] = [1.0 + n, 0.5 * n]

    plan = DeploymentPlan(re_installed=np.zeros((4, 2, T)), ccs_local=np.zeros((4, T)), ccs_traded=traded)
    result = ScenarioResult(config=scenario_config(1), instance=inst, plan=plan, emissions=np.zeros((4, T)),
                            objective_value=0.0, reduction_pct=0.0, solve_stats={})
    cash = cashflow(result)
    transport, paid, received = np.zeros((4, T)), np.zeros((4, T)), np.zeros((4, T))
    for j in inst.buyers:
        for i in inst.sellers:
            transport[j] += g.gt * km[j, i] * traded[j, i]
            paid[j] += g.cp * traded[j, i]
            received[i] += g.cp * traded[j, i]
    np.testing.assert_array_equal(cash.transport_cost, transport)
    np.testing.assert_array_equal(cash.storage_fee_paid, paid)
    np.testing.assert_array_equal(cash.storage_fee_received, received)


def test_trade_matrix_flags():
    inst = make_trade_instance()
    res = run_scenario(inst, scenario_config(3, nonneg_emissions=True))
    tm = trade_matrix(res)
    assert tm.any_trading
    assert tm.total_traded_t == pytest.approx(35.0)
    res_free = run_scenario(inst, scenario_config(3))  # no floor: local storage suffices
    assert not trade_matrix(res_free).any_trading
