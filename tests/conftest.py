import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from ccsplan.builder import COST_ONLY, MAX_REDUCTION_LEX, scenario_config
from ccsplan.dataio import load_validated, toy_nation_path
from ccsplan.domain import (
    GlobalParams,
    Horizon,
    ModelInstance,
    Region,
)
from ccsplan.engine import run_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "toy_nation.json"
GEN_BAU_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "gen_bau.py"


def make_unit_instance(cap=50.0, ccs_capacity=30.0):
    """One region, one year, solar only; small enough to check by hand.

    Optimum under the yearly-split storage limit: install the full 4 GW of
    solar (offsets 40 t) and store 10 t to reach the 50 t ceiling, for a net
    objective of -6.
    """
    T = 1
    region = Region(id="R", baseline_emissions=100.0, ccs_capacity=ccs_capacity, location=(0.0, 0.0))
    g = GlobalParams(
        cp=np.array([1.0]),
        ccsp=np.array([1.0]),
        gt=np.array([0.0]),
        cap=np.array([cap]),
        sp=np.array([[2.0], [0.0]]),
    )
    # (region, tech, year) in TECH_ORDER: solar, then an all-zero wind
    return ModelInstance(
        horizon=Horizon(2018, T),
        regions=[region],
        globals=g,
        g=np.array([[[10.0], [0.0]]]),
        rp=np.array([[[8.0], [0.0]]]),
        h=np.array([[1.0, 0.0]]),
        potential=np.array([[4.0, 0.0]]),
    )


def make_trade_instance():
    """Two regions, one year, no renewables; the buyer must purchase storage.

    The seller's own emissions (5 t) cap its local storage once the per-region
    emission floor is on, so meeting the 60 t national ceiling forces 35 t of
    traded CCS.
    """
    T = 1

    def bare(rid, c0, cap_t, loc):
        return Region(id=rid, baseline_emissions=c0, ccs_capacity=cap_t, location=loc)

    g = GlobalParams(
        cp=np.array([1.0]),
        ccsp=np.array([1.0]),
        gt=np.array([0.01]),
        cap=np.array([60.0]),
        sp=np.zeros((2, T)),
    )
    return ModelInstance(
        horizon=Horizon(2018, T),
        regions=[bare("seller", 5.0, 100.0, (0.0, 0.0)), bare("buyer", 95.0, 0.0, (0.0, 0.0))],
        globals=g,
        g=np.zeros((2, 2, T)),
        rp=np.zeros((2, 2, T)),
        h=np.zeros((2, 2)),
        potential=np.zeros((2, 2)),
        distances=np.array([[0.0, 100.0], [100.0, 0.0]]),
    )


@pytest.fixture
def unit_instance():
    return make_unit_instance()


@pytest.fixture(scope="session")
def toy_instance():
    return load_validated(toy_nation_path())


@pytest.fixture(scope="session")
def bau_instance(tmp_path_factory):
    """The benchmark's 40-region nation without a cap (`gen_bau`, seed 1)."""
    spec = importlib.util.spec_from_file_location("gen_bau", GEN_BAU_PATH)
    gen_bau = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_bau)
    return load_validated(gen_bau.generate(toy_nation_path(), tmp_path_factory.mktemp("gen_bau") / "bau", 1))


@pytest.fixture(scope="session")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def toy_results_cost(toy_instance):
    return {
        sid: run_scenario(toy_instance, scenario_config(sid, objective_mode=COST_ONLY))
        for sid in (1, 2, 3, 4)
    }


@pytest.fixture(scope="session")
def toy_results_lex(toy_instance):
    return {
        sid: run_scenario(toy_instance, scenario_config(sid, objective_mode=MAX_REDUCTION_LEX))
        for sid in (1, 2, 3, 4)
    }
