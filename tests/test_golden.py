"""Golden CSVs: a fresh sweep must reproduce the committed output byte for byte.

A change that claims unchanged output must keep both files under
tests/golden/; a change that alters the numbers on purpose regenerates them
and says why.
"""

from pathlib import Path

import pytest

from wlasso.experiments import ExperimentConfig, rows_to_csv, run_mse_vs_m, run_mse_vs_p

GOLDEN = Path(__file__).parent / "golden"

# criterion 9's convolution sweep, and the Bernoulli p sweep of the same size
SWEEPS = {
    "convolution_mse_vs_m.csv": (
        run_mse_vs_m,
        dict(model="convolution", p=60, m_grid=(8, 16)),
    ),
    "bernoulli_mse_vs_p.csv": (
        run_mse_vs_p,
        dict(model="bernoulli", p_grid=(20, 40), n=300),
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden_csv(name):
    run, over = SWEEPS[name]
    cfg = ExperimentConfig(
        s=3, trials=5, tune_trials=2, gamma_grid=(2.5, 4.0), target_l1=30.0,
        master_seed=5, **over,
    )
    fresh = rows_to_csv(run(cfg)).encode()
    assert fresh == (GOLDEN / name).read_bytes()
