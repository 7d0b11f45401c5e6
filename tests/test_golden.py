"""Golden CSVs: a fresh sweep must reproduce the committed output byte for byte.

A change that claims unchanged output must keep every file under
tests/golden/; a change that alters the numbers on purpose regenerates them
and says why.  The preset_*.csv files are the desk presets under configs/, run
through the command line at --threads 1.
"""

from pathlib import Path

import pytest

from wlasso.cli import main
from wlasso.experiments import ExperimentConfig, rows_to_csv, run_mse_vs_m, run_mse_vs_p

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parents[1] / "configs"
DESK_PRESETS = ("desk_mse_vs_m", "desk_mse_vs_p", "bernoulli_mse_vs_p")

SMALL = dict(s=3, trials=5, tune_trials=2, gamma_grid=(2.5, 4.0), target_l1=30.0)

# criterion 9's convolution sweep, the Bernoulli p sweep of the same size, and
# a denser convolution sweep where some solves grow their working set
SWEEPS = {
    "convolution_mse_vs_m.csv": (
        run_mse_vs_m,
        dict(SMALL, model="convolution", p=60, m_grid=(8, 16)),
    ),
    "bernoulli_mse_vs_p.csv": (
        run_mse_vs_p,
        dict(SMALL, model="bernoulli", p_grid=(20, 40), n=300),
    ),
    "convolution_mse_vs_m_s30.csv": (
        run_mse_vs_m,
        dict(
            model="convolution", p=300, s=30, m_grid=(40, 160), trials=3,
            tune_trials=2, gamma_grid=(2.1, 4.0),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden_csv(name):
    run, over = SWEEPS[name]
    fresh = rows_to_csv(run(ExperimentConfig(master_seed=5, **over))).encode()
    assert fresh == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", DESK_PRESETS)
def test_desk_preset_matches_golden_csv(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    argv = ["experiment", "--config", str(CONFIGS / f"{name}.cfg"), "--threads", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"preset_{name}.csv").read_bytes()
