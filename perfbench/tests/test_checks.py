"""The output checks bite: corrupting one cell makes the fail ratio rise."""
import numpy as np
import pytest

import workloads

SWEEP = workloads.WORKLOADS["conv_sweep_m"]
BERN = workloads.WORKLOADS["bern_sweep_p"]
SOLVE = workloads.WORKLOADS["conv_solve_p5000"]


def output(csv):
    return {"code": 0, "csv": csv, "stderr": "", "latencies": [1.0]}


def corrupt(csv, row, col, value):
    lines = csv.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def fail_ratio(verdict):
    return verdict.failed / verdict.attempted


@pytest.mark.parametrize("sweep", [SWEEP, BERN], ids=lambda w: w.name)
def test_reference_passes(sweep):
    verdict = sweep.check(None, output(sweep.reference["0"]), 0)
    assert verdict.problems == [] and verdict.failed == 0
    assert verdict.attempted == int(sweep.settings["trials"]) * 3 * len(sweep.points())


@pytest.mark.parametrize("col, value", [
    (11, "0.5"),            # nmse_mean
    (12, "1e-3"),           # nmse_stderr
    (13, "0.5"),            # coverage_rate
    (8, "3"),               # gamma_star, still on the grid
    (10, "1"),              # failures
])
def test_one_corrupted_cell_raises_fail_ratio(col, value):
    csv = SWEEP.reference["0"]
    before = fail_ratio(SWEEP.check(None, output(csv), 0))
    after = SWEEP.check(None, output(corrupt(csv, 5, col, value)), 0)
    assert before == 0
    assert fail_ratio(after) > 0 and after.problems


def test_round_off_passes_but_a_changed_draw_does_not():
    csv = SWEEP.reference["0"]
    nmse = float(csv.splitlines()[5].split(",")[11])
    nudged = corrupt(csv, 5, 11, repr(nmse * (1 + 1e-9)))
    assert SWEEP.check(None, output(nudged), 0).failed == 0
    other_seed = SWEEP.reference["1"].replace(",1\n", ",0\n")
    assert SWEEP.check(None, output(other_seed), 0).failed > 0


def test_seed_without_reference_falls_back_to_invariants():
    seed = 12345
    assert str(seed) not in SWEEP.reference
    csv = SWEEP.reference["0"].replace(",0\n", f",{seed}\n")
    assert SWEEP.check(None, output(csv), seed).failed == 0
    assert SWEEP.check(None, output(corrupt(csv, 2, 13, "1.5")), seed).failed > 0
    assert SWEEP.check(None, output(corrupt(csv, 2, 8, "5")), seed).failed > 0
    assert SWEEP.check(None, output(corrupt(csv, 2, 11, "nan")), seed).failed > 0
    dropped = "\n".join(csv.splitlines()[:-1]) + "\n"
    assert SWEEP.check(None, output(dropped), seed).failed > 0
    # later repetitions must repeat the first one
    first = output(csv)
    assert SWEEP.check(None, output(corrupt(csv, 2, 11, "0.123")), seed, first).failed > 0


def test_exit_code_fails_every_row():
    bad = {"code": 2, "csv": "", "stderr": "error: boom", "latencies": [1.0]}
    verdict = SWEEP.check(None, bad, 0)
    assert verdict.failed == verdict.attempted


@pytest.fixture(scope="module")
def pkg():
    return workloads.load_package()


@pytest.fixture(scope="module")
def solved(pkg):
    return SOLVE.run_unit(pkg, 0, 0)


def test_solve_block_passes(pkg, solved):
    verdict = SOLVE.check(pkg, solved, 0)
    assert verdict.problems == [] and verdict.attempted == 2 * SOLVE.block


def test_corrupted_refit_fails(pkg, solved):
    inst = solved["instances"][0]
    weights, result, support, refit = inst["solves"][1]
    bad = refit.copy()
    bad[support[0]] *= 1.001
    inst["solves"][1] = (weights, result, support, bad)
    try:
        verdict = SOLVE.check(pkg, solved, 0)
    finally:
        inst["solves"][1] = (weights, result, support, refit)
    assert verdict.failed == 1


def test_wrong_seed_fails_the_reference(pkg, solved):
    assert SOLVE.check(pkg, solved, 1).failed > 0


def test_nonoptimal_solution_fails_kkt(pkg, solved):
    inst = solved["instances"][1]
    weights, result, support, refit = inst["solves"][0]
    x_hat = result.x_hat
    result.x_hat = x_hat * 0.9
    try:
        verdict = SOLVE.check(pkg, solved, 0)
    finally:
        result.x_hat = x_hat
    assert verdict.failed >= 1
    assert any("KKT" in p for p in verdict.problems)
    assert np.array_equal(result.x_hat, x_hat)
