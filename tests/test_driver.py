import sys

import numpy as np
import pytest

from fvadvect import driver
from fvadvect.driver import integrate
from fvadvect.fct import LIMITER_MODES
from fvadvect.grid import Grid
from fvadvect.velocity import ConstantDiagonal


def _no_step(*args, **kwargs):
    raise AssertionError("a step ran on a non-finite initial condition")


class TestNonFiniteInitialCondition:
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("dim", (1, 2))
    def test_rejected_before_any_step(self, monkeypatch, dim, bad):
        g = Grid(dim, 16)
        values = np.zeros(g.shape)
        cell = (3,) * dim
        values[cell] = bad
        values[(5,) * dim] = bad  # a later one is not the one named
        q0 = values
        monkeypatch.setattr(driver, "fct_advance", _no_step)
        with pytest.raises(ValueError, match=rf"not finite at cell \({', '.join(['3'] * dim)},?\)"):
            integrate(q0, ConstantDiagonal(dim=dim), g, "u5", 0.5, 0.1)

    def test_finite_input_runs(self):
        g = Grid(2, 16)
        q0 = np.ones(g.shape)
        result = integrate(q0, ConstantDiagonal(dim=2), g, "u5", 0.5, 0.1)
        assert result.steps > 0
        assert result.conservation_drift <= 1e-12


class TestBadNumbers:
    @pytest.mark.parametrize("sigma", (np.nan, np.inf, 0.0, -1.0))
    def test_sigma(self, monkeypatch, sigma):
        monkeypatch.setattr(driver, "fct_advance", _no_step)
        g = Grid(1, 16)
        with pytest.raises(ValueError, match=f"sigma must be positive and finite, got {sigma}"):
            integrate(np.zeros(g.shape), ConstantDiagonal(dim=1), g, "u5", sigma, 0.1)

    @pytest.mark.parametrize("t_final", (np.nan, np.inf, -0.1))
    def test_t_final(self, monkeypatch, t_final):
        monkeypatch.setattr(driver, "fct_advance", _no_step)
        g = Grid(1, 16)
        with pytest.raises(ValueError, match=f"t_final must be non-negative and finite, got {t_final}"):
            integrate(np.zeros(g.shape), ConstantDiagonal(dim=1), g, "u5", 0.5, t_final)


class TestStepCeiling:
    def test_ceiling_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(driver, "MAX_STEPS", 8)
        g = Grid(1, 16)
        velocity = ConstantDiagonal(dim=1)
        dt = 0.5 * g.h
        assert integrate(np.zeros(g.shape), velocity, g, "u5", 0.5, 8 * dt).steps == 8
        monkeypatch.setattr(driver, "fct_advance", _no_step)
        with pytest.raises(ValueError, match="more than 8 steps"):
            integrate(np.zeros(g.shape), velocity, g, "u5", 0.5, 9 * dt)

    def test_last_step_absorbs_a_remainder_below_the_slack(self, monkeypatch):
        """t_final / dt = 10 + 5e-10 takes 10 steps, the last one longer
        than dt by the remainder and at most dt * (1 + 1e-9)."""
        g = Grid(1, 16)
        dt = 0.5 * g.h
        t_final = (10 + 5e-10) * dt
        seen = []
        monkeypatch.setattr(driver, "fct_advance",
                            lambda q, flow, step_dt, *args: seen.append(step_dt) or (q, None))
        result = integrate(np.zeros(g.shape), ConstantDiagonal(dim=1), g, "u5", 0.5, t_final,
                           limiter="off")
        assert result.steps == len(seen) == 10
        assert seen[:-1] == [dt] * 9
        assert dt < seen[-1] <= dt * (1 + 1e-9)

    def test_underflowing_step_is_rejected(self, monkeypatch):
        monkeypatch.setattr(driver, "fct_advance", _no_step)
        g = Grid(1, 16, hi=1e-300)
        with pytest.raises(ValueError, match="sigma=1e-300 and h="):
            integrate(np.zeros(g.shape), ConstantDiagonal(dim=1), g, "u5", 1e-300, 1.0)


def _no_cell_velocity(*args, **kwargs):
    raise AssertionError("cell_average_velocity was called")


@pytest.mark.parametrize("limiter", LIMITER_MODES)
def test_no_limiter_mode_builds_a_cell_velocity(monkeypatch, limiter):
    """A run reads the velocity only through its ``FaceFlow``: no module of
    the package that binds ``cell_average_velocity`` has it called."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fvadvect" and hasattr(module, "cell_average_velocity"):
            monkeypatch.setattr(module, "cell_average_velocity", _no_cell_velocity)
    g = Grid(2, 16)
    q0 = np.random.default_rng(3).random(g.shape)  # the limiter has faces to limit
    result = integrate(q0, ConstantDiagonal(dim=2), g, "u5", 0.5, 0.1, limiter=limiter)
    assert result.steps > 0
