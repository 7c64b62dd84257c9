"""Cross-checks among the reference solvers."""

import random
import zlib

import pytest

from waterline import (
    BoxProblem, LogCapacity, SimplexProblem, SizeLimit, enumerate_box,
    enumerate_p1, grid_search, projected_gradient)

from conftest import CLOSED_FORM_FAMILIES, random_box, random_simplex


def test_enumerate_p1_single_channel():
    problem = SimplexProblem([LogCapacity(1, 1, 1)], 3.0)
    res = enumerate_p1(problem)
    assert res.powers == pytest.approx([3.0])
    assert res.candidates == 1
    assert res.certified


def test_enumerate_p1_symmetric_tie():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)], 2.0)
    res = enumerate_p1(problem)
    assert res.powers == pytest.approx([1.0, 1.0], rel=1e-10)


def test_enumerate_p1_size_limit():
    objs = [LogCapacity(1, 1, 1) for _ in range(16)]
    with pytest.raises(SizeLimit):
        enumerate_p1(SimplexProblem(objs, 1.0))


def test_enumerate_box_size_limit():
    objs = [LogCapacity(1, 1, 1) for _ in range(9)]
    with pytest.raises(SizeLimit):
        enumerate_box(BoxProblem(objs, 1.0))


def test_enumerate_box_forced_all_upper():
    problem = BoxProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)],
                         2.0, None, [1.0, 1.0])
    res = enumerate_box(problem)
    assert res.powers == pytest.approx([1.0, 1.0])


def test_projected_gradient_symmetric():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 1)], 2.0)
    res = projected_gradient(problem)
    assert res.powers == pytest.approx([1.0, 1.0], abs=1e-6)
    assert not res.certified


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
def test_projected_gradient_agrees_with_enumeration(family):
    rng = random.Random(zlib.crc32(family.encode()) & 0xFF)
    for _ in range(15):
        problem = random_simplex(family, rng, rng.randint(2, 6))
        pg = projected_gradient(problem)
        en = enumerate_p1(problem)
        assert pg.objective_value == pytest.approx(
            en.objective_value, abs=1e-6 * (1 + abs(en.objective_value)))


def test_projected_gradient_respects_boxes(rng):
    for _ in range(10):
        problem = random_box("log_capacity", rng, 4)
        res = projected_gradient(problem)
        for p, lo, hi in zip(res.powers, problem.lower_bounds,
                             problem.upper_bounds):
            assert lo - 1e-9 <= p <= hi + 1e-9
        assert sum(res.powers) <= problem.budget * (1 + 1e-9)


def test_grid_matches_enumeration_k2():
    problem = SimplexProblem([LogCapacity(1, 1, 1), LogCapacity(1, 1, 3)], 1.0)
    grid = grid_search(problem)
    en = enumerate_p1(problem)
    assert grid.objective_value == pytest.approx(en.objective_value, abs=1e-5)


def test_grid_size_limit():
    objs = [LogCapacity(1, 1, 1) for _ in range(6)]
    with pytest.raises(SizeLimit):
        grid_search(SimplexProblem(objs, 1.0))


def test_three_way_agreement_on_box(rng):
    for _ in range(5):
        problem = random_box("inverse_mse", rng, 3)
        en = enumerate_box(problem)
        pg = projected_gradient(problem)
        gr = grid_search(problem)
        scale = 1 + abs(en.objective_value)
        assert abs(pg.objective_value - en.objective_value) <= 1e-5 * scale
        assert abs(gr.objective_value - en.objective_value) <= 1e-4 * scale
        assert gr.objective_value <= en.objective_value + 1e-9 * scale
