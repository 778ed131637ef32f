import pytest

from lp_lab import fixtures
from lp_lab.model import ModelDataPair, pair_at, validate_model


@pytest.fixture
def fa():
    return fixtures.fix_a()


@pytest.fixture
def fb():
    return fixtures.fix_b()


@pytest.fixture
def fc():
    return fixtures.fix_c()


@pytest.fixture
def fd():
    return fixtures.fix_d()


@pytest.fixture
def fe():
    return fixtures.fix_e()


@pytest.fixture
def at():
    return pair_at


@pytest.fixture
def seven_point_l_pairs():
    """Two non-isomorphic 7-point pairs with likelihoods in ratio 2.

    Their Birnbaum mixture has 14 points, above the ancillary enumeration
    bound MAX_SPACE.
    """
    points = [f"x{i}" for i in range(1, 8)]
    first = validate_model(
        ["t1", "t2"],
        points,
        [["1/7"] * 7, ["1/14", "1/14", "1/7", "1/7", "1/7", "3/14", "3/14"]],
    )
    second = validate_model(
        ["t1", "t2"],
        points,
        [
            ["6/84"] + ["13/84"] * 6,
            ["3/84", "10/84", "11/84", "12/84", "13/84", "14/84", "21/84"],
        ],
    )
    return ModelDataPair(first, 0), ModelDataPair(second, 0)
