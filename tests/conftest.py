import numpy as np
import pytest

import fracflow as ff


@pytest.fixture(scope="session")
def domain():
    return ff.Domain(-1.0, 1.0, 8.0)


@pytest.fixture(scope="session")
def field(domain):
    # constant exponents p=2, q=3 at s=0.4: the workhorse admissible triple
    return ff.make_exponent_field(0.4, domain=domain)


@pytest.fixture(scope="session")
def grid16(domain):
    return ff.Grid(domain, 16, 8)


@pytest.fixture(scope="session")
def ctx16(grid16, field):
    return ff.build_context(grid16, field)


@pytest.fixture(scope="session")
def ctx16_var(grid16, domain):
    # variable exponents: affine-radial p(x, y) and bump q(x) at s = 0.3
    field = ff.make_exponent_field(0.3, p=(2.0, 0.02), q=(3.0, 0.2), domain=domain)
    return ff.build_context(grid16, field)


@pytest.fixture(scope="session")
def grid32(domain):
    return ff.Grid(domain, 32, 16)


@pytest.fixture(scope="session")
def ctx32(grid32, field):
    return ff.build_context(grid32, field)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)

