import numpy as np
import pytest

from schemeforge import build_paige_loop, inner_orbits, loop_scheme


@pytest.fixture(scope="session")
def paige2():
    return build_paige_loop(2)


@pytest.fixture(scope="session")
def paige3():
    return build_paige_loop(3)


@pytest.fixture(scope="session")
def paige2_grid(paige2):
    """Every product of M*(2): paige2_grid[i, j] = i * j."""
    Z = np.arange(paige2.n)
    return paige2.mul_vec(Z[:, None], Z)


@pytest.fixture(scope="session")
def mstar2_scheme(paige2):
    return loop_scheme(paige2, inner_orbits(paige2))


@pytest.fixture
def hamming():
    """hamming(q): class matrix of the Hamming scheme H(2,q) on the q^2
    points x, rel(x, y) the number of coordinates x // q, x % q in which x
    and y differ."""
    def build(q):
        x = np.arange(q * q)
        return (x // q != (x // q)[:, None]).astype(np.int64) + (x % q != (x % q)[:, None])
    return build


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
