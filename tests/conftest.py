import numpy as np
import pytest

from polycomp import Shape, ngon_polytope, simplex_polytope

# Triangle pair whose linear map shrinks every edge yet expands one
# interior pair; the standing counterexample used across the suite.
TRI_P = np.array([[0.0, 1.692], [3.452, 0.527], [1.901, 0.0]])
TRI_Q = np.array([[3.452, 3.519], [4.696, 2.078], [4.393, 1.692]])


@pytest.fixture
def triangle_pair():
    poly = simplex_polytope(2)
    return Shape(poly, TRI_P), Shape(poly, TRI_Q)


@pytest.fixture
def unit_square():
    return Shape(ngon_polytope(4), [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)
