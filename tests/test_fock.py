import math

import numpy as np
import pytest

from loopgate import FockSpace, SimulationGuard, annihilation, creation
from loopgate.fock import MAX_DIM


def test_fock_space_requires_two_levels():
    with pytest.raises(ValueError):
        FockSpace(1)


def test_fock_space_is_bounded():
    assert FockSpace(MAX_DIM).dim == MAX_DIM
    with pytest.raises(SimulationGuard, match=f"dim = {MAX_DIM + 1} is above the limit of {MAX_DIM}"):
        FockSpace(MAX_DIM + 1)


def test_annihilation_dim2():
    np.testing.assert_array_equal(annihilation(FockSpace(2)), [[0, 1], [0, 0]])


def test_annihilation_dim3_entries():
    a = annihilation(FockSpace(3))
    assert a[0, 1] == 1.0
    assert a[1, 2] == pytest.approx(math.sqrt(2))
    assert np.count_nonzero(a) == 2


@pytest.mark.parametrize("dim", [2, 5, 32])
def test_number_operator_spectrum(dim):
    space = FockSpace(dim)
    number = creation(space) @ annihilation(space)
    np.testing.assert_allclose(np.diag(number).real, np.arange(dim), rtol=1e-15, atol=0)
    assert np.abs(number - np.diag(np.diag(number))).max() == 0.0
