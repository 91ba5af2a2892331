from dataclasses import replace

import pytest

from optobath.validate import fig1_cooled


@pytest.fixture
def fig1():
    """Laser-cooled working point: the fig1-cooled preset that the goldens pin."""
    return fig1_cooled()


@pytest.fixture
def fig1_bare(fig1):
    """Same mechanics with the cooling drive off."""
    return replace(fig1, g_c=0.0)


@pytest.fixture
def fig1_cold(fig1):
    """Laser-cooling-dominated limit: thermal contact removed."""
    return replace(fig1, gamma_m=0.0)
