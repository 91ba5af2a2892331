import os
from dataclasses import replace

import pytest

from optobath import params
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


@pytest.fixture
def pin_cores(monkeypatch):
    """pin_cores(n) makes the library see n usable CPUs at its next calls, whatever the host has."""
    def pin(cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    return pin


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each thread pool that fan_out makes during the test, in order."""
    made, executor = [], params.ThreadPoolExecutor

    def recording(workers):
        made.append(workers)
        return executor(workers)

    monkeypatch.setattr(params, "ThreadPoolExecutor", recording)
    return made
