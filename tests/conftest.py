"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import fixtures as fx
from repro.core import ConformanceChecker, ConformanceOptions
from repro.cts.assembly import Assembly
from repro.net.network import SimulatedNetwork
from repro.runtime.loader import Runtime


@pytest.fixture
def person_cs():
    """The C#-authored Person (GetName/SetName)."""
    return fx.person_csharp()


@pytest.fixture
def person_java():
    """The Java-authored Person (getPersonName/setPersonName)."""
    return fx.person_java()


@pytest.fixture
def person_vb():
    """The VB-authored Person (GetName/SetName)."""
    return fx.person_vb()


@pytest.fixture
def account():
    """A type that must NOT conform to Person."""
    return fx.account_csharp()


@pytest.fixture
def strict_checker():
    """Checker with the paper's verbatim rules (LD = 0)."""
    return ConformanceChecker()


@pytest.fixture
def pragmatic_checker():
    """Checker with the token-subset name relaxation."""
    return ConformanceChecker(options=ConformanceOptions.pragmatic())


@pytest.fixture
def runtime():
    return Runtime()


@pytest.fixture
def loaded_runtime(person_cs):
    rt = Runtime()
    rt.load_type(person_cs)
    return rt


@pytest.fixture
def network():
    return SimulatedNetwork()


@pytest.fixture
def opened():
    """``opened(x)`` registers a broker, mesh or store the test opened and
    returns it; teardown closes them last-opened-first, so no log segment
    or cursor journal handle outlives its test."""
    closeables = []

    def register(closeable):
        closeables.append(closeable)
        return closeable

    yield register
    while closeables:
        closeables.pop().close()


@pytest.fixture
def person_assemblies():
    return fx.person_assembly_pair()


@pytest.fixture
def employee_assemblies():
    return fx.employee_assembly_pair()
