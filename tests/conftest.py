from __future__ import annotations

import math

import numpy as np
import pytest

from obci import MonteCarloCriticalValues
from obci.cip import default_cv_source
from obci.limits import WeightFunction


@pytest.fixture(scope="session")
def cv_source() -> MonteCarloCriticalValues:
    """Shared cached critical-value source so expensive draws happen once."""
    return default_cv_source()


class StubCriticalValues:
    """Fixed critical value, for tests that exercise interval plumbing only."""

    def __init__(self, value: float = 1.96):
        self.value = value

    def critical_value(self, method, asym, q):
        return self.value


def cos1(v):
    """The normalized cosine weight sqrt(8) * pi * cos(2 pi v) (Goldsman,
    Meketon & Schmeiser 1990); module level, so it pickles."""
    return math.sqrt(8.0) * math.pi * np.cos(2.0 * math.pi * v)


COS1 = WeightFunction(cos1, "cos1")


@pytest.fixture
def stub_cv() -> StubCriticalValues:
    return StubCriticalValues()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(171717)
