from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from lbrank.core import ConcaveGain, QueryInstance

# Example counts of tests that leave ``max_examples`` to the profile: the
# default for every run, and "thorough" (``--hypothesis-profile=thorough``)
# for a longer search.
settings.register_profile("default", max_examples=300)
settings.register_profile("thorough", max_examples=3000)
settings.load_profile("default")


@pytest.fixture
def small_gain() -> ConcaveGain:
    return ConcaveGain([1.0, 0.5, 0.25])


@pytest.fixture
def gain6() -> ConcaveGain:
    return ConcaveGain([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def make_query(matrix, query_id="q", relevance=None) -> QueryInstance:
    return QueryInstance.from_matrix(query_id, np.asarray(matrix, dtype=float),
                                     relevance=relevance)


@pytest.fixture
def two_list_query() -> QueryInstance:
    return make_query([[3.0, 1.0, 2.0], [1.0, 3.0, 2.0]], query_id="q1")
