"""Shared fixtures: small graph corpora, a seeded random-graph maker, and
the builtin ``sum`` as Python 3.12 computes it."""

from __future__ import annotations

import importlib
import math
import pkgutil
import random

import pytest
from hypothesis import HealthCheck, settings

import sqenergy
from sqenergy.enumeration import enumerate_connected
from sqenergy.graphs import Graph, from_edges, stats

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def connected_by_order() -> dict[int, list[Graph]]:
    """All connected graphs of order 1..7, one list per order."""
    return {n: list(enumerate_connected(n)) for n in range(1, 8)}


def random_connected(rng: random.Random, n: int, p: float = 0.45) -> Graph:
    """Seeded G(n, p) conditioned on connectivity (retries until connected)."""
    while True:
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        g = from_edges(n, edges)
        if stats(g).connected:
            return g


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` as CPython 3.12's ``builtin_sum_impl`` computes it.

    Integers are added exactly; once the total is a float, float terms are
    added with Neumaier's compensation (A. Neumaier, ZAMM 54, 1974) and
    small integer terms are converted and added plainly; anything else
    falls back to ``+``.  Python 3.11 and earlier add every term left to
    right with ``+``.
    """
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                comp += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
            else:
                result = (total + comp if comp and math.isfinite(comp) else total) + item
                break
        else:
            return total + comp if comp and math.isfinite(comp) else total
    for item in it:
        result = result + item
    return result


@pytest.fixture
def python312_sum(monkeypatch):
    """Every ``sqenergy`` module sees ``compensated_sum`` as its ``sum``."""
    for info in pkgutil.iter_modules(sqenergy.__path__, "sqenergy."):
        module = importlib.import_module(info.name)
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    monkeypatch.setattr(sqenergy, "sum", compensated_sum, raising=False)
