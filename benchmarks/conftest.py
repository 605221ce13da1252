"""Shared helpers for the benchmark/experiment harness.

Every module in this directory regenerates one conceptual artifact of
the paper; its docstring names the experiment, and
``docs/architecture.md`` describes the machinery it exercises.  Each
benchmark both *measures* (via pytest-benchmark) and *verifies* the
paper-expected shape with assertions, and prints the reproduced rows;
run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

import pytest

from repro.routing import figure1_graph
from repro.workloads import uniform_all_pairs


@pytest.fixture(scope="session")
def fig1():
    """The paper's Figure 1 network."""
    return figure1_graph()


@pytest.fixture(scope="session")
def fig1_traffic(fig1):
    """Uniform all-pairs traffic on Figure 1."""
    return uniform_all_pairs(fig1)


def once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive callable with a single measured round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
