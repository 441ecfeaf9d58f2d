import pytest

import trapbose.perturbative as perturbative
import trapbose.riccati as riccati


@pytest.fixture
def node_chunks(monkeypatch):
    """Every stacked eigen-solve with a node axis split into as many chunks as
    it has nodes, up to 17, whatever its size and the CPUs of the machine."""
    monkeypatch.setattr(perturbative, "MIN_CHUNK_WORK", 1)
    monkeypatch.setattr(perturbative, "_cpu_count", lambda: 17)


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every thread pool the eigen-solves make from now on."""
    made = []

    class Recording(perturbative.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(perturbative, "ThreadPoolExecutor", Recording)
    return made


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The node count of every eigen-solve of a (node) chunk from now on:
    perturbative._eigvals and riccati._sector_squares."""
    sizes = []
    for module, name in ((perturbative, "_eigvals"), (riccati, "_sector_squares")):
        def counting(*stacks, function=getattr(module, name)):
            sizes.append(stacks[0].shape[0])
            return function(*stacks)

        monkeypatch.setattr(module, name, counting)
    return sizes
