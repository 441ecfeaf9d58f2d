import pytest

import trapbose.thermo as thermo


@pytest.fixture(autouse=True)
def openblas(monkeypatch):
    """Table builds split by the rule they take beside a numpy wheel's
    OpenBLAS, on any numpy: where thermo finds no OpenBLAS thread functions,
    a stand-in pair that sets nothing."""
    if thermo._blas_threads() is None:
        monkeypatch.setattr(thermo, "_blas_threads", lambda: (lambda: 1, lambda threads: None))


@pytest.fixture
def node_chunks(monkeypatch):
    """Every table build split into as many node chunks as it has nodes, up
    to 17, whatever its size and the CPUs of the machine."""
    monkeypatch.setattr(thermo, "MIN_CHUNK_WORK", 1)
    monkeypatch.setattr(thermo, "_cpu_count", lambda: 17)


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every thread pool that table builds and sweeps
    make from now on."""
    made = []

    class Recording(thermo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(thermo, "ThreadPoolExecutor", Recording)
    return made


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The lambda count of every SpectrumModel._sectors call from now on:
    one per levels call, table build or node chunk of one."""
    sizes = []

    def counting(model, lam, sectors=thermo.SpectrumModel._sectors):
        sizes.append(lam.size)
        return sectors(model, lam)

    monkeypatch.setattr(thermo.SpectrumModel, "_sectors", counting)
    return sizes
