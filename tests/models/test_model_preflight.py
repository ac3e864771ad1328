"""The model-size preflight: oversized models are refused before any work."""

import time
import tracemalloc

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models import coupling as coupling_module
from repro.models.coupling import CouplingModel
from repro.noc import PhotonicNoC, mesh, torus


@pytest.fixture()
def sixteen_gib(monkeypatch):
    """Pin physical memory so the verdicts do not depend on the host."""
    monkeypatch.setattr(coupling_module, "_physical_memory_bytes", lambda: 16 << 30)


def test_physical_memory_is_read():
    limit = coupling_module._physical_memory_bytes()
    assert limit is None or limit > 0


def test_16x16_mesh_refused_fast_without_allocating(sixteen_gib):
    network = PhotonicNoC(mesh(16, 16))
    builds = coupling_module.BUILD_COUNT
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(ModelError) as raised:
            CouplingModel(network)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 50 << 20
    message = str(raised.value)
    # 65536 pairs: 65536**2 float64 entries, 32 GiB.
    assert str(65536 * 65536 * 8) in message
    assert "float32" in message
    assert network._paths == {}
    assert coupling_module.BUILD_COUNT == builds


def test_routes_remedy_offered_and_float32_not_repeated(sixteen_gib):
    # 8x8 torus at routes=24: 98304 pairs, 36 GiB at float32.
    network = PhotonicNoC(torus(8, 8))
    with pytest.raises(ModelError) as raised:
        CouplingModel(network, dtype=np.float32, routes=24)
    message = str(raised.value)
    assert "fewer routes" in message
    assert "float32 (half" not in message


def test_fitting_model_still_builds(sixteen_gib, mesh3_network):
    model = CouplingModel(mesh3_network)
    assert model.coupling_linear.shape == (81, 81)
