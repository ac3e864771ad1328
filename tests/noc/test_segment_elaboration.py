"""Segment elaboration is byte-identical to the per-traversal reference.

Every path of every pair (and every routed slot of a 3-route menu) must
carry exactly the traversals, losses and cumulative transmissions the
reference elaboration of ``conftest.py`` produces, on meshes and tori of
3 to 6 tiles a side, both routers, nominal and perturbed device points.
"""

import numpy as np
import pytest

from repro.noc import PhotonicNoC, mesh, torus
from repro.noc.paths import STATE_CODES
from repro.photonics.parameters import PhysicalParameters, perturbed

TOPOLOGIES = {"mesh": mesh, "torus": torus}


def _params(point):
    if point == "nominal":
        return PhysicalParameters()
    return perturbed(PhysicalParameters(), 0.02, np.random.default_rng(7))


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches(path, oracle):
    expected = oracle.traversals
    assert np.array_equal(path.element, [t.element for t in expected])
    assert np.array_equal(path.in_port, [t.in_port for t in expected])
    assert np.array_equal(path.out_port, [t.out_port for t in expected])
    assert path.state.tolist() == [STATE_CODES.index(t.state) for t in expected]
    for name in ("losses_db", "cum_in_linear", "cum_out_linear"):
        assert _same_bytes(getattr(path, name), getattr(oracle, name)), name
    for name in ("loss_db", "total_linear"):
        assert _same_bytes(getattr(path, name), getattr(oracle, name)), name
    assert path.traversals == expected


@pytest.mark.parametrize("point", ["nominal", "perturbed"])
@pytest.mark.parametrize("router", ["crux", "crossbar"])
@pytest.mark.parametrize("side", [3, 4, 5, 6])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_all_paths_match_reference(
    topology, side, router, point, reference_elaboration
):
    network = PhotonicNoC(
        TOPOLOGIES[topology](side, side), router=router, params=_params(point)
    )
    paths = network.all_paths()
    assert len(paths) == network.topology.n_tiles * (network.topology.n_tiles - 1)
    for (src, dst), path in paths.items():
        assert (path.src, path.dst) == (src, dst)
        assert_matches(path, reference_elaboration(network, src, dst))


@pytest.mark.parametrize("point", ["nominal", "perturbed"])
@pytest.mark.parametrize("router", ["crux", "crossbar"])
@pytest.mark.parametrize("side", [3, 4])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_routed_paths_match_reference(
    topology, side, router, point, reference_elaboration
):
    network = PhotonicNoC(
        TOPOLOGIES[topology](side, side), router=router, params=_params(point)
    )
    routed = network.all_paths_routed(3)
    n = side * side
    assert len(routed) == n * (n - 1) * 3
    for (src, dst, route), path in routed.items():
        menu = network.route_set(src, dst, 3)
        plan = None if route % menu.n_routes == 0 else menu.plan(route)
        assert_matches(path, reference_elaboration(network, src, dst, plan))


def test_single_path_matches_batch(mesh4_network):
    """A path elaborated alone equals the same path of a batch."""
    fresh = PhotonicNoC(mesh(4, 4), params=mesh4_network.params)
    alone = fresh.path(5, 10)
    batch = mesh4_network.all_paths()[(5, 10)]
    for name in ("element", "in_port", "out_port", "state", "losses_db",
                 "cum_in_linear", "cum_out_linear"):
        assert _same_bytes(getattr(alone, name), getattr(batch, name)), name
    assert fresh.all_paths()[(5, 10)] is alone


def test_all_paths_is_a_read_only_view(mesh3_network):
    paths = mesh3_network.all_paths()
    with pytest.raises(TypeError):
        paths[(0, 1)] = None
    assert mesh3_network.all_paths()[(0, 1)] is mesh3_network.path(0, 1)
