"""Photonic NoC assembly: topology + routers + links as one element netlist.

:class:`PhotonicNoC` instantiates one compiled optical router per tile,
connects router ports with inter-router link waveguides according to the
topology, and elaborates the routing algorithm's hop lists into
element-level :class:`~repro.noc.paths.NetworkPath` objects.

Every element instance (router-internal elements of every tile, plus link
waveguides) gets a *global element id*; paths and the crosstalk model work
exclusively with these ids, so two communications interact exactly when
they visit the same physical element instance.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.noc.floorplan import Floorplan
from repro.noc.paths import STATE_CODES, NetworkPath
from repro.noc.routing import (
    GATEWAY,
    KPathRouting,
    RouteSet,
    RoutingAlgorithm,
    XYRouting,
    walk_plan,
)
from repro.noc.topology import GridTopology
from repro.photonics.elements import (
    WG_IN,
    WG_OUT,
    ElementKind,
    TraversalState,
    traversal_loss_db,
)
from repro.photonics.parameters import PhysicalParameters
from repro.router.layout import RouterSpec
from repro.router.registry import build_router

__all__ = ["NetworkElement", "PhotonicNoC"]


class NetworkElement:
    """One physical element instance in the assembled network."""

    __slots__ = ("gid", "kind", "label", "length_cm")

    def __init__(self, gid: int, kind: ElementKind, label: str, length_cm: float):
        self.gid = gid
        self.kind = kind
        self.label = label
        self.length_cm = length_cm

    def __repr__(self) -> str:
        return f"NetworkElement({self.gid}, {self.kind.value}, {self.label!r})"


class _SegmentTable:
    """Every traversal segment of one network, as flat arrays.

    A router connection ``(in, out)`` yields the same steps at every tile
    (element ids offset by the tile's base id), and a link always yields
    the same waveguide traversal, so each is elaborated — its traversals
    validated and priced by
    :func:`~repro.photonics.elements.traversal_loss_db` — once per
    network.

    Segment ``s`` owns rows ``seg_start[s] : seg_start[s] + seg_len[s]``
    of the row arrays. Connection segments hold router-local element ids,
    to which a hop adds its tile's base id; link segments (one per
    ``(tile, direction)`` link) hold the link waveguide's global id.
    """

    def __init__(self, network: "PhotonicNoC") -> None:
        spec = network.router_spec
        params = network.params
        rows: List[Tuple[int, int, int, int, float]] = []
        starts: List[int] = []
        self._connections: Dict[Tuple[str, str], int] = {}
        for (in_name, out_name), steps in spec.connections().items():
            key = (in_name[: -len("_in")], out_name[: -len("_out")])
            self._connections[key] = len(starts)
            starts.append(len(rows))
            for step in steps:
                local = spec.elements[step.element]
                rows.append(
                    (
                        step.element,
                        step.in_port,
                        step.out_port,
                        STATE_CODES.index(step.state),
                        traversal_loss_db(
                            local.kind, step.in_port, step.out_port,
                            step.state, params, local.length_cm,
                        ),
                    )
                )
        self.link: Dict[Tuple[int, str], int] = {}
        for key, gid in network._link_gid.items():
            self.link[key] = len(starts)
            starts.append(len(rows))
            rows.append(
                (
                    gid,
                    WG_IN,
                    WG_OUT,
                    STATE_CODES.index(TraversalState.PASSIVE),
                    traversal_loss_db(
                        ElementKind.WAVEGUIDE, WG_IN, WG_OUT,
                        TraversalState.PASSIVE, params,
                        network.elements[gid].length_cm,
                    ),
                )
            )
        self._spec = spec
        columns = list(zip(*rows))
        self.element = np.asarray(columns[0], dtype=np.int64)
        self.in_port = np.asarray(columns[1], dtype=np.int8)
        self.out_port = np.asarray(columns[2], dtype=np.int8)
        self.state = np.asarray(columns[3], dtype=np.int8)
        self.loss_db = np.asarray(columns[4], dtype=np.float64)
        self.seg_start = np.asarray(starts, dtype=np.int64)
        self.seg_len = np.diff(np.append(self.seg_start, len(rows)))

    def connection(self, in_dir: str, out_dir: str) -> int:
        """The segment of the router connection ``in_dir -> out_dir``."""
        segment = self._connections.get((in_dir, out_dir))
        if segment is None:  # raises the router's ConfigurationError
            self._spec.connection(f"{in_dir}_in", f"{out_dir}_out")
        return segment


class PhotonicNoC:
    """A fully assembled photonic network-on-chip.

    Parameters
    ----------
    topology:
        The tile interconnection graph (mesh, torus, ...).
    router:
        A registered router name (``"crux"``, ``"crossbar"``, ...) or an
        already compiled :class:`RouterSpec` (which must use the same
        physical parameters).
    routing:
        The routing algorithm; defaults to XY dimension order, as in the
        paper's experiments.
    params:
        Physical coefficients; defaults to the paper's Table I.
    floorplan:
        Physical dimensions; defaults to a 2.5 mm tile pitch.
    """

    def __init__(
        self,
        topology: GridTopology,
        router: Union[str, RouterSpec] = "crux",
        routing: Optional[RoutingAlgorithm] = None,
        params: Optional[PhysicalParameters] = None,
        floorplan: Optional[Floorplan] = None,
    ) -> None:
        self.topology = topology
        self.params = params if params is not None else PhysicalParameters()
        self.floorplan = floorplan if floorplan is not None else Floorplan()
        self.routing = routing if routing is not None else XYRouting()
        if isinstance(router, RouterSpec):
            self.router_spec = router
        else:
            self.router_spec = build_router(router, self.params)
        self._local_count = len(self.router_spec.elements)
        self.elements: List[NetworkElement] = []
        self.wiring: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._link_gid: Dict[Tuple[int, str], int] = {}
        self._paths: Dict[Tuple[int, int], NetworkPath] = {}
        self._routed_paths: Dict[Tuple[int, int, Tuple[str, ...]], NetworkPath] = {}
        self._route_sets: Dict[int, Dict[Tuple[int, int], RouteSet]] = {}
        self._turn_keys: Optional[set] = None
        self._segments: Optional[_SegmentTable] = None
        self._assemble()

    # -- assembly --------------------------------------------------------------

    def _assemble(self) -> None:
        spec = self.router_spec
        local_count = self._local_count
        for tile in range(self.topology.n_tiles):
            base = tile * local_count
            for local in spec.elements:
                self.elements.append(
                    NetworkElement(
                        base + local.index,
                        local.kind,
                        f"t{tile}.{local.label}",
                        local.length_cm,
                    )
                )
            for (element, out_port), (element2, in_port2) in spec.wiring.items():
                self.wiring[(base + element, out_port)] = (base + element2, in_port2)
        # Link waveguides and port stitching.
        for link in self.topology.links():
            gid = len(self.elements)
            length_cm = self.floorplan.link_length_cm(link.length_units)
            self.elements.append(
                NetworkElement(
                    gid,
                    ElementKind.WAVEGUIDE,
                    f"link.t{link.src}.{link.out_dir}->t{link.dst}",
                    length_cm,
                )
            )
            self._link_gid[(link.src, link.out_dir)] = gid
            in_port_name = f"{link.in_dir}_in"
            try:
                dst_entry = spec.inputs[in_port_name]
            except KeyError:
                raise ConfigurationError(
                    f"router {spec.name!r} has no input port {in_port_name!r} "
                    f"needed by topology {self.topology.signature}"
                ) from None
            dst_element, dst_port = dst_entry
            self.wiring[(gid, WG_OUT)] = (
                link.dst * local_count + dst_element,
                dst_port,
            )
        # Router outputs feeding links (L_out and chip-edge ports stay
        # absorbing: no wiring entry).
        for tile in range(self.topology.n_tiles):
            base = tile * local_count
            for (element, out_port), port_name in spec.outputs.items():
                if port_name == "L_out":
                    continue
                direction = port_name[:-len("_out")]
                if not self.topology.has_link(tile, direction):
                    continue
                gid = self._link_gid[(tile, direction)]
                self.wiring[(base + element, out_port)] = (gid, WG_IN)

    # -- element / wiring queries ------------------------------------------------

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def element(self, gid: int) -> NetworkElement:
        return self.elements[gid]

    def follow(self, element: int, out_port: int) -> Optional[Tuple[int, int]]:
        """Where ``(element, out_port)`` leads: ``(element, in_port)`` or None."""
        return self.wiring.get((element, out_port))

    def tile_of_element(self, gid: int) -> Optional[int]:
        """The tile owning a router-internal element (None for links)."""
        if gid >= self.topology.n_tiles * self._local_count:
            return None
        return gid // self._local_count

    # -- paths --------------------------------------------------------------------

    def path(self, src: int, dst: int) -> NetworkPath:
        """The elaborated path from tile ``src`` to tile ``dst`` (cached)."""
        key = (src, dst)
        cached = self._paths.get(key)
        if cached is None:
            (cached,) = self._elaborate([(src, dst, None)])
            self._paths[key] = cached
        return cached

    def all_paths(self) -> Mapping[Tuple[int, int], NetworkPath]:
        """Paths for every ordered tile pair (built on first call).

        A read-only view of the path cache, in the order the paths were
        first elaborated (``src``-major for those this call adds).
        """
        n = self.topology.n_tiles
        if len(self._paths) < n * (n - 1):
            missing = [
                (src, dst, None)
                for src in range(n)
                for dst in range(n)
                if src != dst and (src, dst) not in self._paths
            ]
            for (src, dst, _), path in zip(missing, self._elaborate(missing)):
                self._paths[(src, dst)] = path
        return MappingProxyType(self._paths)

    # -- route menus (joint mapping x routing search) --------------------------

    def _turn_legal(self, in_dir: str, out_dir: str) -> bool:
        """Whether this network's router provides the ``in -> out`` turn."""
        if self._turn_keys is None:
            self._turn_keys = set(self.router_spec.connections().keys())
        in_name = "L_in" if in_dir == GATEWAY else f"{in_dir}_in"
        out_name = "L_out" if out_dir == GATEWAY else f"{out_dir}_out"
        return (in_name, out_name) in self._turn_keys

    def route_set(self, src: int, dst: int, k: int) -> RouteSet:
        """The pair's route menu: up to ``k`` minimal-hop router-legal plans.

        Route 0 is always this network's configured routing plan, so a
        ``k=1`` menu reproduces the single implicit route exactly. Menus
        are cached per ``k``.
        """
        per_k = self._route_sets.setdefault(int(k), {})
        cached = per_k.get((src, dst))
        if cached is None:
            enumerator = KPathRouting(k, base=self.routing)
            cached = enumerator.route_set(
                self.topology, src, dst, turn_legal=self._turn_legal
            )
            per_k[(src, dst)] = cached
        return cached

    def route_counts(self, k: int) -> np.ndarray:
        """Per-pair menu sizes, shape ``(n_tiles**2,)`` (1 on the diagonal)."""
        n = self.topology.n_tiles
        counts = np.ones(n * n, dtype=np.int64)
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    counts[src * n + dst] = self.route_set(src, dst, k).n_routes
        return counts

    def _route_plan(
        self, src: int, dst: int, route: int, k: int
    ) -> Optional[Tuple[str, ...]]:
        """The plan of a pair's route, or None when it is the base path."""
        menu = self.route_set(src, dst, k)
        if route % menu.n_routes == 0:
            return None
        return menu.plan(route)

    def routed_path(self, src: int, dst: int, route: int, k: int) -> NetworkPath:
        """The elaborated path of route ``route`` of the pair's ``k``-menu.

        Route indices wrap modulo the pair's menu size, so a stale route
        gene is always well-defined. Route 0 (and any index wrapping to
        it) is byte-for-byte the pair's base :meth:`path`.
        """
        plan = self._route_plan(src, dst, route, k)
        if plan is None:
            return self.path(src, dst)
        key = (src, dst, plan)
        cached = self._routed_paths.get(key)
        if cached is None:
            (cached,) = self._elaborate([(src, dst, plan)])
            self._routed_paths[key] = cached
        return cached

    def all_paths_routed(
        self, k: int
    ) -> Dict[Tuple[int, int, int], NetworkPath]:
        """Routed paths for every (src, dst, route < k) slot, slot-major."""
        n = self.topology.n_tiles
        base = self.all_paths()
        slots = [
            (src, dst, route, self._route_plan(src, dst, route, k))
            for src in range(n)
            for dst in range(n)
            if src != dst
            for route in range(k)
        ]
        missing = list(
            dict.fromkeys(
                (src, dst, plan)
                for src, dst, _, plan in slots
                if plan is not None and (src, dst, plan) not in self._routed_paths
            )
        )
        for key, path in zip(missing, self._elaborate(missing)):
            self._routed_paths[key] = path
        return {
            (src, dst, route): (
                base[(src, dst)]
                if plan is None
                else self._routed_paths[(src, dst, plan)]
            )
            for src, dst, route, plan in slots
        }

    # -- elaboration ----------------------------------------------------------------

    def _elaborate(
        self, requests: Sequence[Tuple[int, int, Optional[Sequence[str]]]]
    ) -> List[NetworkPath]:
        """Elaborate ``(src, dst, plan)`` requests (``plan=None``: base route).

        A path is the concatenation of its hop segments: each router
        visit's connection segment, then the link to the next router. All
        requests are gathered from the segment table in one pass.
        """
        if not requests:
            return []
        if self._segments is None:
            self._segments = _SegmentTable(self)
        table = self._segments
        local_count = self._local_count
        segments: List[int] = []
        bases: List[int] = []
        per_path: List[int] = []
        for src, dst, plan in requests:
            if plan is None:
                hops = self.routing.route(self.topology, src, dst)
            else:
                hops = walk_plan(
                    self.topology, src, dst, plan, label="route plan"
                )
            first = len(segments)
            last = len(hops) - 1
            for index, hop in enumerate(hops):
                segments.append(table.connection(hop.in_dir, hop.out_dir))
                bases.append(hop.tile * local_count)
                if index < last:
                    segments.append(table.link[(hop.tile, hop.out_dir)])
                    bases.append(0)
            per_path.append(len(segments) - first)
        seg = np.asarray(segments, dtype=np.int64)
        lens = table.seg_len[seg]
        ends = np.cumsum(lens)
        rows = np.arange(int(ends[-1]), dtype=np.int64) + np.repeat(
            table.seg_start[seg] - (ends - lens), lens
        )
        element = table.element[rows] + np.repeat(
            np.asarray(bases, dtype=np.int64), lens
        )
        in_port = table.in_port[rows]
        out_port = table.out_port[rows]
        state = table.state[rows]
        losses = table.loss_db[rows]
        path_ends = ends[np.cumsum(per_path) - 1].tolist()
        paths: List[NetworkPath] = []
        lo = 0
        for (src, dst, _), hi in zip(requests, path_ends):
            paths.append(
                NetworkPath.from_arrays(
                    src,
                    dst,
                    element[lo:hi],
                    in_port[lo:hi],
                    out_port[lo:hi],
                    state[lo:hi],
                    losses[lo:hi],
                )
            )
            lo = hi
        return paths

    # -- derivation -----------------------------------------------------------------

    def with_params(self, params: PhysicalParameters) -> "PhotonicNoC":
        """The same architecture built with different physical coefficients.

        Recompiles the router (by its registered name) against ``params``
        and re-elaborates the paths, keeping topology, routing algorithm
        and floorplan. This is the seam device-library sweeps and
        process-variation sampling use to turn one nominal network into
        one network per parameter point.
        """
        return PhotonicNoC(
            self.topology,
            router=self.router_spec.name,
            routing=self.routing,
            params=params,
            floorplan=self.floorplan,
        )

    # -- identity -------------------------------------------------------------------

    @property
    def signature(self) -> str:
        """Stable identity of the architecture, for model caching.

        The device coefficients enter as the parameter set's canonical
        :attr:`~repro.photonics.parameters.PhysicalParameters.content_hash`
        — an injective encoding, so two networks differing in any
        coefficient can never share a signature, and therefore never a
        model-cache entry or a worker pool.
        """
        return (
            f"{self.topology.signature}|{self.router_spec.name}"
            f"|{self.routing.name}|{self.floorplan.signature}"
            f"|params={self.params.content_hash}"
        )

    def __repr__(self) -> str:
        return (
            f"PhotonicNoC({self.topology.signature}, router={self.router_spec.name}, "
            f"routing={self.routing.name}, elements={self.n_elements})"
        )
