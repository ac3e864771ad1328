"""The per-traversal path elaboration, kept as the oracle of the segment one.

:meth:`PhotonicNoC._elaborate` builds paths by concatenating elaborated
router-connection and link segments. The reference below walks every hop
and prices every traversal one by one, and derives the loss bookkeeping
with the per-path formulas, so the tests can hold the segment elaboration
to byte equality.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pytest

from repro.noc.paths import Traversal
from repro.noc.routing import GATEWAY, walk_plan
from repro.photonics.elements import (
    WG_IN,
    WG_OUT,
    TraversalState,
    traversal_loss_db,
)


class OraclePath:
    """One reference-elaborated path: traversals plus loss bookkeeping."""

    def __init__(self, traversals, losses) -> None:
        self.traversals = tuple(traversals)
        losses = np.asarray(losses, dtype=np.float64)
        self.losses_db = losses
        self.loss_db = float(losses.sum())
        linear = 10.0 ** (losses / 10.0)
        self.cum_out_linear = np.cumprod(linear)
        self.cum_in_linear = np.empty_like(self.cum_out_linear)
        self.cum_in_linear[0] = 1.0
        self.cum_in_linear[1:] = self.cum_out_linear[:-1]
        self.total_linear = float(self.cum_out_linear[-1])


def elaborate_reference(
    network, src: int, dst: int, plan: Optional[Sequence[str]] = None
) -> OraclePath:
    """Walk the pair's hops and price each traversal on its own."""
    spec = network.router_spec
    local_count = len(spec.elements)
    params = network.params
    if plan is None:
        hops = network.routing.route(network.topology, src, dst)
    else:
        hops = walk_plan(network.topology, src, dst, plan, label="route plan")
    traversals = []
    losses = []

    def add(gid, in_port, out_port, state):
        element = network.elements[gid]
        traversals.append(Traversal(gid, in_port, out_port, state))
        losses.append(
            traversal_loss_db(
                element.kind, in_port, out_port, state, params, element.length_cm
            )
        )

    for index, hop in enumerate(hops):
        in_name = "L_in" if hop.in_dir == GATEWAY else f"{hop.in_dir}_in"
        out_name = "L_out" if hop.out_dir == GATEWAY else f"{hop.out_dir}_out"
        base = hop.tile * local_count
        for step in spec.connection(in_name, out_name):
            add(base + step.element, step.in_port, step.out_port, step.state)
        if index < len(hops) - 1:
            gid = network._link_gid[(hop.tile, hop.out_dir)]
            add(gid, WG_IN, WG_OUT, TraversalState.PASSIVE)
    return OraclePath(traversals, losses)


@pytest.fixture(scope="session")
def reference_elaboration():
    """The per-traversal reference elaboration (see the module docstring)."""
    return elaborate_reference
