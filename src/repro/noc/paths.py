"""Network-level path records: what a signal traverses end to end.

A :class:`NetworkPath` is the fully elaborated journey of one communication
through the photonic NoC: the ordered element traversals (router elements
and inter-router link waveguides), the total insertion loss, and the
cumulative linear transmissions before/after each traversal that the
crosstalk model needs (paper §II-C).

The traversals are held as parallel arrays (``element``, ``in_port``,
``out_port``, ``state`` codes and ``losses_db``), which is what the model
builder consumes; the per-traversal :class:`Traversal` records are derived
from them on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.photonics.elements import TraversalState

__all__ = ["STATE_CODES", "Traversal", "NetworkPath"]

#: ``state`` array code -> ring state (the code is the tuple index).
STATE_CODES: Tuple[TraversalState, ...] = (TraversalState.PASSIVE, TraversalState.ON)


@dataclass(frozen=True)
class Traversal:
    """One element traversal of a network path (global element id)."""

    element: int
    in_port: int
    out_port: int
    state: TraversalState


class NetworkPath:
    """An elaborated source-to-destination path with loss bookkeeping.

    ``element``, ``in_port``, ``out_port``, ``state``
        The ordered traversals as arrays (global element ids, port ids,
        :data:`STATE_CODES` indices).
    ``losses_db[i]``
        Insertion loss of traversal ``i``.
    ``cum_in_linear[i]``
        Product of the linear losses of traversals ``0..i-1`` — the relative
        signal power *entering* traversal ``i``.
    ``cum_out_linear[i]``
        Product including traversal ``i`` — the power *leaving* it.
    ``total_linear``
        End-to-end transmission (``cum_out_linear[-1]``).
    """

    def __init__(
        self,
        src: int,
        dst: int,
        traversals: Sequence[Traversal],
        losses_db: Sequence[float],
    ) -> None:
        if len(traversals) != len(losses_db):
            raise ValueError("one loss per traversal required")
        if not traversals:
            raise ValueError("a path needs at least one traversal")
        traversals = tuple(traversals)
        self._set(
            src,
            dst,
            np.array([t.element for t in traversals], dtype=np.int64),
            np.array([t.in_port for t in traversals], dtype=np.int8),
            np.array([t.out_port for t in traversals], dtype=np.int8),
            np.array(
                [STATE_CODES.index(t.state) for t in traversals], dtype=np.int8
            ),
            np.asarray(losses_db, dtype=np.float64),
        )
        self._traversals = traversals

    @classmethod
    def from_arrays(
        cls,
        src: int,
        dst: int,
        element: np.ndarray,
        in_port: np.ndarray,
        out_port: np.ndarray,
        state: np.ndarray,
        losses_db: np.ndarray,
    ) -> "NetworkPath":
        """A path over already validated traversal arrays (no copies)."""
        path = cls.__new__(cls)
        path._set(src, dst, element, in_port, out_port, state, losses_db)
        return path

    def _set(self, src, dst, element, in_port, out_port, state, losses) -> None:
        self.src = src
        self.dst = dst
        self.element = element
        self.in_port = in_port
        self.out_port = out_port
        self.state = state
        self.losses_db = losses
        self.loss_db = float(losses.sum())
        linear = 10.0 ** (losses / 10.0)
        self.cum_out_linear = np.cumprod(linear)
        self.cum_in_linear = np.empty_like(self.cum_out_linear)
        self.cum_in_linear[0] = 1.0
        self.cum_in_linear[1:] = self.cum_out_linear[:-1]
        self.total_linear = float(self.cum_out_linear[-1])
        self._traversals: Optional[Tuple[Traversal, ...]] = None

    @property
    def traversals(self) -> Tuple[Traversal, ...]:
        """The traversals as :class:`Traversal` records (built on first use)."""
        if self._traversals is None:
            self._traversals = tuple(
                Traversal(e, i, o, STATE_CODES[s])
                for e, i, o, s in zip(
                    self.element.tolist(),
                    self.in_port.tolist(),
                    self.out_port.tolist(),
                    self.state.tolist(),
                )
            )
        return self._traversals

    def __len__(self) -> int:
        return len(self.element)

    def __repr__(self) -> str:
        return (
            f"NetworkPath({self.src}->{self.dst}, "
            f"{len(self)} traversals, {self.loss_db:.3f} dB)"
        )
