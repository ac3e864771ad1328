"""Noise walks that orbit a lossless torus ring forever.

With zero passive losses no walk is ever attenuated to the cutoff, so a
torus walk only stops by revisiting a position (the vectorized builder's
cycle detection) or at the step cap. Crediting happens at a victim's
first shared element, so any stop after the first revisit credits the
same victims: the reference model, capped at a few laps, must agree with
the builder.
"""

import numpy as np
import pytest

from repro.models import crosstalk
from repro.models.coupling import CouplingModel
from repro.noc import PhotonicNoC, torus
from repro.photonics.parameters import PhysicalParameters

LOSSLESS = PhysicalParameters().with_overrides(
    crossing_loss_db=0.0,
    propagation_loss_db_per_cm=0.0,
    ppse_off_loss_db=0.0,
    cpse_off_loss_db=0.0,
)


def test_lossless_torus_matches_capped_reference(monkeypatch):
    network = PhotonicNoC(torus(3, 3), params=LOSSLESS)
    model = CouplingModel(network)
    # A 3x3 torus has 4 * n_elements walk positions, so no walk can run
    # longer than that before revisiting one.
    monkeypatch.setattr(crosstalk, "_MAX_WALK_STEPS", 4 * network.n_elements)
    paths = network.all_paths()
    keys = sorted(paths)
    rng = np.random.default_rng(3)
    checked = 0
    for v, a in rng.choice(len(keys), size=(40, 2)):
        if v == a:
            continue
        victim, aggressor = keys[v], keys[a]
        reference = crosstalk.pairwise_coupling_linear(
            network, paths[victim], paths[aggressor]
        )
        built = model.coupling_linear[
            model.pair_index(*victim), model.pair_index(*aggressor)
        ]
        assert built == pytest.approx(reference, rel=1e-9, abs=1e-18)
        checked += reference > 0
    assert checked > 0
