"""One rule for a positive scalar argument: one real number, 0 < x < inf.

Every public entry point that takes a depth, a radius, a scaling factor, a
coupling offset or a real lambda raises DomainError for anything else: an
array, a string, nan, inf, zero or a negative number.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from resonance_lab import (
    CouplingFamily,
    DomainError,
    PhaseSpec,
    SurfacePoint,
    TrackSpec,
    Well,
    asymptotic_phase_derivative,
    delta_phase_derivative,
    delta_resonance,
    mu,
    phase_shift_derivative,
    resonant_state,
    s_matrix_eigenvalue,
    scattering_phase,
    sector_scan,
    total_phase_derivative,
)

WELL = Well(2.0)

ENTRY_POINTS = {
    "SurfacePoint.scaled": lambda x: SurfacePoint.from_complex(1.0).scaled(x),
    "Well-a": lambda x: Well(x),
    "Well-rho": lambda x: Well(2.0, x),
    "CouplingFamily-a0": lambda x: CouplingFamily(x),
    "CouplingFamily-rho": lambda x: CouplingFamily(2.0, x),
    "mu-a": lambda x: mu(0.3, x),
    "s_matrix_eigenvalue-lambda": lambda x: s_matrix_eigenvalue(0, x, WELL),
    "resonant_state-r": lambda x: resonant_state(1, SurfacePoint.from_complex(0.3j), WELL, x),
    "sector_scan-radius": lambda x: sector_scan(WELL, radius=x),
    "phase_shift_derivative-lambda": lambda x: phase_shift_derivative(0, x, WELL),
    "asymptotic_phase_derivative-lambda": lambda x: asymptotic_phase_derivative(x, WELL),
    "total_phase_derivative-lambda": lambda x: total_phase_derivative(x, WELL),
    "scattering_phase-lambda": lambda x: scattering_phase(x, WELL),
    "delta_resonance-a": lambda x: delta_resonance(x, 1),
    "delta_phase_derivative-a": lambda x: delta_phase_derivative(x, 1.0),
    "delta_phase_derivative-lambda": lambda x: delta_phase_derivative(10.0, x),
    "TrackSpec-rho": lambda x: TrackSpec(0, 1, (-0.1,), rho=x).resonance_track(),
    "PhaseSpec-eps": lambda x: PhaseSpec(1, x, 1.0, 3).run(Path("out"), "phase"),
}

NOT_POSITIVE = {
    "array": np.array([2.0, 3.0]),
    "string": "1",
    "nan": math.nan,
    "inf": math.inf,
    "zero": 0.0,
    "negative": -1.0,
}


@pytest.mark.parametrize("value", NOT_POSITIVE.values(), ids=NOT_POSITIVE)
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_a_positive_scalar_argument_is_one_finite_real_number(call, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DomainError, match="must be one positive finite number"):
        call(value)
    assert list(tmp_path.iterdir()) == []
