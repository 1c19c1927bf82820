"""Hypothesis strategies over the parameter box of the property tests:
V 1.5-60, 0-200 km, eps_c 0-0.1, eta_d 0.3-0.99, v_ele 0-0.3, beta 0.85-1."""

from hypothesis import settings
from hypothesis import strategies as st

from cvqkd_calib import SystemParams, transmittance_from_km

# Derandomized, so every run draws the same examples and a failure replays.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

distances_km = st.floats(0.0, 200.0)

# Every SystemParams field except the transmittance.
link_fields = st.fixed_dictionaries({
    "v": st.floats(1.5, 60.0),
    "eps_c": st.floats(0.0, 0.1),
    "eta_d": st.floats(0.3, 0.99),
    "v_ele": st.floats(0.0, 0.3),
    "beta": st.floats(0.85, 1.0),
})


def at_km(fields: dict, km: float) -> SystemParams:
    return SystemParams(t=transmittance_from_km(km), **fields)


system_params = st.builds(at_km, link_fields, distances_km)
