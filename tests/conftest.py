from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the budget at which rare bit-for-bit failures of the grid sweeps showed; the
# tests marked deep run at it: pytest -m deep --hypothesis-profile=deep
settings.register_profile("deep", settings.get_profile("default"), max_examples=1500)
settings.load_profile("default")
