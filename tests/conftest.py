from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the budget at which rare bit-for-bit failures of the grid sweeps showed:
# pytest --hypothesis-profile=deep -k grid_calls_equal_the_scalar_calls, and
# -k char_q_on_a_grid_agrees_with_the_scalar_calls; the real-Y sweeps run at it
# too, -k "order_tables_equal or real_y", and the list body's bit pin against
# scipy called once per point, test_q_lists_are_the_per_point_reference_bit_for_bit,
# -k per_point_reference
settings.register_profile("deep", settings.get_profile("default"), max_examples=1500)
settings.load_profile("default")
