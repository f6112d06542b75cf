try:
    from hypothesis import settings
except ImportError:  # the property tests are skipped without Hypothesis
    pass
else:
    # Fixed examples and no per-example deadline, so the suite is
    # deterministic and timing noise cannot fail it; no example database.
    settings.register_profile("minent", derandomize=True, deadline=None, database=None)
    settings.load_profile("minent")
