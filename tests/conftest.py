import gc
import tracemalloc

try:
    from hypothesis import settings
except ImportError:  # the property tests are skipped without Hypothesis
    pass
else:
    # Fixed examples and no per-example deadline, so the suite is
    # deterministic and timing noise cannot fail it; no example database.
    settings.register_profile("minent", derandomize=True, deadline=None, database=None)
    settings.load_profile("minent")


def traced(call, *args):
    """Run call(*args) under tracemalloc. Return its result, the peak bytes
    traced while it ran, and the bytes still traced when it returned: what
    the result holds, for a call that keeps nothing else. A full collection
    first empties the interpreter's free lists, so that every object the
    call makes is a traced allocation."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held
