"""Peak traced memory of one call, for the tests that bound a command's footprint."""

import tracemalloc


def traced_peak(call):
    """``call()``'s result and the peak of tracemalloc's traced memory during it, in bytes above the start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
