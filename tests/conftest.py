import contextlib
import random
import tracemalloc

from hypothesis import settings
from hypothesis import strategies as st

from linset.epset import EPSet

# CI passes --hypothesis-profile=ci: every run draws the same examples, so
# whether a property test fails does not depend on the run
settings.register_profile("ci", derandomize=True)


def random_epset(rng: random.Random, max_period: int = 12, span: int = 40) -> EPSet:
    g = rng.randint(1, max_period)
    width = rng.randint(0, span)
    lo = rng.randint(-span, span - width)  # window stays inside [-span, span]
    window = rng.getrandbits(width) if width else 0
    neg = rng.getrandbits(g)
    pos = rng.getrandbits(g)
    return EPSet(g, lo, lo + width - 1, window, neg, pos)


@contextlib.contextmanager
def allocates_below(limit: int):
    """Fail unless the block's traced allocations peak below ``limit`` bytes."""
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, "peak of %d bytes" % peak


@st.composite
def epsets(draw, max_period: int = 12, span: int = 24, tail_bits=None):
    """An EPSet with a period up to ``max_period`` and a window inside
    [-span, 2 * span]; with ``tail_bits``, each tail has at most that many
    residues, so that sparse tails leave classes uncovered."""
    g = draw(st.integers(1, max_period))
    lo = draw(st.integers(-span, span))
    width = draw(st.integers(0, span))
    window = draw(st.integers(0, (1 << width) - 1)) if width else 0
    if tail_bits is None:
        tail = st.integers(0, (1 << g) - 1)
    else:
        tail = st.lists(st.integers(0, g - 1), max_size=tail_bits).map(
            lambda rs: sum(1 << r for r in set(rs)))
    return EPSet(g, lo, lo + width - 1, window, draw(tail), draw(tail))
