"""Hypothesis strategies shared by the property tests."""
from hypothesis import strategies as st

from nilcomm.partitions import Partition


@st.composite
def partitions(draw, max_n):
    """A partition of a random n in 1..max_n, drawn part by part."""
    remaining = draw(st.integers(1, max_n))
    parts = []
    while remaining:
        parts.append(draw(st.integers(1, remaining)))
        remaining -= parts[-1]
    return Partition(parts)
