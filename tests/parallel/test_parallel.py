"""Chunking arithmetic tests (property-based where it matters)."""

import pytest
from hypothesis import given, strategies as st

from repro.uncertainty.mc import _chunk_indices as chunk_indices


class TestChunkIndices:
    @given(st.integers(min_value=0, max_value=5000),
           st.integers(min_value=1, max_value=64))
    def test_partition_properties(self, n, k):
        ranges = chunk_indices(n, k)
        # Covers [0, n) exactly, in order, without gaps or overlaps.
        cursor = 0
        for start, stop in ranges:
            assert start == cursor
            assert stop > start          # never an empty chunk
            cursor = stop
        assert cursor == n

    @given(st.integers(min_value=1, max_value=5000),
           st.integers(min_value=1, max_value=64))
    def test_balanced_sizes(self, n, k):
        sizes = [stop - start for start, stop in chunk_indices(n, k)]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_chunks(self):
        assert len(chunk_indices(3, 10)) == 3

    def test_zero_items(self):
        assert chunk_indices(0, 4) == []

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            chunk_indices(-1, 4)
        with pytest.raises(ValueError):
            chunk_indices(10, 0)
