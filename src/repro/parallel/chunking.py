"""Chunking arithmetic for parallel fan-out.

Splits ``n`` items into at most ``n_chunks`` contiguous, balanced
chunks: sizes differ by at most one, order is preserved, nothing is
dropped or duplicated.  These invariants are property-tested in
``tests/parallel/test_parallel.py``.
"""

from __future__ import annotations


def chunk_indices(n: int, n_chunks: int) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` index ranges covering ``range(n)``.

    The first ``n % n_chunks`` chunks get one extra item.  Empty chunks
    are never produced: with ``n < n_chunks`` only ``n`` ranges return.

    Raises:
        ValueError: for negative ``n`` or non-positive ``n_chunks``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n_chunks <= 0:
        raise ValueError(f"n_chunks must be positive, got {n_chunks}")
    n_chunks = min(n_chunks, n)
    if n_chunks == 0:
        return []
    base, extra = divmod(n, n_chunks)
    ranges = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges

