"""Table partitioning for parallel scans.

A :class:`Partitioner` splits a :class:`~repro.engine.table.Table` into K
disjoint partitions whose union is the input.  Two modes:

* ``"range"`` (default): contiguous row ranges.  Zero-copy -- each partition
  is a numpy *view* of the parent columns (see :meth:`Table.slice`) -- and
  order-preserving, which the parallel sample-construction path relies on to
  reproduce the serial scan bit-for-bit.
* ``"hash"``: rows are routed by a hash of the given columns, so every
  group's rows land in exactly one partition.  Costs one pass of hashing and
  a copy per partition; useful when downstream work is per-group.

Partition-parallel execution over these splits is performed by
:class:`~repro.engine.executor.ParallelExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .groupby import factorize
from .table import Table

__all__ = ["Partition", "Partitioner"]


@dataclass(frozen=True)
class Partition:
    """One split of a table: the rows plus where they came from.

    Attributes:
        table: the partition's rows.
        index: position of this partition in the split (``0..k-1``).
        row_offset: for range partitions, the parent-table index of the
            partition's first row (``-1`` for hash partitions, whose rows
            are not contiguous in the parent).
    """

    table: Table
    index: int
    row_offset: int = -1

    @property
    def num_rows(self) -> int:
        return self.table.num_rows


class Partitioner:
    """Splits tables into K disjoint, exhaustive partitions.

    Args:
        mode: ``"range"`` (contiguous row ranges, zero-copy) or ``"hash"``
            (hash routing on ``hash_columns``).
        hash_columns: required for ``"hash"`` mode; ignored otherwise.
    """

    def __init__(
        self,
        mode: str = "range",
        hash_columns: Optional[Sequence[str]] = None,
    ):
        if mode not in ("range", "hash"):
            raise ValueError(f"partition mode must be range or hash, got {mode!r}")
        if mode == "hash" and not hash_columns:
            raise ValueError("hash partitioning requires hash_columns")
        self.mode = mode
        self.hash_columns = tuple(hash_columns or ())

    def split(self, table: Table, k: int) -> List[Partition]:
        """Split ``table`` into at most ``k`` non-empty partitions.

        Fewer than ``k`` partitions are returned when the table has fewer
        than ``k`` rows (range mode never emits an empty partition; hash
        mode drops empty buckets).  An empty table yields a single empty
        range partition so callers always have something to scan.
        """
        if k < 1:
            raise ValueError(f"partition count must be >= 1, got {k}")
        if self.mode == "hash":
            return self._split_hash(table, k)
        return self._split_range(table, k)

    def _split_range(self, table: Table, k: int) -> List[Partition]:
        rows = table.num_rows
        if rows == 0:
            return [Partition(table, 0, 0)]
        k = min(k, rows)
        # Even split: the first (rows % k) partitions get one extra row.
        bounds = np.linspace(0, rows, k + 1).astype(np.int64)
        return [
            Partition(table.slice(int(start), int(stop)), i, int(start))
            for i, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]

    def _split_hash(self, table: Table, k: int) -> List[Partition]:
        if table.num_rows == 0:
            return [Partition(table, 0, 0)]
        buckets = np.zeros(table.num_rows, dtype=np.int64)
        for name in self.hash_columns:
            values = table.column(name)
            # Stable per-column hashing: factorize to dense codes first so
            # string columns hash cheaply and reproducibly.
            codes, __ = factorize(values)
            buckets = buckets * 1000003 + codes
        buckets = buckets % k
        out = []
        for i in range(k):
            mask = buckets == i
            if not mask.any():
                continue
            out.append(Partition(table.filter(mask), len(out)))
        return out
