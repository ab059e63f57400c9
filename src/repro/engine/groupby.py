"""Hash group-by executor.

Implements the engine's multi-key, multi-aggregate GROUP BY: compute a dense
group-id per row for the key columns, then reduce each aggregate input per
group (see :mod:`repro.engine.aggregates`).

The reduction is split into a *partial* phase (:func:`partial_group_by`:
local group keys plus mergeable :class:`~repro.engine.aggregates.AggregateState`
moments) and a *finalize* phase (:func:`finalize_group_by`).  The serial
:func:`group_by` is one partial immediately finalized; the parallel executor
runs one partial per partition and merges them with
:func:`merge_group_partials` first -- both paths share the same arithmetic.

Group ids come from a sort-free factorize kernel (:func:`group_ids_for`).
Each key column is mapped to dense codes in ascending value order
(:func:`factorize`: a ``bincount`` presence map for integer and date
columns of small value span, ``np.unique`` otherwise); the per-column codes
are combined into mixed-radix int64 codes, and one final compaction numbers
the groups densely in lexicographic key order.  Every per-group quantity
-- exact answers, Congress's ``n_g`` counts, guard support, streaming and
hash partitioning -- goes through this one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .aggregates import (
    Aggregate,
    AggregateState,
    finalize_state,
    merge_states,
    partial_reduce,
)
from .schema import Column, ColumnType, Schema
from .table import Table

__all__ = [
    "factorize",
    "group_ids_for",
    "group_by",
    "distinct",
    "GroupByPartial",
    "partial_group_by",
    "merge_group_partials",
    "finalize_group_by",
]


# Integer spans up to max(num_rows, _DENSE_FLOOR) are factorized by a
# presence bitmap (bincount + cumsum) instead of a sort.
_DENSE_FLOOR = 1024
# Mixed-radix codes stay below this, so ``ids * card + codes`` never
# overflows int64: compacted ids and every ``card`` are < num_rows, whose
# square is below 2**62 for any table under 2**31 rows.
_MAX_RADIX = 1 << 62


def _dense_remap(offsets: np.ndarray, span: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sort-free factorize of non-negative ints below ``span``.

    Returns ``(codes, present)``: dense codes in ascending value order and
    the ascending distinct offsets.
    """
    present = np.bincount(offsets, minlength=span).astype(bool)
    remap = np.cumsum(present) - 1
    return remap[offsets], np.flatnonzero(present)


def factorize(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Factorize one column into ``(codes, uniques)``.

    ``uniques`` holds the distinct values in ascending order (NaNs merged
    into one trailing value, as ``np.unique`` does) and ``codes[i]`` indexes
    ``values[i]`` in it.  Integer and date columns whose value span is at
    most ``max(len(values), 1024)`` avoid sorting altogether.
    """
    if values.dtype.kind == "b":
        codes, uniques = factorize(values.view(np.uint8))
        return codes, uniques.astype(bool)
    n = len(values)
    if values.dtype.kind in "iu" and n:
        lo, hi = values.min(), values.max()
        span = int(hi) - int(lo) + 1
        if span <= max(n, _DENSE_FLOOR):
            offsets = (values - lo).astype(np.intp, copy=False)
            codes, present = _dense_remap(offsets, span)
            return codes, present.astype(values.dtype) + lo
    uniques, codes = np.unique(values, return_inverse=True)
    return codes.reshape(-1), uniques


def _compact(ids: np.ndarray, radix: int) -> Tuple[np.ndarray, np.ndarray]:
    """Renumber mixed-radix codes below ``radix`` densely, keeping order.

    Returns ``(dense_ids, group_codes)`` where ``group_codes[j]`` is the
    mixed-radix code of dense id ``j``.
    """
    if radix <= max(len(ids), _DENSE_FLOOR):
        return _dense_remap(ids, radix)
    group_codes, dense = np.unique(ids, return_inverse=True)
    return dense.reshape(-1), group_codes


def group_ids_for(
    table: Table, key_columns: Sequence[str]
) -> Tuple[np.ndarray, List[Tuple], int]:
    """Compute a dense group id per row for the given key columns.

    Returns:
        ``(group_ids, group_keys, num_groups)`` where ``group_ids`` maps each
        row to ``[0, num_groups)`` and ``group_keys[i]`` is the tuple of key
        values for group ``i``, in ascending lexicographic order.  With no
        key columns, every row belongs to the single group ``()`` (the
        paper's "no group-bys" case).  NaN keys form one group per column,
        as SQL ``GROUP BY`` does.

    Each key column is factorized to sorted dense codes (:func:`factorize`)
    and the codes are combined into mixed-radix int64 codes; whenever the
    running radix would pass 2**62 the ids so far are compacted first.
    """
    if not key_columns:
        return np.zeros(table.num_rows, dtype=np.int64), [()], 1
    factors = [factorize(table.column(name)) for name in key_columns]
    ids, uniques = factors[0]
    if len(factors) == 1:
        return ids, [(value,) for value in uniques.tolist()], len(uniques)
    radix = len(uniques)
    layers = []  # (group_codes, cardinalities) per compaction
    cards = [radix]
    for codes, uniques in factors[1:]:
        card = len(uniques)
        if radix * card > _MAX_RADIX:
            ids, group_codes = _compact(ids, radix)
            layers.append((group_codes, cards))
            radix, cards = len(group_codes), []
        ids = ids * card + codes
        radix *= card
        cards.append(card)
    ids, group_codes = _compact(ids, radix)
    layers.append((group_codes, cards))
    # Decode each column's code per group, peeling the mixed radix from
    # the last column back through every compaction.
    column_codes = []
    remaining = None
    for group_codes, layer_cards in reversed(layers):
        remaining = group_codes if remaining is None else group_codes[remaining]
        for card in reversed(layer_cards):
            remaining, code = np.divmod(remaining, card)
            column_codes.append(code)
    column_codes.reverse()
    columns = [
        uniques[code].tolist()
        for (__, uniques), code in zip(factors, column_codes)
    ]
    keys = list(zip(*columns))
    return ids, keys, len(keys)


@dataclass
class GroupByPartial:
    """The mergeable result of grouping one partition.

    Attributes:
        key_columns: the grouping columns.
        group_keys: local group keys in dense-id order (sorted, as produced
            by :func:`group_ids_for`).
        states: per-aggregate-alias partial states, arrays aligned with
            ``group_keys``.
    """

    key_columns: Tuple[str, ...]
    group_keys: List[Tuple]
    states: Dict[str, AggregateState]

    @property
    def num_groups(self) -> int:
        return len(self.group_keys)


def partial_group_by(
    table: Table,
    key_columns: Sequence[str],
    aggregates: Sequence[Aggregate],
) -> GroupByPartial:
    """Group one partition into mergeable per-aggregate states."""
    group_ids, group_keys, num_groups = group_ids_for(table, key_columns)
    states = {}
    for agg in aggregates:
        values = agg.evaluate_input(table)
        states[agg.alias] = partial_reduce(
            agg.func, values, group_ids, num_groups
        )
    return GroupByPartial(tuple(key_columns), group_keys, states)


def merge_group_partials(
    partials: Sequence[GroupByPartial],
) -> GroupByPartial:
    """Merge partition-local partials over the union of their group keys.

    The merged key order is the sorted union, matching the sorted order
    :func:`group_ids_for` gives a single whole-table scan, so the parallel
    path emits groups in exactly the serial order.
    """
    if not partials:
        raise ValueError("merge_group_partials needs at least one partial")
    key_columns = partials[0].key_columns
    merged_keys = sorted({key for p in partials for key in p.group_keys})
    index_of = {key: i for i, key in enumerate(merged_keys)}
    index_maps = [
        np.fromiter(
            (index_of[key] for key in p.group_keys),
            dtype=np.int64,
            count=p.num_groups,
        )
        for p in partials
    ]
    aliases = list(partials[0].states)
    states = {
        alias: merge_states(
            [p.states[alias] for p in partials],
            index_maps,
            len(merged_keys),
        )
        for alias in aliases
    }
    return GroupByPartial(key_columns, merged_keys, states)


def finalize_group_by(
    partial: GroupByPartial,
    schema: Schema,
    aggregates: Sequence[Aggregate],
) -> Table:
    """Finalize a (merged) partial into the GROUP BY result table.

    ``schema`` is the *input* table's schema, used to type the key columns.
    """
    out_columns = {}
    key_schema_cols = []
    for pos, name in enumerate(partial.key_columns):
        src = schema.column(name)
        key_schema_cols.append(Column(name, src.ctype))
        out_columns[name] = src.ctype.coerce(
            [key[pos] for key in partial.group_keys]
        )
    agg_schema_cols = []
    for agg in aggregates:
        agg_schema_cols.append(Column(agg.alias, ColumnType.FLOAT))
        out_columns[agg.alias] = finalize_state(partial.states[agg.alias])
    return Table(Schema(key_schema_cols + agg_schema_cols), out_columns)


def group_by(
    table: Table,
    key_columns: Sequence[str],
    aggregates: Sequence[Aggregate],
) -> Table:
    """Group ``table`` by ``key_columns`` and compute ``aggregates``.

    The result schema is the key columns (original types) followed by one
    FLOAT column per aggregate, named by its alias.  With empty
    ``key_columns`` the result has a single row.
    """
    return finalize_group_by(
        partial_group_by(table, key_columns, aggregates),
        table.schema,
        aggregates,
    )


def distinct(table: Table, key_columns: Sequence[str]) -> Table:
    """Distinct combinations of the key columns (sorted by unique order)."""
    __, group_keys, __ = group_ids_for(table, key_columns)
    schema = table.schema.project(key_columns)
    return Table.from_rows(schema, group_keys)
