"""Unit tests for the hash group-by executor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    Aggregate,
    ColumnType,
    Schema,
    Table,
    col,
    distinct,
    group_by,
    group_ids_for,
)
from repro.engine.groupby import factorize


@pytest.fixture
def table():
    schema = Schema.of(
        ("a", ColumnType.STR), ("b", ColumnType.INT), ("v", ColumnType.FLOAT)
    )
    return Table.from_columns(
        schema,
        a=["x", "x", "y", "y", "x"],
        b=[1, 2, 1, 1, 1],
        v=[10.0, 20.0, 30.0, 40.0, 50.0],
    )


class TestGroupIds:
    def test_single_key(self, table):
        ids, keys, num = group_ids_for(table, ["a"])
        assert num == 2
        assert keys == [("x",), ("y",)]
        assert ids.tolist() == [0, 0, 1, 1, 0]

    def test_multi_key(self, table):
        ids, keys, num = group_ids_for(table, ["a", "b"])
        assert num == 3
        assert set(keys) == {("x", 1), ("x", 2), ("y", 1)}
        # Rows with equal key tuples share an id.
        assert ids[0] == ids[4]
        assert ids[2] == ids[3]

    def test_no_keys_single_group(self, table):
        ids, keys, num = group_ids_for(table, [])
        assert num == 1
        assert keys == [()]
        assert (ids == 0).all()

    def test_empty_table(self):
        schema = Schema.of(("a", ColumnType.STR))
        ids, keys, num = group_ids_for(Table.empty(schema), ["a"])
        assert num == 0
        assert len(ids) == 0


class TestGroupBy:
    def test_sum_per_group(self, table):
        result = group_by(table, ["a"], [Aggregate("sum", col("v"), "s")])
        by_key = {row["a"]: row["s"] for row in result.to_dicts()}
        assert by_key == {"x": 80.0, "y": 70.0}

    def test_multiple_aggregates(self, table):
        result = group_by(
            table,
            ["a"],
            [
                Aggregate("sum", col("v"), "s"),
                Aggregate.count_star("c"),
                Aggregate("max", col("v"), "m"),
            ],
        )
        row = [r for r in result.to_dicts() if r["a"] == "x"][0]
        assert (row["s"], row["c"], row["m"]) == (80.0, 3.0, 50.0)

    def test_expression_aggregate(self, table):
        result = group_by(
            table, ["a"], [Aggregate("sum", col("v") * col("b"), "s")]
        )
        by_key = {row["a"]: row["s"] for row in result.to_dicts()}
        assert by_key == {"x": 10.0 + 40.0 + 50.0, "y": 70.0}

    def test_no_keys_collapses_to_one_row(self, table):
        result = group_by(table, [], [Aggregate("sum", col("v"), "s")])
        assert result.num_rows == 1
        assert result.column("s")[0] == 150.0

    def test_key_types_preserved(self, table):
        result = group_by(table, ["b"], [Aggregate.count_star("c")])
        assert result.schema.column("b").ctype is ColumnType.INT

    def test_aggregate_outputs_are_float(self, table):
        result = group_by(table, ["a"], [Aggregate.count_star("c")])
        assert result.schema.column("c").ctype is ColumnType.FLOAT


class TestDistinct:
    def test_distinct_pairs(self, table):
        result = distinct(table, ["a", "b"])
        assert result.num_rows == 3
        assert set(result.iter_rows()) == {("x", 1), ("x", 2), ("y", 1)}


def structured_group_ids(table, key_columns):
    """The previous kernel: ``np.unique`` over a structured array of keys.

    Kept as the parity oracle for :func:`group_ids_for` (except on NaN
    keys, where it split every NaN row into its own group).
    """
    if not key_columns:
        return np.zeros(table.num_rows, dtype=np.int64), [()], 1
    arrays = [table.column(name) for name in key_columns]
    if len(arrays) == 1:
        uniques, ids = np.unique(arrays[0], return_inverse=True)
        keys = [(value,) for value in uniques.tolist()]
        return ids.astype(np.int64), keys, len(keys)
    record = np.rec.fromarrays(arrays)
    uniques, ids = np.unique(record, return_inverse=True)
    keys = [tuple(np.asarray(u).tolist()) for u in uniques]
    return ids.astype(np.int64), keys, len(keys)


def assert_parity(table, key_columns):
    ids, keys, num = group_ids_for(table, key_columns)
    want_ids, want_keys, want_num = structured_group_ids(table, key_columns)
    assert ids.dtype == np.int64
    assert np.array_equal(ids, want_ids)
    assert keys == want_keys
    assert num == want_num == len(keys)


def make_table(columns):
    """``columns``: name -> (ColumnType, values)."""
    schema = Schema.of(*((name, ctype) for name, (ctype, __) in columns.items()))
    return Table.from_columns(
        schema, **{name: values for name, (__, values) in columns.items()}
    )


_INT64 = np.iinfo(np.int64)
# One strategy per key kind; small domains so rows collide into groups.
_KEY_KINDS = {
    "int": (ColumnType.INT, st.integers(-5, 5)),
    "wide_int": (
        ColumnType.INT,
        st.sampled_from([_INT64.min, -(2**40), -1, 0, 2**40, _INT64.max]),
    ),
    "date": (ColumnType.DATE, st.integers(10_950, 11_300)),
    "float": (
        ColumnType.FLOAT,
        st.sampled_from([-math.inf, -2.5, 0.0, 0.125, 3.0, 1e300]),
    ),
    "str": (ColumnType.STR, st.sampled_from(["", "a", "ab", "b", "zz"])),
}


@st.composite
def key_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_KEY_KINDS)), min_size=1, max_size=4))
    num_rows = draw(st.integers(0, 40))
    columns = {}
    for i, kind in enumerate(kinds):
        ctype, values = _KEY_KINDS[kind]
        columns[f"k{i}"] = (
            ctype,
            draw(st.lists(values, min_size=num_rows, max_size=num_rows)),
        )
    return make_table(columns)


class TestGroupIdParity:
    """``group_ids_for`` against the structured-array oracle."""

    @settings(max_examples=200, deadline=None)
    @given(key_tables())
    def test_random_keys(self, table):
        assert_parity(table, table.schema.names)

    @pytest.mark.parametrize("num_keys", [1, 2, 3, 4])
    def test_mixed_types(self, num_keys):
        rng = np.random.default_rng(num_keys)
        n = 3000
        columns = {
            "s": (ColumnType.STR, rng.choice(["n", "r", "a"], n)),
            "d": (ColumnType.DATE, rng.integers(9000, 11_500, n)),
            "i": (ColumnType.INT, rng.integers(-50, 50, n)),
            "f": (ColumnType.FLOAT, rng.choice([0.5, -1.0, 2.0], n)),
        }
        names = list(columns)[:num_keys]
        assert_parity(make_table({k: columns[k] for k in names}), names)

    def test_wide_span_ints(self):
        rng = np.random.default_rng(0)
        values = rng.integers(-(2**50), 2**50, 500) // 2**40 * 2**40
        table = make_table(
            {"w": (ColumnType.INT, values), "v": (ColumnType.INT, values % 3)}
        )
        assert_parity(table, ["w"])
        assert_parity(table, ["w", "v"])
        assert_parity(table, ["v", "w"])

    @pytest.mark.parametrize("num_rows", [0, 1])
    def test_empty_and_single_row(self, num_rows):
        table = make_table(
            {
                "a": (ColumnType.STR, ["x"] * num_rows),
                "b": (ColumnType.INT, [-7] * num_rows),
                "c": (ColumnType.FLOAT, [1.5] * num_rows),
                "d": (ColumnType.DATE, [11_000] * num_rows),
            }
        )
        for width in range(1, 5):
            assert_parity(table, table.schema.names[:width])

    def test_radix_overflow_compacts(self):
        """Four all-distinct keys: the mixed-radix product of their
        cardinalities passes 2**63, so the running ids are compacted
        before the last column is combined."""
        n = 70_000
        assert n**4 > 2**63
        rng = np.random.default_rng(7)
        columns = {
            "a": (ColumnType.INT, rng.permutation(n)),
            "b": (ColumnType.INT, rng.permutation(n) * 3 - n),
            "c": (ColumnType.DATE, rng.permutation(n) + 5000),
            "d": (ColumnType.INT, rng.permutation(n) * 2**40),
        }
        assert_parity(make_table(columns), list(columns))


def _nan_to_inf(keys):
    return [
        tuple(math.inf if isinstance(v, float) and math.isnan(v) else v for v in key)
        for key in keys
    ]


class TestNanKeys:
    """NaN keys form one group per column, as SQL ``GROUP BY`` does."""

    def test_multi_key_nans_merge(self):
        table = make_table(
            {
                "a": (ColumnType.FLOAT, [1.0, math.nan, math.nan, 1.0]),
                "b": (ColumnType.INT, [1, 2, 2, 1]),
            }
        )
        ids, keys, num = group_ids_for(table, ["a", "b"])
        assert num == 2
        assert ids.tolist() == [0, 1, 1, 0]
        assert _nan_to_inf(keys) == [(1.0, 1), (math.inf, 2)]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([math.nan, -1.0, 0.5, 3.0]), st.integers(0, 2)
            ),
            max_size=30,
        )
    )
    def test_nan_sorts_last_like_inf(self, rows):
        """NaN behaves as one value above every other: the oracle on the
        same rows with NaN spelled ``inf`` gives the same grouping."""
        floats = [r[0] for r in rows]
        ints = [r[1] for r in rows]
        table = make_table(
            {"f": (ColumnType.FLOAT, floats), "i": (ColumnType.INT, ints)}
        )
        spelled = make_table(
            {
                "f": (ColumnType.FLOAT, np.nan_to_num(floats, nan=math.inf)),
                "i": (ColumnType.INT, ints),
            }
        )
        for names in (["f"], ["f", "i"], ["i", "f"]):
            ids, keys, __ = group_ids_for(table, names)
            want_ids, want_keys, __ = structured_group_ids(spelled, names)
            assert np.array_equal(ids, want_ids)
            assert _nan_to_inf(keys) == want_keys


class TestFactorize:
    @pytest.mark.parametrize(
        "values",
        [
            np.array([True, False, True]),
            np.array([3, -1, 3, 7], dtype=np.int32),
            np.array([2**63 + 5, 2**63 + 1], dtype=np.uint64),
            np.array([_INT64.max, _INT64.min, 0]),
            np.array(["b", "a", "b"]),
            np.array([], dtype=np.int64),
        ],
    )
    def test_matches_np_unique(self, values):
        codes, uniques = factorize(values)
        want_uniques, want_codes = np.unique(values, return_inverse=True)
        assert uniques.dtype == values.dtype
        assert np.array_equal(uniques, want_uniques)
        assert np.array_equal(codes, want_codes)
