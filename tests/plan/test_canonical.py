"""Canonical forms and fingerprints: units + Hypothesis properties.

The load-bearing claims, per ``docs/CACHING.md``:

* canonicalization is *idempotent* -- canonical form of a canonical form
  is itself, fingerprints included;
* the semantic fingerprint is invariant under spelling permutations
  (conjunct order, IN-list order, GROUP BY column order, output alias
  names) -- and those spellings produce *bit-identical* answers when
  served through the cache's canonical tier;
* the structural fingerprint stays alias- and order-sensitive, because
  streaming/plan caches bake output schemas into their values.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.aqua.system import AquaSystem  # noqa: E402
from repro.engine import Column, ColumnType, Schema, Table  # noqa: E402
from repro.engine.expressions import Col  # noqa: E402
from repro.engine.predicates import Comparison, Or, disjoin  # noqa: E402
from repro.engine.sql import parse_query  # noqa: E402
from repro.plan import (  # noqa: E402
    canonicalize,
    canonicalize_predicate,
    canonicalize_query,
    lower_query,
    predicate_conjuncts,
)


def _query(sql):
    return parse_query(sql)


def _or_depth(predicate):
    if isinstance(predicate, Or):
        return 1 + max(_or_depth(predicate.left), _or_depth(predicate.right))
    return 0


class TestPredicateCanonicalization:
    def test_conjunct_order_is_normalized(self):
        a = _query("SELECT g FROM t WHERE g = 'x' AND v > 2 GROUP BY g")
        b = _query("SELECT g FROM t WHERE v > 2 AND g = 'x' GROUP BY g")
        assert canonicalize_predicate(a.where) == canonicalize_predicate(
            b.where
        )

    def test_duplicate_conjuncts_are_absorbed(self):
        a = _query("SELECT g FROM t WHERE v > 2 AND v > 2 GROUP BY g")
        b = _query("SELECT g FROM t WHERE v > 2 GROUP BY g")
        assert canonicalize_predicate(a.where) == canonicalize_predicate(
            b.where
        )

    def test_in_list_order_is_normalized(self):
        a = _query("SELECT g FROM t WHERE g IN ('b', 'a') GROUP BY g")
        b = _query("SELECT g FROM t WHERE g IN ('a', 'b') GROUP BY g")
        assert canonicalize_predicate(a.where) == canonicalize_predicate(
            b.where
        )

    def test_wide_disjunction_stays_balanced(self):
        terms = [
            Comparison.of(Col("g"), "=", f"k{i:04d}") for i in range(2000)
        ]
        canonical = canonicalize_predicate(disjoin(terms[::-1]))
        assert _or_depth(canonical) <= 12
        assert canonical == canonicalize_predicate(disjoin(terms))

    def test_conjunct_texts_cover_where_and_none(self):
        q = _query("SELECT g FROM t WHERE v > 2 AND g = 'x' GROUP BY g")
        assert predicate_conjuncts(q.where) == ("g = 'x'", "v > 2")
        assert predicate_conjuncts(None) == ()


class TestQueryFingerprints:
    def test_alias_rename_shares_semantic_fingerprint(self):
        a = canonicalize_query(
            _query("SELECT g, SUM(v) AS s FROM t GROUP BY g")
        )
        b = canonicalize_query(
            _query("SELECT g, SUM(v) AS total FROM t GROUP BY g")
        )
        assert a.fingerprint == b.fingerprint
        assert a.structural != b.structural

    def test_group_by_permutation_shares_semantic_fingerprint(self):
        a = canonicalize_query(
            _query("SELECT g, h, SUM(v) AS s FROM t GROUP BY g, h")
        )
        b = canonicalize_query(
            _query("SELECT g, h, SUM(v) AS s FROM t GROUP BY h, g")
        )
        assert a.fingerprint == b.fingerprint
        assert a.structural != b.structural

    def test_different_aggregates_do_not_collide(self):
        a = canonicalize_query(
            _query("SELECT g, SUM(v) AS s FROM t GROUP BY g")
        )
        b = canonicalize_query(
            _query("SELECT g, AVG(v) AS s FROM t GROUP BY g")
        )
        assert a.fingerprint != b.fingerprint

    def test_having_falls_back_to_alias_sensitive(self):
        a = canonicalize_query(
            _query(
                "SELECT g, SUM(v) AS s FROM t GROUP BY g HAVING s > 10"
            )
        )
        b = canonicalize_query(
            _query(
                "SELECT g, SUM(v) AS total FROM t GROUP BY g "
                "HAVING total > 10"
            )
        )
        assert a.fingerprint != b.fingerprint

    def test_aliases_recorded_in_select_order(self):
        c = canonicalize_query(
            _query("SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g")
        )
        assert c.aliases == ("g", "s", "c")


# -- Hypothesis: idempotence + permutation invariance ----------------------

_CONJUNCTS = ["v > 2", "g != 'zz'", "h IN ('x', 'y')", "v < 900"]
_AGGS = [
    ("SUM(v)", "sum"),
    ("COUNT(*)", "count"),
    ("AVG(v)", "avg"),
]


@st.composite
def _spellings(draw):
    """One query in two spellings that must share a semantic fingerprint.

    The SELECT list order is held fixed across both spellings -- it is
    output-schema-significant (the cache reconciles hits positionally),
    so only fingerprint-invariant degrees of freedom vary: GROUP BY
    clause order, WHERE conjunct order, and output alias names.
    """
    group = draw(st.permutations(["g", "h"]))
    group2 = draw(st.permutations(list(group)))
    n_aggs = draw(st.integers(min_value=1, max_value=3))
    aggs = _AGGS[:n_aggs]
    n_conj = draw(st.integers(min_value=0, max_value=3))
    conjuncts = draw(
        st.lists(
            st.sampled_from(_CONJUNCTS),
            min_size=n_conj,
            max_size=n_conj,
            unique=True,
        )
    )
    conjuncts2 = draw(st.permutations(conjuncts))
    rename = draw(st.booleans())

    def spell(group_clause, conj, suffix):
        select = "g, h, " + ", ".join(
            f"{expr} AS a{i}{suffix}" for i, (expr, _f) in enumerate(aggs)
        )
        where = (" WHERE " + " AND ".join(conj)) if conj else ""
        return (
            f"SELECT {select} FROM t{where} "
            f"GROUP BY {', '.join(group_clause)}"
        )

    return spell(group, conjuncts, ""), spell(
        group2, conjuncts2, "x" if rename else ""
    )


@settings(deadline=None, max_examples=60)
@given(pair=_spellings())
def test_equivalent_spellings_share_the_semantic_fingerprint(pair):
    sql_a, sql_b = pair
    a = canonicalize_query(_query(sql_a))
    b = canonicalize_query(_query(sql_b))
    assert a.fingerprint == b.fingerprint, (sql_a, sql_b)


@settings(deadline=None, max_examples=60)
@given(pair=_spellings())
def test_canonicalize_query_is_idempotent(pair):
    sql, _other = pair
    first = canonicalize_query(_query(sql))
    second = canonicalize_query(first.query)
    assert second.query == first.query
    assert second.fingerprint == first.fingerprint
    assert second.structural == first.structural


@settings(deadline=None, max_examples=60)
@given(pair=_spellings())
def test_canonicalize_plan_is_idempotent(pair):
    sql, _other = pair
    table = _table(200, 5)
    system = AquaSystem(space_budget=64, rng=np.random.default_rng(5))
    system.register_table("t", table, build=False)
    lowered = lower_query(_query(sql), system.catalog)
    once, fp_once = canonicalize(lowered)
    twice, fp_twice = canonicalize(once)
    assert twice == once
    assert fp_twice == fp_once


# -- Hypothesis: equivalent spellings produce bit-identical answers --------


def _table(n, seed):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            Column("g", ColumnType.STR, "grouping"),
            Column("h", ColumnType.STR, "grouping"),
            Column("v", ColumnType.FLOAT, "aggregate"),
        ]
    )
    return Table.from_columns(
        schema,
        g=rng.choice(["a", "b", "c"], size=n),
        h=rng.choice(["x", "y"], size=n),
        v=rng.gamma(2.0, 30.0, size=n),
    )


def _sorted_values(answer, group_cols, aliases):
    """Aggregate (+error) arrays row-aligned by sorted group key."""
    result = answer.result
    keys = list(
        zip(*(np.asarray(result.column(c)).tolist() for c in group_cols))
    )
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    out = {}
    for alias in aliases:
        for name in (alias, f"{alias}_error"):
            out[name] = np.asarray(result.column(name))[order]
    return [key for key in sorted(keys)], out


@settings(deadline=None, max_examples=20)
@given(pair=_spellings(), seed=st.integers(min_value=0, max_value=2**16))
def test_equivalent_spellings_answer_bit_identically(pair, seed):
    sql_a, sql_b = pair
    table = _table(600, seed)
    system = AquaSystem(
        space_budget=150, rng=np.random.default_rng(seed), cache=True
    )
    system.register_table("t", table, grouping_columns=["g", "h"])

    first = system.answer(sql_a)
    second = system.answer(sql_b)
    assert second.cache_tier in ("exact", "canonical"), (sql_a, sql_b)

    aliases_a = [
        a for a in canonicalize_query(_query(sql_a)).aliases
        if a not in ("g", "h")
    ]
    aliases_b = [
        b for b in canonicalize_query(_query(sql_b)).aliases
        if b not in ("g", "h")
    ]
    group_cols = ["g", "h"]
    keys_a, vals_a = _sorted_values(first, group_cols, aliases_a)
    keys_b, vals_b = _sorted_values(second, group_cols, aliases_b)
    assert keys_a == keys_b
    for a, b in zip(aliases_a, aliases_b):
        np.testing.assert_array_equal(vals_a[a], vals_b[b])
        np.testing.assert_array_equal(
            vals_a[f"{a}_error"], vals_b[f"{b}_error"]
        )
