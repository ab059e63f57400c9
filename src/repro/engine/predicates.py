"""Boolean predicate AST with vectorized numpy evaluation.

Predicates evaluate against a table to a boolean mask.  They model the WHERE
clauses of the paper's workloads: range predicates on ``l_id`` (query set
``Q_g0``), date cutoffs (TPC-D Q1), and conjunctions thereof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple, Union

import numpy as np

from .expressions import Expression, ExpressionLike, _wrap
from .table import Table

__all__ = [
    "Predicate",
    "Comparison",
    "Between",
    "InList",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "disjoin",
]


class Predicate:
    """Base class for boolean row predicates."""

    def evaluate(self, table: Table) -> np.ndarray:
        """Return a boolean mask with one entry per row."""
        raise NotImplementedError

    def referenced_columns(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


_COMPARATORS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left <op> right`` for op in =, !=, <, <=, >, >=."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ValueError(f"unsupported comparator {self.op!r}")

    @classmethod
    def of(cls, left: ExpressionLike, op: str, right: ExpressionLike) -> "Comparison":
        return cls(op, _wrap(left), _wrap(right))

    def evaluate(self, table: Table) -> np.ndarray:
        return _COMPARATORS[self.op](
            self.left.evaluate(table), self.right.evaluate(table)
        )

    def referenced_columns(self) -> Tuple[str, ...]:
        return _merge(self.left.referenced_columns(), self.right.referenced_columns())

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class Between(Predicate):
    """``low <= expr <= high`` (SQL BETWEEN semantics, inclusive)."""

    expr: Expression
    low: Expression
    high: Expression

    @classmethod
    def of(
        cls, expr: ExpressionLike, low: ExpressionLike, high: ExpressionLike
    ) -> "Between":
        return cls(_wrap(expr), _wrap(low), _wrap(high))

    def evaluate(self, table: Table) -> np.ndarray:
        values = self.expr.evaluate(table)
        return (values >= self.low.evaluate(table)) & (
            values <= self.high.evaluate(table)
        )

    def referenced_columns(self) -> Tuple[str, ...]:
        return _merge(
            self.expr.referenced_columns(),
            self.low.referenced_columns(),
            self.high.referenced_columns(),
        )


@dataclass(frozen=True)
class InList(Predicate):
    """``expr IN (v1, v2, ...)``."""

    expr: Expression
    values: Tuple[Union[int, float, str], ...]

    @classmethod
    def of(cls, expr: ExpressionLike, values: Sequence) -> "InList":
        return cls(_wrap(expr), tuple(values))

    def evaluate(self, table: Table) -> np.ndarray:
        column = self.expr.evaluate(table)
        return np.isin(column, np.asarray(self.values))

    def referenced_columns(self) -> Tuple[str, ...]:
        return self.expr.referenced_columns()


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate

    def evaluate(self, table: Table) -> np.ndarray:
        return self.left.evaluate(table) & self.right.evaluate(table)

    def referenced_columns(self) -> Tuple[str, ...]:
        return _merge(self.left.referenced_columns(), self.right.referenced_columns())

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate

    def evaluate(self, table: Table) -> np.ndarray:
        return self.left.evaluate(table) | self.right.evaluate(table)

    def referenced_columns(self) -> Tuple[str, ...]:
        return _merge(self.left.referenced_columns(), self.right.referenced_columns())

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


def disjoin(parts: Sequence[Predicate]) -> Predicate:
    """The disjunction of ``parts`` (non-empty) as a balanced ``Or`` tree.

    Evaluation, equality, hashing and rendering all recurse through the
    tree, so a left-deep chain of a few hundred terms (one per repaired
    group key) overflows the interpreter's recursion limit; a balanced
    tree keeps the depth logarithmic.  Up to three parts it is the
    left-deep chain.
    """
    if len(parts) == 1:
        return parts[0]
    mid = (len(parts) + 1) // 2
    return Or(disjoin(parts[:mid]), disjoin(parts[mid:]))


@dataclass(frozen=True)
class Not(Predicate):
    operand: Predicate

    def evaluate(self, table: Table) -> np.ndarray:
        return ~self.operand.evaluate(table)

    def referenced_columns(self) -> Tuple[str, ...]:
        return self.operand.referenced_columns()


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Matches every row; the implicit WHERE clause of a query without one."""

    def evaluate(self, table: Table) -> np.ndarray:
        return np.ones(table.num_rows, dtype=bool)

    def referenced_columns(self) -> Tuple[str, ...]:
        return ()


def _merge(*groups: Tuple[str, ...]) -> Tuple[str, ...]:
    seen = []
    for group in groups:
        for name in group:
            if name not in seen:
                seen.append(name)
    return tuple(seen)
