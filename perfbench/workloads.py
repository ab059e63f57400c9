"""The benchmark's three workloads: inputs, set-up, script and output checks.

Every workload is one closed-loop client (an analyst who waits for each
answer) driving the public API of ``repro``.  All inputs -- the lineitem
table, the queries drawn, the rows inserted and the system's own sampling
rng -- derive from the workload seed.  A script does a fixed amount of work
(scaled by ``--seconds``), so the counts a traced pass records repeat
exactly for one seed.

* ``paper_cold`` -- the paper's Table 2 classes in equal thirds, every cache
  tier emptied before each answer: the full cold pipeline next to the
  engine's exact path and the streaming path.
* ``olap_session`` -- a Zipf(1.0) session over 464 query instances served
  through ``QueryService``: parse, canonicalize, the cache tiers, the
  portfolio and the serving layer.
* ``ingest_mix`` -- inserts beside reads with the paper's Section 6 Congress
  maintainer: maintenance, flush, invalidation and synopsis refresh.

Every workload also calls ``exact()`` (the check every answer is scored
against), ``sql_stream()``, ``insert_many()`` and ``refresh_synopsis()``,
so every end-to-end metric is measured on every workload; the workload's
own metrics are the ones its description names.
"""

from __future__ import annotations

import gc
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aqua import AquaSystem
from repro.engine.table import Table
from repro.serve import QueryService, ServiceConfig
from repro.synthetic import LineitemConfig, generate_lineitem
from repro.synthetic.queries import qg0_set, qg2, qg3

TABLE = "lineitem"
NUM_GROUPS = 1000
PAPER_ROWS = 200_000
PAPER_BUDGET = 10_000  # SP = 5%, the paper's default sample percentage
INGEST_ROWS = 50_000
INGEST_BUDGET = 2_500  # SP = 5% again
SETUP_REPEATS = 3
#: paper_cold answers each query cold PAPER_REPEATS times (enough answers
#: for a steady p90), and after every Qg2/Qg3/Qg0 triple inserts
#: PAPER_BATCHES batches of PAPER_BATCH_ROWS rows and refreshes.  Many short
#: batches give the median batch rate over a hundred samples a run, and a
#: batch that short is rarely cut by another tenant of a shared host.
PAPER_TRIPLES_PER_SECOND = 0.7
PAPER_REPEATS, PAPER_BATCHES, PAPER_BATCH_ROWS = 5, 10, 100
#: olap_session loads a staging table beside the session: it starts with
#: STAGE_ROWS rows, takes STAGE_BATCHES inserts and refreshes after every
#: STAGE_REFRESH_EVERY-th.
STAGE = "lineitem_stage"
STAGE_ROWS, STAGE_BATCHES, STAGE_BATCH_ROWS = 20_000, 96, 250
STAGE_REFRESH_EVERY = 6
#: ingest_mix: rows per insert batch, and batches between refreshes.
INGEST_BATCH_ROWS, REFRESH_EVERY = 500, 4
APPROX = ("synopsis", "rollup")
EXACT = ("exact", "repaired")

# Seed streams: one per kind of drawn input.
_DATA, _SYSTEM, _QUERIES, _SESSION = range(4)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _lineitem(seed: int, rows: int) -> Table:
    return generate_lineitem(
        LineitemConfig(
            table_size=rows,
            num_groups=NUM_GROUPS,
            seed=int(np.random.SeedSequence([seed, _DATA]).generate_state(1)[0]),
        )
    )


def _split(table: Table, rows: int) -> Tuple[Table, Table]:
    """The first ``rows`` rows to register, and the rest to insert later."""
    return table.slice(0, rows), table.slice(rows, table.num_rows)


def _rows(table: Table, start: int, count: int) -> List[tuple]:
    """Row tuples of one insert batch.

    Held-out rows stay columnar until their batch is due: a list of every
    held-out tuple would lengthen each garbage collection inside the timed
    calls.
    """
    return list(table.slice(start, min(start + count, table.num_rows)).iter_rows())


# -- bookkeeping -------------------------------------------------------------


@dataclass
class Tally:
    """Everything one pass of a workload measured and checked."""

    rec: Optional[object] = None
    answer_ms: List[float] = field(default_factory=list)
    exact_ms: List[float] = field(default_factory=list)
    stream_ms: List[float] = field(default_factory=list)
    refresh_ms: List[float] = field(default_factory=list)
    insert_rows_per_s: List[float] = field(default_factory=list)
    class_ms: Dict[Tuple[str, str], List[float]] = field(default_factory=dict)
    queued_ms: List[float] = field(default_factory=list)
    tiers: Dict[str, int] = field(default_factory=dict)
    groups: int = 0
    approx_groups: int = 0
    #: Definition 3.1's L1 relative error of each (answer, aggregate).
    rel_errors: List[float] = field(default_factory=list)
    covered: int = 0
    bounded: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    evictions: int = 0

    def call(self, kind: str, fn: Callable, *args, **kwargs):
        """Run one operation; returns ``(result, seconds)``.

        A raised error counts as a failed operation and returns
        ``(None, None)``: the run goes on and reports it.
        """
        self.attempted += 1
        token = self.rec.begin_op(kind) if self.rec is not None else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # reported as a failed operation
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None, None
        finally:
            seconds = time.perf_counter() - start
            if token is not None:
                self.rec.end_op(token)
        return result, seconds

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message[:300])

    def by_class(self, label: str, kind: str, seconds: float) -> None:
        self.class_ms.setdefault((label, kind), []).append(1e3 * seconds)

    @property
    def answers(self) -> int:
        return len(self.answer_ms)

    @property
    def answer_qps(self) -> float:
        return self.answers / max(1e-3 * sum(self.answer_ms), 1e-12)


def first_emission(system: AquaSystem, sql: str):
    """Time to first answer of ``sql_stream``: pull one emission, then stop."""
    stream = system.sql_stream(sql)
    try:
        return next(stream)
    finally:
        stream.close()


def _keys(table, group_cols: Sequence[str]) -> List[tuple]:
    if not group_cols:
        return [()] * table.num_rows
    return list(zip(*(table.column(c).tolist() for c in group_cols)))


def check_answer(
    tally: Tally,
    served,
    exact,
    group_cols: Sequence[str],
    aliases: Sequence[str],
    what: str,
) -> None:
    """Score one served answer against ``exact()``.

    Fails the check when the answer's groups differ from the exact answer's
    (congressional samples cover every group) or an exact/repaired group's
    value differs from ``exact()``.  Tallies the answer's L1 relative error
    per aggregate (Definition 3.1: the mean over its groups) and, for every
    (group, aggregate) pair, whether the exact value lies inside the
    reported half-width.
    """
    keys = _keys(served, group_cols)
    index = {key: i for i, key in enumerate(_keys(exact, group_cols))}
    if len(keys) != len(index) or set(keys) != set(index):
        tally.fail(
            f"{what}: served {len(keys)} groups, exact() has {len(index)}"
        )
        return
    order = np.array([index[key] for key in keys], dtype=np.int64)
    exact_rows = np.isin(served.column("provenance").astype(str), EXACT)
    for alias in aliases:
        estimate = served.column(alias).astype(np.float64)
        halfwidth = served.column(f"{alias}_error").astype(np.float64)
        truth = exact.column(alias).astype(np.float64)[order]
        # Exact-path sums of non-integer prices may differ in the last
        # bits with summation order; 1e-9 relative is far below any error.
        if not np.allclose(
            estimate[exact_rows], truth[exact_rows], rtol=1e-9, atol=0.0
        ):
            tally.fail(f"{what}: {alias} of an exact/repaired group != exact()")
        miss = np.abs(estimate - truth)
        nonzero = truth != 0
        if nonzero.any():
            tally.rel_errors.append(
                float(np.mean(miss[nonzero] / np.abs(truth[nonzero])))
            )
        tally.bounded += len(truth)
        tally.covered += int(
            (miss <= halfwidth * (1 + 1e-9) + 1e-9 * np.abs(truth)).sum()
        )


def count_provenance(tally: Tally, served) -> None:
    """Tally a served answer's groups, and those answered approximately."""
    provenance = served.column("provenance").astype(str)
    tally.groups += len(provenance)
    tally.approx_groups += int(np.isin(provenance, APPROX).sum())


def check_count(
    tally: Tally, system: AquaSystem, expected: int, table: str = TABLE
) -> None:
    """``COUNT(*)`` after a flush equals registered plus inserted rows."""
    counted, _ = tally.call("count", system.exact, f"SELECT COUNT(*) AS n FROM {table}")
    if counted is not None and int(counted.column("n")[0]) != expected:
        tally.fail(
            f"{table}: COUNT(*) = {int(counted.column('n')[0])}, expected {expected}"
        )


def insert_batch(
    tally: Tally, system: AquaSystem, batch: List[tuple], table: str = TABLE
) -> None:
    _, seconds = tally.call("insert", system.insert_many, table, batch)
    if seconds is not None:
        tally.insert_rows_per_s.append(len(batch) / seconds)


def refresh(
    tally: Tally, system: AquaSystem, expected_rows: int, table: str = TABLE
) -> None:
    """Refresh the synopsis, then check ``COUNT(*)`` after the flush."""
    _, seconds = tally.call("refresh", system.refresh_synopsis, table)
    if seconds is not None:
        tally.refresh_ms.append(1e3 * seconds)
    check_count(tally, system, expected_rows, table)


def exact_and_stream(tally: Tally, system: AquaSystem, sql: str):
    """``exact()`` (returned, for checks) and a stream's first emission."""
    exact, seconds = tally.call("exact", system.exact, sql)
    if seconds is not None:
        tally.exact_ms.append(1e3 * seconds)
    _, stream_seconds = tally.call("stream", first_emission, system, sql)
    if stream_seconds is not None:
        tally.stream_ms.append(1e3 * stream_seconds)
    return exact, seconds


def paired_exact_and_stream(
    tally: Tally, system: AquaSystem, label: str, sql: str, answers, group_cols, aliases
) -> None:
    """Pair a query's answers with one ``exact()`` (their check) and a
    stream's first emission, all at the same table version."""
    exact, seconds = exact_and_stream(tally, system, sql)
    if seconds is not None:
        tally.by_class(label, "exact", seconds)
    score_answers(tally, answers, exact, group_cols, aliases, label)


def score_answers(tally: Tally, answers, exact, group_cols, aliases, label) -> None:
    """Count the answers' provenance and check each against ``exact``."""
    for answer in answers:
        count_provenance(tally, answer.result)
        if exact is not None:
            check_answer(tally, answer.result, exact, group_cols, aliases, label)


# -- workloads ---------------------------------------------------------------


class Workload:
    """One workload: the constructor draws the inputs from the seed,
    ``setup`` builds a ready system, ``script`` runs the client on it."""

    name = ""
    budget = 0
    #: Printed with every result of the workload.
    note = ""

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds

    def setup(self):
        raise NotImplementedError

    def script(self, tally: Tally, ready) -> None:
        raise NotImplementedError

    def teardown(self, ready) -> None:
        """Release what ``setup`` started (the serving layer's threads)."""

    def table_sizes(self) -> Dict[str, int]:
        raise NotImplementedError


def _system(seed: int, budget: int) -> AquaSystem:
    return AquaSystem(space_budget=budget, rng=_rng(seed, _SYSTEM))


class PaperCold(Workload):
    """Table 2's Qg2, Qg3 and Qg0 in equal thirds, every answer cold.

    A Qg2 or Qg3 step answers its query PAPER_REPEATS times; a Qg0 step
    answers PAPER_REPEATS different ranges.  One Qg0 range is a single
    group whose error varies widely from range to range, so drawing more of
    them steadies ``rel_error_l1``, and their ``exact()`` checks are cheap.
    """

    name = "paper_cold"
    budget = PAPER_BUDGET

    def __init__(self, seed: int, seconds: int):
        super().__init__(seed, seconds)
        per_class = max(1, round(PAPER_TRIPLES_PER_SECOND * seconds))
        table = _lineitem(
            seed, PAPER_ROWS + per_class * PAPER_BATCHES * PAPER_BATCH_ROWS
        )
        self.base, self.held = _split(table, PAPER_ROWS)
        ranges = [
            query.sql
            for query in qg0_set(
                PAPER_ROWS, per_class * PAPER_REPEATS, rng=_rng(seed, _QUERIES)
            )
        ]
        self.queries = []
        for i in range(per_class):
            self.queries.append(
                (
                    "Qg2",
                    (qg2().sql,) * PAPER_REPEATS,
                    ("l_returnflag", "l_linestatus"),
                    ("sum_qty", "sum_price"),
                )
            )
            self.queries.append(
                (
                    "Qg3",
                    (qg3().sql,) * PAPER_REPEATS,
                    ("l_returnflag", "l_linestatus", "l_shipdate"),
                    ("sum_qty",),
                )
            )
            self.queries.append(
                (
                    "Qg0",
                    tuple(ranges[i * PAPER_REPEATS : (i + 1) * PAPER_REPEATS]),
                    (),
                    ("sum_qty",),
                )
            )

    def setup(self):
        system = _system(self.seed, self.budget)
        system.register_table(TABLE, self.base)
        return system

    def script(self, tally: Tally, system: AquaSystem) -> None:
        inserted = 0
        for step, (label, sqls, group_cols, aliases) in enumerate(self.queries):
            answers: Dict[str, list] = {}
            for sql in sqls:
                system.answer_cache.invalidate()
                system.plan_cache.invalidate()
                system.rollup_index.clear()
                answer, seconds = tally.call("answer", system.answer, sql)
                if seconds is not None:
                    tally.answer_ms.append(1e3 * seconds)
                    tally.by_class(label, "answer", seconds)
                    answers.setdefault(sql, []).append(answer)
            # One timed exact() and stream per step keeps their samples in
            # equal thirds; a Qg0 step's other ranges get an untimed exact().
            first, *others = dict.fromkeys(sqls)
            paired_exact_and_stream(
                tally, system, label, first, answers.get(first, []), group_cols, aliases
            )
            for sql in others:
                exact, _ = tally.call("exact", system.exact, sql)
                score_answers(
                    tally, answers.get(sql, []), exact, group_cols, aliases, label
                )
            if step % 3 == 2:
                for _ in range(PAPER_BATCHES):
                    batch = _rows(self.held, inserted, PAPER_BATCH_ROWS)
                    insert_batch(tally, system, batch)
                    inserted += len(batch)
                refresh(tally, system, PAPER_ROWS + inserted)

    def table_sizes(self):
        return {"base_rows": PAPER_ROWS, "inserted_rows": self.held.num_rows}


GROUP_COLS = ("l_returnflag", "l_linestatus", "l_shipdate")
MEASURES = (
    ("SUM(l_quantity)", "sum_qty"),
    ("SUM(l_extendedprice)", "sum_price"),
    ("COUNT(*)", "cnt"),
    ("AVG(l_extendedprice)", "avg_price"),
)


@dataclass(frozen=True)
class Instance:
    """One query of the OLAP universe.

    ``family`` is the exact query that checks it: the same grouping and
    slice with all four measures, so one ``exact()`` call scores every
    measure and spelling of that view.
    """

    sql: str
    family: str
    group_cols: Tuple[str, ...]
    alias: str


def _select(cols: Sequence[str], measures, where: str, group_by: Sequence[str]) -> str:
    items = list(cols) + [f"{expr} AS {alias}" for expr, alias in measures]
    sql = f"SELECT {', '.join(items)} FROM {TABLE}"
    if where:
        sql += f" WHERE {where}"
    return sql + f" GROUP BY {', '.join(group_by)}"


def olap_universe(table, qg0_ranges) -> List[Instance]:
    """464 instances: 7 groupings x 4 measures (28), their reversed-GROUP-BY
    respellings (16), whole-stratum equality slices on every value (360)
    and 60 Qg0 ranges."""
    out: List[Instance] = []
    subsets = [
        combo
        for size in (1, 2, 3)
        for combo in itertools.combinations(GROUP_COLS, size)
    ]
    for cols in subsets:
        family = _select(cols, MEASURES, "", cols)
        for measure in MEASURES:
            out.append(Instance(_select(cols, [measure], "", cols), family, cols, measure[1]))
            if len(cols) > 1:
                respelled = _select(cols, [measure], "", cols[::-1])
                out.append(Instance(respelled, family, cols, measure[1]))
    for sliced in GROUP_COLS:
        others = [c for c in GROUP_COLS if c != sliced]
        rest = [
            combo
            for size in (1, 2)
            for combo in itertools.combinations(others, size)
        ]
        for value in np.unique(table.column(sliced)).tolist():
            where = f"{sliced} = {value}"
            for cols in rest:
                family = _select(cols, MEASURES, where, cols)
                for measure in MEASURES:
                    out.append(
                        Instance(
                            _select(cols, [measure], where, cols),
                            family,
                            cols,
                            measure[1],
                        )
                    )
    for query in qg0_ranges:
        out.append(Instance(query.sql, query.sql, (), "sum_qty"))
    return out


def zipf_session(universe: Sequence[Instance], length: int, rng) -> List[Instance]:
    """Zipf(1.0) draws over a fixed popularity order of the universe.

    The order is a fixed shuffle (seed 0), so every seed weighs the same
    kinds of views alike; the seed draws the session and the data.
    """
    ranked = [universe[i] for i in np.random.default_rng(0).permutation(len(universe))]
    weights = 1.0 / np.arange(1, len(ranked) + 1, dtype=np.float64)
    draws = rng.choice(len(ranked), size=length, p=weights / weights.sum())
    return [ranked[i] for i in draws]


class OlapSession(Workload):
    """A Zipf dashboard session served through ``QueryService``."""

    name = "olap_session"
    budget = PAPER_BUDGET
    QUERIES_PER_SECOND = 200
    BUDGET_EVERY = 10
    MAX_REL_ERROR = 0.1

    def __init__(self, seed: int, seconds: int):
        super().__init__(seed, seconds)
        table = _lineitem(
            seed, PAPER_ROWS + STAGE_ROWS + STAGE_BATCHES * STAGE_BATCH_ROWS
        )
        self.base = table.slice(0, PAPER_ROWS)
        self.stage, self.held = _split(
            table.slice(PAPER_ROWS, table.num_rows), STAGE_ROWS
        )
        ranges = qg0_set(PAPER_ROWS, 60, rng=_rng(seed, _QUERIES))
        self.universe = olap_universe(self.base, ranges)
        self.session = zipf_session(
            self.universe, self.QUERIES_PER_SECOND * seconds, _rng(seed, _SESSION)
        )

    def setup(self):
        system = _system(self.seed, self.budget)
        system.register_table(TABLE, self.base)
        system.build_portfolio(TABLE)
        return system, QueryService(system, ServiceConfig(workers=2))

    def teardown(self, ready) -> None:
        ready[1].close()

    def script(self, tally: Tally, ready) -> None:
        """Serve the session; spread the checks and the staging loads over it.

        Every few queries one view family of the universe gets ``exact()``
        and a stream's first emission (``exact()`` reads no cache; streams
        add plans to the plan cache, deterministically).  The loads go to a
        staging table, so they never invalidate the explored table's
        caches.  Spreading both over the session samples the same host
        conditions as the answers.
        """
        system, service = ready
        families = list(dict.fromkeys(instance.family for instance in self.universe))
        exact_of: Dict[str, object] = {}
        check_every = max(1, len(self.session) // len(families))
        load_every = max(1, len(self.session) // STAGE_BATCHES)
        tally.call("register", system.register_table, STAGE, self.stage)
        loaded = 0

        served = []
        first: Dict[tuple, object] = {}
        for i, instance in enumerate(self.session):
            budget = self.MAX_REL_ERROR if i % self.BUDGET_EVERY == self.BUDGET_EVERY - 1 else None
            result, seconds = tally.call(
                "answer", service.query, instance.sql, max_rel_error=budget
            )
            if result is not None:
                tally.answer_ms.append(1e3 * seconds)
                tally.queued_ms.append(1e3 * result.queued_seconds)
                tier = result.answer.cache_tier or "computed"
                tally.tiers[tier] = tally.tiers.get(tier, 0) + 1
                count_provenance(tally, result.result)
                key = (instance.sql, budget, system.table_version(TABLE))
                if key not in first:
                    first[key] = result.result
                    served.append((instance, result.answer))
                elif result.answer.cache_tier is not None and not _same_table(
                    first[key], result.result
                ):
                    tally.fail(f"{tier}-tier answer differs from first serving: {instance.sql}")
            if i % check_every == 0 and len(exact_of) < len(families):
                family = families[len(exact_of)]
                exact_of[family], _ = exact_and_stream(tally, system, family)
            if i % load_every == load_every - 1 and loaded < self.held.num_rows:
                batch = _rows(self.held, loaded, STAGE_BATCH_ROWS)
                insert_batch(tally, system, batch, STAGE)
                loaded += len(batch)
                if (loaded // STAGE_BATCH_ROWS) % STAGE_REFRESH_EVERY == 0:
                    refresh(tally, system, STAGE_ROWS + loaded, STAGE)
        tally.evictions = system.answer_cache.stats.evictions
        for family in families[len(exact_of):]:
            exact_of[family], _ = exact_and_stream(tally, system, family)

        # Each distinct answer is scored against its family's exact answer.
        # A repeat is either a cache-tier answer (checked equal to the first
        # serving above) or a deterministic recomputation.
        for instance, answer in served:
            exact = exact_of[instance.family]
            if exact is not None:
                check_answer(
                    tally,
                    answer.result,
                    exact,
                    instance.group_cols,
                    (instance.alias,),
                    instance.sql,
                )

    def table_sizes(self):
        return {
            "base_rows": PAPER_ROWS,
            "stage_rows": STAGE_ROWS,
            "inserted_rows": self.held.num_rows,
            "universe": len(self.universe),
            "session_queries": len(self.session),
        }


def _same_table(a, b) -> bool:
    """Bit-identical tables, up to the roll-up tier's provenance retag.

    A roll-up answer tags its groups ``rollup`` where the direct answer
    said ``synopsis``; every other column must be ``np.array_equal``.
    """
    if a.schema.names != b.schema.names or a.num_rows != b.num_rows:
        return False
    for name in a.schema.names:
        x, y = a.column(name), b.column(name)
        if name == "provenance":
            x, y = (np.where(v == "rollup", "synopsis", v) for v in (x, y))
        if x.dtype.kind == "f":
            if not np.array_equal(x, y, equal_nan=True):
                return False
        elif not np.array_equal(x, y):
            return False
    return True


class IngestMix(Workload):
    """Insert batches beside group-by answers with the Congress maintainer on.

    ``note`` names the known defect this keeps visible rather than working
    around it (no rebuild-refresh, no larger sample).
    """

    name = "ingest_mix"
    budget = INGEST_BUDGET
    note = (
        "known defect: after refresh_synopsis() the maintained Congress "
        "snapshot covers fewer rows than the base, the guard marks the "
        "synopsis corrupt and later answers fall back to exact provenance, "
        "so approx_share is low"
    )
    BATCHES_PER_SECOND = 6

    def __init__(self, seed: int, seconds: int):
        super().__init__(seed, seconds)
        self.batches = self.BATCHES_PER_SECOND * seconds
        table = _lineitem(seed, INGEST_ROWS + self.batches * INGEST_BATCH_ROWS)
        self.base, self.held = _split(table, INGEST_ROWS)
        starts = _rng(seed, _QUERIES).integers(1, INGEST_ROWS, size=self.batches)
        self.queries = [
            [
                ("Qg2", qg2().sql, ("l_returnflag", "l_linestatus"), ("sum_qty", "sum_price")),
                (
                    "by_shipdate",
                    _select(["l_shipdate"], [MEASURES[0]], "", ["l_shipdate"]),
                    ("l_shipdate",),
                    ("sum_qty",),
                ),
                (
                    "range_by_flag",
                    _select(
                        ["l_returnflag"],
                        [MEASURES[2]],
                        f"l_id BETWEEN {start} AND {start + INGEST_ROWS // 10}",
                        ["l_returnflag"],
                    ),
                    ("l_returnflag",),
                    ("cnt",),
                ),
            ]
            for start in starts.tolist()
        ]

    def setup(self):
        system = _system(self.seed, self.budget)
        system.register_table(TABLE, self.base)
        system.enable_maintenance(TABLE)
        return system

    def script(self, tally: Tally, system: AquaSystem) -> None:
        for batch_no in range(self.batches):
            batch = _rows(self.held, batch_no * INGEST_BATCH_ROWS, INGEST_BATCH_ROWS)
            insert_batch(tally, system, batch)
            for label, sql, group_cols, aliases in self.queries[batch_no]:
                answer, seconds = tally.call("answer", system.answer, sql)
                if seconds is not None:
                    tally.answer_ms.append(1e3 * seconds)
                paired_exact_and_stream(
                    tally,
                    system,
                    label,
                    sql,
                    [answer] if answer is not None else [],
                    group_cols,
                    aliases,
                )
            expected = INGEST_ROWS + (batch_no + 1) * INGEST_BATCH_ROWS
            if (batch_no + 1) % REFRESH_EVERY == 0:
                refresh(tally, system, expected)
            else:
                check_count(tally, system, expected)

    def table_sizes(self):
        return {"base_rows": INGEST_ROWS, "inserted_rows": self.held.num_rows}


WORKLOADS = {w.name: w for w in (PaperCold, OlapSession, IngestMix)}


def timed_setups(workload: Workload, repeats: int, rec=None):
    """Set up ``repeats`` times; returns (seconds per setup, the last one)."""
    seconds, ready = [], None
    for _ in range(repeats):
        if ready is not None:
            workload.teardown(ready)
            # Unreferenced before the next set-up, so two systems never
            # add up in the peak resident set.
            ready = None
            gc.collect()
        token = rec.begin_op("setup") if rec is not None else None
        start = time.perf_counter()
        ready = workload.setup()
        seconds.append(time.perf_counter() - start)
        if token is not None:
            rec.end_op(token)
    return seconds, ready


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile as the Harrell-Davis estimate.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)p, (n+1)(1-p)) distribution.  On a host whose speed switches
    between levels for seconds at a time, latencies are bimodal and the
    plain sample median jumps from one mode to the other between runs; this
    estimate of the same percentile moves smoothly with the mix.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    if n == 1:
        return float(x[0])
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    t = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, t, cdf, left=0.0, right=1.0)
    return float(np.diff(edges) @ x)
