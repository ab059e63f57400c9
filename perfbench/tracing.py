"""Span recording around the public functions of each layer.

The traced run wraps, from outside the program, the public functions listed
in :data:`LAYERS`: every module-level binding of a wrapped function inside
the ``repro`` package is replaced (so a ``from x import y`` copy is caught
too), and methods are wrapped on their class and on every subclass that
overrides them.  Each call made while a workload operation is open records a
span ``(id, name, start, end, parent, op)``; ``op`` is the id of the
operation (one answer, one ``exact()``, one insert batch, ...) it belongs
to.  Spans stay in memory and are written out when the benchmark ends.

A span's *self* time is its duration minus the part of that interval its
child spans cover (children may run on the executor's worker threads, so
overlapping child intervals are merged first).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

PAPER, OLAP, INGEST = "paper_cold", "olap_session", "ingest_mix"


def _num_rows(index: int) -> Callable:
    return lambda args: args[index].num_rows


def _scans_sample(args) -> bool:
    """True when an executed plan reads a synopsis relation.

    The workloads' only base relation is ``lineitem``; every other relation
    a plan scans (``bs_lineitem``, ``lineitem__pf_<member>``) is a synopsis.
    """
    from repro.plan.logical import Scan, walk

    return any(
        isinstance(node, Scan) and node.table != "lineitem"
        for _path, node in walk(args[0])
    )


@dataclass(frozen=True)
class Layer:
    """One wrapped public function.

    Attributes:
        module: the module that defines it, relative to ``repro``.
        qualname: function name, or ``Class.method``.
        workloads: the workloads that must enter it at least once.
        rows: maps the call's positional arguments to the rows it
            processes (row kernels only).
        tag: marks calls that scan the synopsis sample (counted in
            ``sample_passes_per_answer``).
        top_level: record only calls not nested in a call of the same
            layer (``Predicate.evaluate`` recurses through AND/OR trees).
    """

    module: str
    qualname: str
    workloads: Tuple[str, ...]
    rows: Optional[Callable] = None
    tag: Optional[Callable] = None
    top_level: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


_ALWAYS = lambda args: True  # noqa: E731

#: The layers whose public functions the traced run wraps, in pipeline order.
LAYERS: Tuple[Layer, ...] = (
    Layer("serve.service", "QueryService.query", (OLAP,)),
    Layer("aqua.system", "AquaSystem.answer", (PAPER, OLAP, INGEST)),
    Layer("engine.sql", "parse_query", (OLAP,)),
    Layer("plan.canonical", "canonicalize_query", (OLAP,)),
    Layer("aqua.cache", "AnswerCache.get", (OLAP,)),
    Layer("aqua.cache", "AnswerCache.peek", ()),
    Layer("aqua.cache", "AnswerCache.put", (OLAP,)),
    Layer("aqua.reuse", "RollupIndex.lookup", (OLAP,)),
    Layer("aqua.reuse", "RollupIndex.register", (OLAP,)),
    Layer("aqua.reuse", "ReuseSnapshot.build", (OLAP,), tag=_ALWAYS),
    Layer("aqua.reuse", "ReuseSnapshot.finalize", (OLAP,)),
    Layer("aqua.portfolio", "SynopsisPortfolio.resolve", (OLAP,)),
    Layer("aqua.guard", "validate_sample", (PAPER,), tag=_ALWAYS),
    Layer("plan.planner", "lower_query", (PAPER,)),
    Layer("plan.planner", "lower_rewritten", (PAPER,)),
    Layer("plan.optimizer", "optimize", (PAPER,)),
    Layer("plan.cache", "PlanCache.get", (PAPER,)),
    Layer("plan.physical", "execute_plan", (PAPER,), tag=_scans_sample),
    Layer("engine.groupby", "group_ids_for", (PAPER, INGEST), rows=_num_rows(0)),
    Layer("engine.groupby", "partial_group_by", (PAPER, INGEST), rows=_num_rows(0)),
    # Base scans below two 50k-row partitions run serially, without a merge.
    Layer("engine.groupby", "merge_group_partials", (PAPER,)),
    Layer(
        "engine.predicates",
        "Predicate.evaluate",
        (PAPER,),
        rows=_num_rows(1),
        top_level=True,
    ),
    Layer("engine.aggregates", "partial_reduce", (PAPER,), rows=lambda a: len(a[1])),
    Layer("engine.aggregates", "merge_states", (PAPER,)),
    # The legacy bounds path: the default Chebyshev answer path finalizes
    # from ReuseSnapshot moments, so no workload's queries reach it.
    Layer("estimators.point", "estimate", (), tag=_ALWAYS),
    Layer("estimators.point", "group_support", (PAPER, OLAP), tag=_ALWAYS),
    Layer("aqua.stream", "stream_answers", (PAPER,)),
    Layer("maintenance", "SampleMaintainer.insert", (INGEST,), rows=lambda a: 1),
    Layer(
        "maintenance",
        "SampleMaintainer.insert_table",
        (INGEST,),
        rows=_num_rows(1),
    ),
    Layer("maintenance", "SampleMaintainer.snapshot", (INGEST,)),
    Layer("sampling.stratified", "StratifiedSample.build", (PAPER, OLAP, INGEST)),
    Layer("core.congress", "Congress.allocate", (PAPER, OLAP, INGEST)),
)

#: Layers whose calls return ``None`` on a miss; their hit ratio is reported.
HIT_RATIO_LAYERS = ("aqua.reuse.RollupIndex.lookup", "plan.cache.PlanCache.get")


class Recorder:
    """In-memory span store shared by every wrapper of one traced pass.

    One closed-loop client drives the workload from the main thread, so
    the open operation is process-wide.  A span opened on another thread
    (the serving layer's workers, the parallel executor's partition scans)
    with nothing open on that thread takes the main thread's innermost
    open span as its parent.
    """

    def __init__(self) -> None:
        self._main = threading.get_ident()
        self._main_stack: List[Tuple[int, str]] = []
        self._local = threading.local()
        self.op_id: Optional[int] = None
        self.reset()

    def reset(self) -> None:
        """Start a new pass: drop recorded spans and restart span ids."""
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self.op_kinds: Dict[int, str] = {}

    def _stack(self) -> List[Tuple[int, str]]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str):
        """Open a span; returns the token :meth:`close` needs."""
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = 0
        sid = next(self._ids)
        stack.append((sid, name))
        return (sid, name, parent, self.op_id, stack, time.perf_counter())

    def close(self, token, rows: int = 0, tag: bool = False) -> None:
        end = time.perf_counter()
        sid, name, parent, op, stack, start = token
        stack.pop()
        self.spans.append((sid, name, start, end, parent, op, rows, tag))

    def begin_op(self, kind: str) -> object:
        token = self.open(f"op.{kind}")
        self.op_id = token[0]
        self.op_kinds[self.op_id] = kind
        return token

    def end_op(self, token) -> None:
        self.close(token)
        self.op_id = None

    def current_name(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None


def _wrap_callable(fn, layer: Layer, rec: Recorder):
    name = layer.name
    rows_of, tag_of, top_level = layer.rows, layer.tag, layer.top_level

    if inspect.isgeneratorfunction(fn):
        # A stream's span runs from the first ``next()`` to its first
        # emission: the user-visible time to first answer.
        def first_emission(inner):
            token = rec.open(name) if rec.op_id is not None else None
            try:
                first = next(inner)
            except StopIteration:
                return
            finally:
                if token is not None:
                    rec.close(token)
            try:
                yield first
                yield from inner
            finally:
                inner.close()

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            return first_emission(fn(*args, **kwargs))

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op_id is None or (top_level and rec.current_name() == name):
            return fn(*args, **kwargs)
        token = rec.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            if name in HIT_RATIO_LAYERS:
                tag = result is not None
            else:
                tag = tag_of is not None and bool(tag_of(args))
            rec.close(
                token, rows=rows_of(args) if rows_of is not None else 0, tag=tag
            )

    return wrapper


def _import_all() -> List:
    import repro

    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            modules.append(importlib.import_module(info.name))
    return modules


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        out.append(klass)
        todo.extend(klass.__subclasses__())
    return out


def install(rec: Recorder, layers: Sequence[Layer] = LAYERS) -> Callable[[], None]:
    """Wrap every layer's public function; returns the undo function."""
    modules = _import_all()
    undo: List[Tuple[object, str, object]] = []
    for layer in layers:
        module = importlib.import_module(f"repro.{layer.module}")
        owner, _, attr = layer.qualname.rpartition(".")
        if owner:
            for klass in _subclasses(getattr(module, owner)):
                raw = klass.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(_wrap_callable(raw.__func__, layer, rec))
                else:
                    wrapped = _wrap_callable(raw, layer, rec)
                undo.append((klass, attr, raw))
                setattr(klass, attr, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = _wrap_callable(original, layer, rec)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall


# -- analysis ------------------------------------------------------------------


def self_times(spans: Sequence[tuple]) -> Dict[int, float]:
    """Seconds of each span not covered by its children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, _name, start, end, parent, *_rest in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, *_rest in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(
    spans: Sequence[tuple], op_kinds: Dict[int, str], answers: int
) -> Dict[str, Tuple[float, str]]:
    """Per-layer counts and self times, normalized per answer."""
    own = self_times(spans)
    names = {sid: name for sid, name, *_rest in spans}
    parents = {sid: parent for sid, _n, _s, _e, parent, *_rest in spans}
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    rows: Dict[str, int] = defaultdict(int)
    hits: Dict[str, int] = defaultdict(int)
    passes = 0
    streams = chunks = 0
    for sid, name, _start, _end, _parent, op, n_rows, tag in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        rows[name] += n_rows
        if name in HIT_RATIO_LAYERS:
            hits[name] += bool(tag)
        elif tag and op_kinds.get(op) == "answer":
            passes += 1
        if name == "aqua.stream.stream_answers":
            streams += 1
        if name == "engine.groupby.partial_group_by":
            ancestor = parents.get(sid, 0)
            while ancestor and names.get(ancestor) != "aqua.stream.stream_answers":
                ancestor = parents.get(ancestor, 0)
            chunks += bool(ancestor)
    per = 1.0 / max(answers, 1)
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        name = layer.name
        out[f"{name}.calls_per_answer"] = (calls[name] * per, "count")
        out[f"{name}.self_ms_per_answer"] = (1e3 * self_s[name] * per, "ms")
        if layer.rows is not None:
            out[f"{name}.rows_per_answer"] = (rows[name] * per, "count")
    for name in HIT_RATIO_LAYERS:
        out[f"{name}.hit_ratio"] = (hits[name] / max(calls[name], 1), "share")
    maint_rows = rows["maintenance.SampleMaintainer.insert"]
    for method in ("insert", "insert_table", "snapshot"):
        name = f"maintenance.SampleMaintainer.{method}"
        out[f"{name}.ms_per_1k_rows"] = (
            1e6 * self_s[name] / max(maint_rows, 1),
            "ms",
        )
    out["aqua.stream.stream_answers.chunks_to_first"] = (
        chunks / max(streams, 1),
        "count",
    )
    out["sample_passes_per_answer"] = (passes * per, "count")
    return out


def entered_check(
    spans: Sequence[tuple], workload: str
) -> List[str]:
    """Layers listed for this workload (``Layer.workloads``) never entered."""
    seen = {name for _sid, name, *_rest in spans}
    return [
        layer.name
        for layer in LAYERS
        if workload in layer.workloads and layer.name not in seen
    ]


def write_spans(path, spans: Sequence[tuple], op_kinds: Dict[int, str], meta) -> None:
    """Write one traced pass as JSON lines.

    The first line holds the run metadata, the span names and the field
    order; each further line is one span ``[id, name index, start, end,
    parent, answer id, rows]`` with times in microseconds from the pass
    start.  ``answer id`` is the id of the operation span (``op.<kind>``)
    the span belongs to; ``op_kinds`` maps it to the operation kind.
    """
    names = sorted({span[1] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = min((span[2] for span in spans), default=0.0)
    header = {
        "meta": meta,
        "fields": ["id", "name", "start_us", "end_us", "parent", "answer_id", "rows"],
        "names": names,
        "op_kinds": {str(op): kind for op, kind in op_kinds.items()},
    }
    with open(path, "w") as out:
        out.write(json.dumps(header) + "\n")
        for sid, name, start, end, parent, op, n_rows, _tag in spans:
            out.write(
                json.dumps(
                    [
                        sid,
                        index[name],
                        round(1e6 * (start - origin), 1),
                        round(1e6 * (end - origin), 1),
                        parent,
                        op,
                        n_rows,
                    ],
                    separators=(",", ":"),
                )
                + "\n"
            )
