"""SQL's share of the operator tree: leaves, the shared spool, the join.

The host-neutral row operators (filter, project, aggregate, distinct,
sort, limit, union) live in :mod:`repro.rowops` and run under both
hosts.  What stays here is what only SQL has: base-table scans, the
GRAPH_TABLE scans and their spool, and the inner join with its two
cross-model variants.

The graph leaf is :class:`GraphTableScan`: its child is the pattern's
own stage tree (:func:`repro.gpml.engine.match_stages`), so a
:class:`~repro.gpml.streaming.RowBudget` owned by the
outer LIMIT reaches the NFA search itself — ``SELECT ... LIMIT 1`` over a
huge graph stops the product-graph exploration after a handful of edge
expansions, and pushed-down WHERE conjuncts ride into the MATCH where the
cost-based planner turns them into index anchors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterator, Optional

from repro.gpml import ast as gpml_ast
from repro.gpml.engine import PreparedQuery, SeededSearch, match_stages, prepare
from repro.gpml.expr import Expr, In, conjoin
from repro.gpml.matcher import MatcherConfig
from repro.gpml.predicates import row_test, row_value, row_values
from repro.gpml.streaming import PipelineStats, RowBudget
from repro.graph.model import PropertyGraph
from repro.pgq.graph_table import GraphTableStatement
from repro.pgq.table import Table
from repro.planner.anchor import SeedSpec
from repro.rowops import Column, Operator, RowContext, attach_spans, row_key
from repro.values import NULL, is_null


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------
class TableScan(Operator):
    """Stream the rows of a registered base table."""

    def __init__(self, table: Table, alias: Optional[str], source: int = 0):
        self.table = table
        self.alias = alias
        self.columns = [
            Column(table=alias, name=name, source=source) for name in table.columns
        ]
        self.children = []

    def rows(self) -> Iterator[tuple]:
        return iter(self.table.rows)

    def describe(self) -> str:
        alias = f" AS {self.alias}" if self.alias and self.alias != self.table.name else ""
        return f"scan {self.table.name or '<anonymous>'}{alias} [{len(self.table)} rows]"


class GraphTableScan(Operator):
    """GRAPH_TABLE as a table operator: the streaming GPML core in FROM.

    ``prepared`` already contains any pushed-down predicates conjoined
    into the pattern's WHERE; ``budget`` is the outer LIMIT's shared
    :class:`RowBudget` (None when the statement is unbounded).  The
    pattern's stage tree is the scan's child, so EXPLAIN and a trace
    descend into the pattern stages as into any operator.  It runs by the
    COLUMNS clause's row plan.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        graph_name: str,
        statement: GraphTableStatement,
        prepared: PreparedQuery,
        alias: Optional[str],
        source: int = 0,
        config: Optional[MatcherConfig] = None,
        stats: Optional[PipelineStats] = None,
        pushed_predicates: Optional[list[Expr]] = None,
        budget: Optional[RowBudget] = None,
    ):
        self.graph = graph
        self.graph_name = graph_name
        self.statement = statement
        self.alias = alias
        self.config = config
        self.stats = stats
        self.pushed_predicates = pushed_predicates or []
        self.budget = budget
        #: set by the semi-join rewrite rule: the GPML defining expression
        #: of the join-key column, used to build the injected IN predicate
        self.reduction_expr: Optional[Expr] = None
        #: number of probe keys actually pushed (None until reduction runs)
        self.reduced_keys: Optional[int] = None
        self.columns = [
            Column(table=alias, name=name, source=source)
            for name in statement.column_names
        ]
        self._plant(prepared)

    def _plant(self, prepared: PreparedQuery) -> None:
        self.prepared = prepared
        # rows here are intermediate (the Database counts delivered result
        # rows), so count_rows=False
        self.children = [
            match_stages(
                self.graph, prepared, self.config,
                budget=self.budget, stats=self.stats, count_rows=False,
                reads=self.statement.reads,
            )
        ]

    @cached_property
    def project(self) -> Callable[[dict], tuple]:
        return self.statement.projection(self.graph, self.prepared)

    def rows(self) -> Iterator[tuple]:
        project = self.project
        for row in self.children[0].run():
            yield project(row.values)

    def reduced_rows(self, values: tuple) -> Iterator[tuple]:
        """Enumerate with the probe side's distinct keys pushed as an IN.

        The semi-join runtime path: the pattern is re-prepared from its
        pre-normalization form with ``reduction_expr IN (values)``
        conjoined into the final WHERE, so the GPML planner's sargable
        machinery can turn the value set into index-anchor probes.  The
        IN's membership equality is Python hash-bucket equality — the
        same the hash join applies to its keys — so only rows that could
        never find a join partner are dropped.
        """
        raw = self.prepared.raw
        reduced = gpml_ast.GraphPattern(
            paths=raw.paths,
            where=conjoin(raw.where, In(self.reduction_expr, values)),
            keep=raw.keep,
        )
        self._plant(prepare(reduced))
        if self.span is not None:
            # the unreduced stages never ran: trace the ones that do
            self.span.children.clear()
            attach_spans(self.children[0], self.span)
        self.reduced_keys = len(values)
        return self.run()

    def describe(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        return f"graph_table scan {self.graph_name}{alias}"

    def detail_lines(self) -> list[str]:
        lines = [f"pattern: {' '.join(self.statement.pattern_text.split())}"]
        lines.append(f"columns: {', '.join(self.statement.column_names)}")
        for predicate in self.pushed_predicates:
            lines.append(f"pushed into MATCH: {predicate}")
        if self.reduced_keys is not None:
            lines.append(
                f"semi-join reduced: {self.reduction_expr} IN "
                f"<{self.reduced_keys} probe keys> pushed into MATCH"
            )
        if self.budget is not None:
            lines.append(
                f"row budget: shared with outer LIMIT "
                f"(stops the NFA search after {self.budget.needed} delivered rows)"
            )
        return lines


#: how a seeded scan maps a join probe value to anchor node ids
PROBE_ELEMENT = "element"  # COLUMNS output is the element itself (its id)
PROBE_PROPERTY = "property"  # COLUMNS output is a property of the element


class SeededGraphTableScan(GraphTableScan):
    """A GRAPH_TABLE scan driven one anchored NFA search per probe row.

    Planted by the join-through-GRAPH_TABLE rewrite: instead of
    enumerating the whole pattern and hash-joining, the enclosing
    :class:`Join` calls :meth:`probe` with each probe row's join-key
    value, and the scan runs a seeded search anchored at exactly the
    matching nodes (:class:`~repro.gpml.engine.SeededSearch`, shared with
    GQL's chained MATCH — hub-skew memoization included).

    Candidate soundness contract with the join: :meth:`probe` yields a
    *superset* of the rows whose key equals the probe value — the join
    re-checks every key pair before emitting, so element-id guards and
    property-index bucket equality only need to never lose a row.  Probe
    values no index can answer exactly (lists, exotic types) fall back to
    one full enumeration, cached across probe rows.
    """

    def __init__(
        self,
        scan: GraphTableScan,
        seed: SeedSpec,
        probe_mode: str,
        probe_prop: Optional[str],
        probe_column: str,
        seed_key_position: int,
    ):
        super().__init__(
            graph=scan.graph,
            graph_name=scan.graph_name,
            statement=scan.statement,
            prepared=scan.prepared,
            alias=scan.alias,
            config=scan.config,
            stats=scan.stats,
            pushed_predicates=scan.pushed_predicates,
            budget=scan.budget,
        )
        self.columns = list(scan.columns)  # keep the original source index
        self.seed = seed
        self.probe_mode = probe_mode
        self.probe_prop = probe_prop
        self.probe_column = probe_column
        #: index into the enclosing join's key lists of the seed key
        self.seed_key_position = seed_key_position
        self._search: Optional[SeededSearch] = None
        self._fallback: Optional[list[tuple]] = None

    def probe(self, value: Any) -> Iterator[tuple]:
        """COLUMNS-projected rows whose join key may equal *value*."""
        seeds = self._seed_ids(value)
        if seeds is None:
            yield from self._enumerated()
            return
        if not seeds:
            return
        if self._search is None:
            self._search = SeededSearch(
                self.graph, self.prepared, self.config,
                reversed_run=self.seed.reversed_run,
                budget=self.budget, stats=self.stats, owner=self,
                reads=self.statement.reads,
            )
        project = self.project
        for seed_id in seeds:
            for row in self._search.run(seed_id):
                yield project(row.values)

    def _seed_ids(self, value: Any) -> Optional[list[str]]:
        """Anchor node ids for one probe value; None = cannot narrow.

        Element mode: the key is the node id itself, so a non-id probe
        value (or an id not in the graph) has no partners at all.
        Property mode: a plain-scalar probe is answered by the property
        hash index (dict-key equality: the join's ``row_key`` equality for
        scalars, coarser only for booleans); anything else — e.g. a list,
        whose index bucket does not mirror ``row_key``'s list→tuple
        coercion — falls back to full enumeration.
        """
        if is_null(value):
            return []
        if self.probe_mode == PROBE_ELEMENT:
            if isinstance(value, str) and self.graph.has_node(value):
                return [value]
            return []
        if isinstance(value, (str, int, float)):
            return sorted(
                self.graph.index_lookup(None, self.probe_prop, value, kind="node")
            )
        return None

    def _enumerated(self) -> Iterator[tuple]:
        if self._fallback is None:
            self.trace_bump("seeded_fallback_scan")
            self._fallback = list(super().rows())
        return iter(self._fallback)

    def describe(self) -> str:
        alias = f" AS {self.alias}" if self.alias else ""
        return f"seeded graph_table scan {self.graph_name}{alias}"

    def detail_lines(self) -> list[str]:
        lines = [
            f"mode: seeded join — probe value {self.probe_column} anchors "
            f"{self.seed.var} ({self.seed.side} end), one run per probe row"
        ]
        lines.extend(super().detail_lines())
        return lines


class SharedGraphSpool:
    """One enumeration of a graph scan, read by several consumers.

    Planted by the common-subpattern rewrite.  The buffer grows lazily as
    the furthest-ahead consumer pulls; single-threaded interleaving is
    safe because each reader resumes at its own index.  A row budget
    truncating the producer is sound: the spool only looks exhausted once
    the consumers stop pulling, which a satisfied budget guarantees.
    """

    def __init__(self, scan: GraphTableScan):
        self.scan = scan
        self.buffer: list[tuple] = []
        self._source: Optional[Iterator[tuple]] = None
        self._done = False

    def reader(self, prefix_len: int) -> Iterator[tuple]:
        index = 0
        while True:
            if index < len(self.buffer):
                row = self.buffer[index]
            elif self._done:
                return
            else:
                if self._source is None:
                    self._source = self.scan.run()
                try:
                    row = next(self._source)
                except StopIteration:
                    self._done = True
                    return
                self.buffer.append(row)
            index += 1
            yield row if len(row) == prefix_len else row[:prefix_len]


class SharedScanConsumer(Operator):
    """One consumer of a :class:`SharedGraphSpool`.

    The producer consumer owns the underlying scan as its child (so the
    scan renders and traces once); the other consumers are leaves that
    read the spool, projecting their COLUMNS prefix by tuple slice.
    """

    def __init__(self, spool: SharedGraphSpool, columns: list[Column], producer: bool):
        self.spool = spool
        self.columns = columns
        self.producer = producer
        self.children = [spool.scan] if producer else []

    def rows(self) -> Iterator[tuple]:
        return self.spool.reader(len(self.columns))

    def describe(self) -> str:
        scan = self.spool.scan
        alias = f" AS {self.columns[0].table}" if self.columns and self.columns[0].table else ""
        if self.producer:
            return f"shared graph_table spool{alias} (enumerates once)"
        return (
            f"shared graph_table spool{alias} "
            f"(reads the spool of {scan.graph_name})"
        )

    def detail_lines(self) -> list[str]:
        if self.producer:
            return []
        return [f"columns: {', '.join(c.name for c in self.columns)}"]


class SingleRow(Operator):
    """FROM-less SELECT: one empty row (``SELECT 1 + 1``)."""

    def __init__(self):
        self.columns = []
        self.children = []

    def rows(self) -> Iterator[tuple]:
        yield ()

    def describe(self) -> str:
        return "single row"


# ----------------------------------------------------------------------
# Join
# ----------------------------------------------------------------------
@dataclass
class SemiJoinSpec:
    """Semi-join reduction marker set on a join by the rewrite rule."""

    #: index into left_keys/right_keys of the reducible key pair
    key_position: int
    #: abort the reduction above this many distinct probe keys
    max_keys: int


class Join(Operator):
    """Inner join: hash join on equi-conjuncts, nested loop otherwise.

    The build (right) side is a pipeline breaker; the probe (left) side
    streams, so a graph scan on the left keeps its early-termination
    behaviour.  NULL join keys never match (SQL semantics).

    Two cross-model variants planted by the rewrite rules: with a
    :class:`SeededGraphTableScan` on the right, each probe row drives one
    anchored graph search instead of a build (probe side still streams);
    with a :class:`SemiJoinSpec`, the probe side is materialized first
    and its distinct keys shrink the graph enumeration before the build.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[Expr],
        right_keys: list[Expr],
        residual: Optional[Expr] = None,
    ):
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        #: set by the semi-join rewrite rule (None = plain hash join)
        self.semi_join: Optional[SemiJoinSpec] = None
        self.columns = left.columns + right.columns
        self.children = [left, right]

    def rows(self) -> Iterator[tuple]:
        if isinstance(self.right, SeededGraphTableScan):
            merged = self._seeded_rows()
        else:  # without keys every row has the key (): the nested loop
            merged = self._hash_rows()
        _, _, residual = self.compiled
        return merged if residual is None else filter(residual, merged)

    @cached_property
    def compiled(self) -> tuple[Callable, Callable, Optional[Callable]]:
        """``row -> hashable key`` of either side (None when a value is
        NULL: it never joins) and the residual's test over merged rows."""

        def key_of(keys: list[Expr]) -> Callable[[tuple], Optional[tuple]]:
            read = row_values(keys, RowContext)

            def key(row: tuple) -> Optional[tuple]:
                values = read(row)
                if NULL in values or None in values:
                    return None
                return row_key(values)

            return key

        residual = self.residual
        return (
            key_of(self.left_keys),
            key_of(self.right_keys),
            None if residual is None else row_test(residual, RowContext),
        )

    def _seeded_rows(self) -> Iterator[tuple]:
        scan = self.right
        left_key_of, right_key_of, _ = self.compiled
        probe_value = row_value(self.left_keys[scan.seed_key_position], RowContext)
        probes = 0
        for row in self.left.run():
            left_key = left_key_of(row)
            if left_key is None:
                continue
            probes += 1
            for other in scan.probe(probe_value(row)):
                # The probe yields a candidate superset; re-checking every
                # key pair here is what makes that contract sufficient.
                if right_key_of(other) == left_key:
                    yield row + other
        self.trace_event("seeded_join", probes=probes)

    def _hash_rows(self) -> Iterator[tuple]:
        left_source = self.left.run()
        right_source = None
        if self.semi_join is not None:
            # Materialize the probe side first: its distinct keys bound
            # the graph enumeration.  Trades probe streaming for build
            # reduction; emitted rows are identical either way.
            left_rows = list(left_source)
            left_source = iter(left_rows)
            right_source = self._reduced_right(left_rows)
        if right_source is None:
            right_source = self.right.run()
        left_key_of, right_key_of, _ = self.compiled
        build: dict[tuple, list[tuple]] = {}
        for row in right_source:
            key = right_key_of(row)
            if key is not None:
                build.setdefault(key, []).append(row)
        self.trace_peak(sum(len(rows) for rows in build.values()))
        if not build:
            return
        for row in left_source:
            key = left_key_of(row)
            if key is not None:
                for other in build.get(key, ()):
                    yield row + other

    def _reduced_right(self, left_rows: list[tuple]) -> Optional[Iterator[tuple]]:
        """The reduced graph-side stream, or None when reduction aborts.

        Harvests the probe side's distinct key values at the spec
        position.  Only all-plain-scalar key sets within the cap qualify
        — for those, IN-membership equality provably agrees with the
        hash join's bucket equality, so the filter drops exactly the
        rows that could never find a partner.
        """
        spec = self.semi_join
        read = row_value(self.left_keys[spec.key_position], RowContext)
        distinct: dict[Any, None] = {}
        abort_reason = None
        for value in map(read, left_rows):
            if is_null(value):
                continue
            if not isinstance(value, (str, int, float)) or isinstance(value, bool):
                abort_reason = "non-scalar probe key"
                break
            distinct.setdefault(value)
            if len(distinct) > spec.max_keys:
                abort_reason = f"over {spec.max_keys} distinct keys"
                break
        if abort_reason is not None:
            self.trace_event("semi_join_reduction", applied=False, reason=abort_reason)
            return None
        keys = tuple(distinct)
        self.trace_event("semi_join_reduction", applied=True, keys=len(keys))
        return self.right.reduced_rows(keys)

    def describe(self) -> str:
        keys = ", ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        if isinstance(self.right, SeededGraphTableScan):
            text = (
                f"seeded graph join on {keys} "
                f"(probe left streams, one anchored search per row)"
            )
        elif self.left_keys:
            text = f"hash join on {keys} (build right, probe left streams)"
        elif self.residual is not None:
            text = f"nested-loop join on {self.residual}"
        else:
            text = "cross join"
        if self.left_keys and self.residual is not None:
            text += f" residual {self.residual}"
        return text

    def detail_lines(self) -> list[str]:
        if isinstance(self.right, SeededGraphTableScan):
            strategy = "seeded graph join (probe side streams into anchored searches)"
        elif self.left_keys:
            strategy = "hash join (build right, probe left streams)"
        elif self.residual is not None:
            strategy = "nested-loop join"
        else:
            strategy = "cross join"
        lines = [f"join strategy: {strategy}"]
        if self.left_keys:
            lines.append(
                "join keys: "
                + ", ".join(
                    f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
                )
            )
        if self.residual is not None:
            lines.append(f"join residual: {self.residual}")
        if self.semi_join is not None:
            lines.append(
                f"semi-join reduction: distinct values of "
                f"{self.left_keys[self.semi_join.key_position]} pushed as IN "
                f"into the graph side (cap {self.semi_join.max_keys} keys)"
            )
        return lines
