"""SQL's share of the operator tree: its leaves and the shared spool.

The host-neutral row operators (filter, project, aggregate, distinct,
sort, limit, union) and the hash join live in :mod:`repro.rowops` and
run under both hosts.  What stays here is what only SQL has: base-table
scans, the GRAPH_TABLE scans a join can seed or reduce, and their spool.

The graph leaf is :class:`GraphTableScan`: its child is the pattern's
own stage tree (:func:`repro.gpml.engine.match_stages`), so a
:class:`~repro.gpml.streaming.RowBudget` owned by the
outer LIMIT reaches the NFA search itself — ``SELECT ... LIMIT 1`` over a
huge graph stops the product-graph exploration after a handful of edge
expansions, and pushed-down WHERE conjuncts ride into the MATCH where the
cost-based planner turns them into index anchors.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.gpml import ast as gpml_ast
from repro.gpml.engine import PreparedQuery, SeededSearch, match_stages, prepare
from repro.gpml.expr import Expr, In, conjoin
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats, RowBudget
from repro.graph.model import PropertyGraph
from repro.pgq.graph_table import GraphTableStatement
from repro.pgq.table import Table
from repro.planner.anchor import SeedSpec
from repro.rowops import Column, Operator, attach_spans
from repro.values import is_null


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

        The semi-join runtime path (see ``HashJoin._reduced_build``): the
        pattern is re-prepared from its pre-normalization form with
        ``reduction_expr IN (values)`` conjoined into the final WHERE, so
        the GPML planner's sargable machinery can turn the value set into
        index-anchor probes.
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
    """A GRAPH_TABLE scan that answers a join's probe keys a block at a
    time, with one anchored NFA search per block.

    Planted by the join-through-GRAPH_TABLE rewrite: instead of
    enumerating the whole pattern and hash-joining, the enclosing
    :class:`~repro.rowops.HashJoin` hands :meth:`partners` the key values
    of a block of probe rows, and the scan runs one seeded search
    anchored at exactly the nodes the block's seed key values name
    (:class:`~repro.gpml.engine.SeededSearch`, shared with GQL's chained
    MATCH — hub-skew memoization included).

    Each probe row's answer may be a superset of the rows whose key
    equals its value, as the join re-checks every key; probe values no
    index can answer exactly (lists, exotic types) fall back to one full
    enumeration, cached across probe rows.
    """

    def __init__(
        self,
        scan: GraphTableScan,
        seed: SeedSpec,
        probe_mode: str,
        probe_prop: Optional[str],
        probe_column: str,
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
        self._search: Optional[SeededSearch] = None
        self._fallback: Optional[list[tuple]] = None

    def partners(self, at: int, block: list) -> Iterator[Iterable[tuple]]:
        """Per probe row's key values in *block* (None: a key that never
        joins), the COLUMNS-projected rows whose join key may equal its
        value at position *at*."""
        seed_lists = [[] if values is None else self._seed_ids(values[at]) for values in block]
        if self._search is None:
            self._search = SeededSearch(
                self.graph, self.prepared, self.config, self.seed,
                budget=self.budget, stats=self.stats, owner=self,
                reads=self.statement.reads,
            )
        found = self._search.block([seeds or [] for seeds in seed_lists])
        project = self.project
        for seeds, rows in zip(seed_lists, found):
            if seeds is None:
                yield self._enumerated()
            else:
                yield (project(row.values) for row in rows)

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
            f"{self.seed.var} ({self.seed.side} end), "
            "one anchored search per block of probe rows"
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
