"""GQL write statements: INSERT, SET, DELETE in the linear pipeline.

GQL statements are row operators over the working table of binding rows
(:mod:`repro.gql.pipeline`); a write statement is just another one.
``INSERT`` creates a path's worth of elements per incoming row (binding
fresh variables), ``SET`` updates properties/labels of bound elements,
``DELETE`` removes them.  All three are **blocking** operators: each
materializes its incoming rows before mutating, so upstream pattern
searches finish against the pre-statement graph and never observe their
own writes (the classic Halloween problem).  Property and value
expressions are compiled once per operator, on its first pull, by the
hosts' one expression compiler.

Grammar (see docs/dml.md for the full table)::

    INSERT <insert path> [, <insert path>]*
      insert path  :=  node ( edge node )*
      node         :=  "(" [var] [":" label ("&" label)*] [props] ")"
      edge         :=  "-[" [var] [":" label ("&" label)*] [props] "]->"
                    |  "<-[" [var] [":" label ("&" label)*] [props] "]-"
      props        :=  "{" name ":" expr ("," name ":" expr)* "}"

    SET <item> [, <item>]*
      item         :=  var "." name "=" expr     (NULL value removes)
                    |  var ":" label ("&" label)*  (labels are added)

    [DETACH] DELETE var [, var]*

Semantics follow Cypher/GQL practice where the paper is silent:

* An INSERT node referencing an already-bound variable attaches the new
  edges to that element; giving it labels or properties is a compile
  error.  Unbound node/edge variables bind the created element into the
  row.  Properties evaluating to NULL are omitted.
* ``SET x.p = expr`` on a NULL-bound ``x`` (e.g. from OPTIONAL MATCH) is
  a no-op for that row; on a non-element it is an error.
* ``DELETE`` removes edges before nodes and skips elements already
  removed by an earlier row; deleting a node that still has incident
  edges is an error unless ``DETACH`` is given.

Transactionality lives one level up (:class:`repro.gql.query.Transaction`,
the root operator of a write query, wraps the whole tree in
:meth:`PropertyGraph.begin_mutation`): any error — here or in a later
statement — rolls the graph back to its pre-query state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.errors import GqlError
from repro.gpml.expr import EvalContext, Expr
from repro.gpml.lexer import IDENT
from repro.gpml.parser import GpmlParser
from repro.gpml.predicates import row_value
from repro.gpml.streaming import BLOCKING
from repro.gql.pipeline import SINGLETON, VALUE, Statement, check_known_variables
from repro.graph.model import Edge, Node, PropertyGraph
from repro.rowops import Operator
from repro.values import NULL, is_null


# ----------------------------------------------------------------------
# Statement AST
# ----------------------------------------------------------------------
@dataclass
class InsertNode:
    var: Optional[str]
    labels: list[str]
    props: list[tuple[str, Expr]]


@dataclass
class InsertEdge:
    var: Optional[str]
    labels: list[str]
    props: list[tuple[str, Expr]]
    right: bool  # -[..]-> when True, <-[..]- when False


@dataclass
class InsertPath:
    nodes: list[InsertNode]
    edges: list[InsertEdge]  # len(nodes) - 1


@dataclass
class InsertStatement:
    paths: list[InsertPath]
    text: str


@dataclass
class SetItem:
    var: str
    prop: Optional[str] = None
    value: Optional[Expr] = None
    labels: Optional[list[str]] = None  # SET x:Label form


@dataclass
class SetStatement:
    items: list[SetItem]
    text: str


@dataclass
class DeleteStatement:
    variables: list[str]
    detach: bool
    text: str


WRITE_STATEMENTS = (InsertStatement, SetStatement, DeleteStatement)


# ----------------------------------------------------------------------
# Parsing (driven by repro.gql.query.parse_gql_query)
# ----------------------------------------------------------------------
def _word(parser: GpmlParser) -> Optional[str]:
    token = parser.peek()
    if token.type == IDENT:
        return str(token.value).upper()
    return None


def parse_insert_statement(parser: GpmlParser, text: str) -> InsertStatement:
    start = parser.peek().position
    parser.advance()  # INSERT
    paths = [_parse_insert_path(parser)]
    while parser.accept_punct(","):
        paths.append(_parse_insert_path(parser))
    end = parser.peek().position
    return InsertStatement(paths=paths, text=" ".join(text[start:end].split()))


def _parse_insert_path(parser: GpmlParser) -> InsertPath:
    nodes = [_parse_insert_node(parser)]
    edges: list[InsertEdge] = []
    while True:
        edge = _maybe_parse_insert_edge(parser)
        if edge is None:
            break
        edges.append(edge)
        nodes.append(_parse_insert_node(parser))
    return InsertPath(nodes=nodes, edges=edges)


def _parse_insert_node(parser: GpmlParser) -> InsertNode:
    parser.expect_punct("(")
    var = None
    if parser.peek().type == IDENT:
        var = parser.expect_ident()
    labels = _parse_label_list(parser)
    props = _parse_property_map(parser)
    parser.expect_punct(")")
    return InsertNode(var=var, labels=labels, props=props)


def _maybe_parse_insert_edge(parser: GpmlParser) -> Optional[InsertEdge]:
    if parser.at_punct("-"):
        parser.advance()
        var, labels, props = _parse_insert_edge_spec(parser)
        parser.expect_punct("-")
        parser.expect_punct(">")
        return InsertEdge(var=var, labels=labels, props=props, right=True)
    if parser.at_punct("<"):
        parser.advance()
        parser.expect_punct("-")
        var, labels, props = _parse_insert_edge_spec(parser)
        parser.expect_punct("-")
        return InsertEdge(var=var, labels=labels, props=props, right=False)
    return None


def _parse_insert_edge_spec(parser: GpmlParser):
    parser.expect_punct("[")
    var = None
    if parser.peek().type == IDENT:
        var = parser.expect_ident()
    labels = _parse_label_list(parser)
    props = _parse_property_map(parser)
    parser.expect_punct("]")
    return var, labels, props


def _parse_label_list(parser: GpmlParser) -> list[str]:
    if not parser.accept_punct(":"):
        return []
    labels = [parser.expect_name()]
    while parser.accept_punct("&"):
        labels.append(parser.expect_name())
    return labels


def _parse_property_map(parser: GpmlParser) -> list[tuple[str, Expr]]:
    if not parser.at_punct("{"):
        return []
    parser.advance()
    props: list[tuple[str, Expr]] = []
    if not parser.at_punct("}"):
        while True:
            name = parser.expect_name()
            parser.expect_punct(":")
            props.append((name, parser.parse_expression()))
            if not parser.accept_punct(","):
                break
    parser.expect_punct("}")
    return props


def parse_set_statement(parser: GpmlParser, text: str) -> SetStatement:
    start = parser.peek().position
    parser.advance()  # SET
    items: list[SetItem] = []
    while True:
        var = parser.expect_ident()
        if parser.accept_punct("."):
            prop = parser.expect_name()
            parser.expect_punct("=")
            items.append(SetItem(var=var, prop=prop, value=parser.parse_expression()))
        elif parser.at_punct(":"):
            items.append(SetItem(var=var, labels=_parse_label_list(parser)))
        else:
            parser.error("expected '.' (property) or ':' (label) after SET variable")
        if not parser.accept_punct(","):
            break
    end = parser.peek().position
    return SetStatement(items=items, text=" ".join(text[start:end].split()))


def parse_delete_statement(parser: GpmlParser, text: str) -> DeleteStatement:
    start = parser.peek().position
    detach = False
    if _word(parser) == "DETACH":
        parser.advance()
        detach = True
    if _word(parser) != "DELETE":
        parser.error("expected DELETE")
    parser.advance()
    variables = [parser.expect_ident()]
    while parser.accept_punct(","):
        variables.append(parser.expect_ident())
    end = parser.peek().position
    return DeleteStatement(
        variables=variables, detach=detach, text=" ".join(text[start:end].split())
    )


# ----------------------------------------------------------------------
# Static checks (driven by repro.gql.pipeline.compile_pipeline)
# ----------------------------------------------------------------------
def _require_element_var(var: str, bound: dict[str, str], text: str) -> None:
    if var not in bound:
        raise GqlError(f"unknown variable {var!r} in {text!r}")
    if bound[var] not in (SINGLETON, VALUE):
        raise GqlError(
            f"variable {var!r} is a {bound[var]} and cannot be mutated "
            f"in {text!r}; only singleton element variables can"
        )


def check_insert(statement: InsertStatement, bound: dict[str, str]) -> list[str]:
    """Static checks; returns the newly bound variables.

    ``bound`` is read-only here; the caller records the new variables.
    Checks follow creation order (nodes left to right, each edge right
    after its second endpoint), so a property expression may reference
    any element created earlier in the same INSERT.
    """
    known = dict(bound)
    new_vars: list[str] = []

    def bind(var: str) -> None:
        known[var] = SINGLETON
        new_vars.append(var)

    for path in statement.paths:
        for index, node in enumerate(path.nodes):
            if node.var is not None and node.var in known:
                if node.labels or node.props:
                    raise GqlError(
                        f"variable {node.var!r} is already bound; INSERT "
                        f"cannot attach labels or properties to it "
                        f"(in {statement.text!r})"
                    )
                _require_element_var(node.var, known, statement.text)
            else:
                for _, expr in node.props:
                    check_known_variables(expr, known, statement.text)
                if node.var is not None:
                    bind(node.var)
            if index > 0:
                edge = path.edges[index - 1]
                if edge.var is not None and edge.var in known:
                    raise GqlError(
                        f"edge variable {edge.var!r} is already bound; INSERT "
                        f"edge variables must be fresh (in {statement.text!r})"
                    )
                for _, expr in edge.props:
                    check_known_variables(expr, known, statement.text)
                if edge.var is not None:
                    bind(edge.var)
    return new_vars


def check_set(statement: SetStatement, bound: dict[str, str]) -> list[str]:
    for item in statement.items:
        _require_element_var(item.var, bound, statement.text)
        if item.value is not None:
            check_known_variables(item.value, bound, statement.text)
    return []  # binds nothing


def check_delete(statement: DeleteStatement, bound: dict[str, str]) -> list[str]:
    for var in statement.variables:
        _require_element_var(var, bound, statement.text)
    return []


# ----------------------------------------------------------------------
# The operators (built by repro.gql.pipeline.build_chain)
# ----------------------------------------------------------------------
class _Write(Statement):
    """A write statement: blocking — the rows it mutates for are complete
    before the first mutation, so upstream reads have finished."""

    blocking = True

    def __init__(
        self, upstream: Operator, label: str, statement: Any,
        graph: Optional[PropertyGraph],
    ):
        super().__init__(upstream, label, statement)
        self.graph = graph

    def detail_lines(self) -> list[str]:
        return [f"[{BLOCKING}] materialize incoming rows, then {self.effect()}"]


def _property_map(props: list[tuple[str, Expr]]) -> Callable[[dict], dict[str, Any]]:
    """``row -> {name: value}`` of one inserted element's properties."""
    readers = [(name, row_value(expr, EvalContext)) for name, expr in props]

    def read(row: dict[str, Any]) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name, value_of in readers:
            value = value_of(row)
            if not is_null(value):  # NULL-valued properties are omitted
                out[name] = value
        return out

    return read


class Insert(_Write):
    def effect(self) -> str:
        created = sum(
            len(path.nodes) + len(path.edges) for path in self.statement.paths
        )
        return f"create up to {created} element(s) per row"

    def rows(self) -> Iterator[dict[str, Any]]:
        graph = self.graph

        def compiled(elements: list) -> list[tuple[Any, Callable[[dict], dict]]]:
            return [(element, _property_map(element.props)) for element in elements]

        paths = [
            (compiled(path.nodes), compiled(path.edges))
            for path in self.statement.paths
        ]
        out = []
        for row in list(self.upstream.run()):
            row = dict(row)
            for nodes, edges in paths:
                previous: Optional[str] = None
                for index, (node, node_props) in enumerate(nodes):
                    current = self._resolve_node(row, node, node_props)
                    if index > 0:
                        edge, edge_props = edges[index - 1]
                        first, second = (
                            (previous, current) if edge.right else (current, previous)
                        )
                        handle = graph.add_edge(
                            None, first, second,
                            labels=edge.labels, properties=edge_props(row),
                        )
                        if edge.var is not None:
                            row[edge.var] = handle
                    previous = current
            out.append(row)
        yield from out

    def _resolve_node(
        self, row: dict[str, Any], node: InsertNode, props: Callable[[dict], dict]
    ) -> str:
        graph, text = self.graph, self.statement.text
        if node.var is not None and node.var in row:
            value = row[node.var]
            if is_null(value):
                raise GqlError(
                    f"INSERT cannot attach an edge to NULL-bound variable "
                    f"{node.var!r} (in {text!r})"
                )
            if not isinstance(value, Node):
                raise GqlError(f"variable {node.var!r} is not a node (in {text!r})")
            if not graph.has_node(value.id):
                raise GqlError(
                    f"node {value.id!r} bound to {node.var!r} was deleted "
                    f"(in {text!r})"
                )
            return value.id
        handle = graph.add_node(None, labels=node.labels, properties=props(row))
        if node.var is not None:
            row[node.var] = handle
        return handle.id


class Set(_Write):
    def effect(self) -> str:
        return f"apply {len(self.statement.items)} update(s) per row"

    def rows(self) -> Iterator[dict[str, Any]]:
        graph = self.graph
        items = [
            (item, None if item.value is None else row_value(item.value, EvalContext))
            for item in self.statement.items
        ]
        rows = list(self.upstream.run())
        for row in rows:
            for item, value_of in items:
                target = row.get(item.var, NULL)
                if is_null(target):  # OPTIONAL MATCH miss: skip, like Cypher
                    continue
                if not isinstance(target, (Node, Edge)):
                    raise GqlError(
                        f"SET target {item.var!r} is not an element "
                        f"(in {self.statement.text!r})"
                    )
                if target.id not in graph:
                    continue  # deleted by an earlier row/statement
                if value_of is None:
                    graph.set_labels(
                        target.id, graph.labels_of(target.id) | frozenset(item.labels)
                    )
                    continue
                value = value_of(row)
                if is_null(value):
                    graph.remove_property(target.id, item.prop)
                else:
                    graph.set_property(target.id, item.prop, value)
        yield from rows


class Delete(_Write):
    def effect(self) -> str:
        mode = "DETACH DELETE" if self.statement.detach else "DELETE"
        return f"{mode} {', '.join(self.statement.variables)} per row (edges first)"

    def rows(self) -> Iterator[dict[str, Any]]:
        graph = self.graph
        rows = list(self.upstream.run())
        for row in rows:
            targets: list[Any] = []
            for name in self.statement.variables:
                value = row.get(name, NULL)
                if is_null(value):
                    continue
                if not isinstance(value, (Node, Edge)):
                    raise GqlError(
                        f"DELETE target {name!r} is not an element "
                        f"(in {self.statement.text!r})"
                    )
                targets.append(value)
            # Edges first, so DELETE n, t never trips over n's incidences;
            # elements already removed by an earlier row are skipped.
            for target in targets:
                if isinstance(target, Edge) and graph.has_edge(target.id):
                    graph.remove_edge(target.id)
            for target in targets:
                if isinstance(target, Node) and graph.has_node(target.id):
                    if not self.statement.detach and graph.node(target.id).degree():
                        raise GqlError(
                            f"cannot DELETE node {target.id!r}: it still has "
                            f"incident edges (use DETACH DELETE)"
                        )
                    graph.remove_node(target.id)
        yield from rows


#: statement type -> (its static check, ``(statement, bound) -> new variables``;
#: its operator, ``(upstream, label, statement, graph)``)
WRITES = {
    InsertStatement: (check_insert, Insert),
    SetStatement: (check_set, Set),
    DeleteStatement: (check_delete, Delete),
}
