"""EXPLAIN: a human-readable account of how a query will be executed.

Surfaces each pipeline stage of the engine — the normalized pattern (the
paper's Section 6.2 output), the variable classification (Sections
4.4/4.6), the compiled automaton, the chosen search strategy with the
reasoning behind it (Section 5 termination analysis), and the stage tree
the engine will run (:func:`repro.gpml.engine.match_stages`), each stage
tagged [streaming] (emits rows as its input produces them) or [blocking]
(a pipeline breaker that must consume its whole input first).

:func:`explain_plan` is the cost-based companion: given a concrete graph
it renders the planner's decisions — chosen anchor side, access path
(property index / label scan / full scan), estimated cardinalities, the
scored alternatives — plus the same stage tree.
"""

from __future__ import annotations

from repro.gpml import ast
from repro.gpml.engine import PreparedQuery, match_stages, prepare
from repro.gpml.matcher import MatcherConfig
from repro.graph.model import PropertyGraph
from repro.planner.plan import plan_query
from repro.rowops import render_plan


def explain(query: "str | PreparedQuery") -> str:
    """Render the execution plan of a MATCH statement as text."""
    prepared = query if isinstance(query, PreparedQuery) else prepare(query)
    lines: list[str] = []
    if prepared.text is not None:
        lines.append(f"query: {prepared.text.strip()}")
    lines.append(f"normalized: {prepared.normalized}")
    for index, path_analysis in enumerate(prepared.analysis.paths):
        path = prepared.normalized.paths[index]
        lines.append(f"path pattern #{index + 1}: {path}")
        lines.append(f"  strategy: {path_analysis.strategy}")
        if path.selector is not None:
            lines.append(f"  selector: {path.selector}")
        if path.restrictor is not None:
            lines.append(f"  restrictor: {path.restrictor}")
        for name in sorted(path_analysis.vars):
            info = path_analysis.vars[name]
            if info.anonymous:
                continue
            role = "group" if info.group else (
                "conditional singleton" if info.conditional else "singleton"
            )
            lines.append(f"  variable {name}: {info.kind} ({role})")
        unbounded = [q for q in path_analysis.quants.values() if q.unbounded]
        if unbounded:
            covers = []
            for quant in unbounded:
                if quant.covered_by_restrictor:
                    covers.append("restrictor")
                elif path.selector is not None:
                    covers.append("selector")
            lines.append(
                f"  termination: {len(unbounded)} unbounded quantifier(s) "
                f"covered by {', '.join(sorted(set(covers)))}"
            )
        nfa = prepared.nfas[index]
        lines.append(f"  automaton: {nfa.num_states} states")
    if prepared.normalized.where is not None:
        lines.append(f"postfilter: WHERE {prepared.normalized.where}")
    if prepared.normalized.keep is not None:
        lines.append(f"post-WHERE selection: KEEP {prepared.normalized.keep}")
    join_vars = prepared.analysis.join_vars
    if join_vars:
        lines.append(f"cross-pattern join on: {', '.join(sorted(join_vars))}")
    lines.extend(_pipeline_lines(prepared))
    return "\n".join(lines)


def _pipeline_lines(prepared: PreparedQuery) -> list[str]:
    return ["pipeline:", *render_plan(match_stages(None, prepared), indent="  ")]


def explain_plan(graph: PropertyGraph, query: "str | PreparedQuery") -> str:
    """Render the cost-based execution plan of a query against *graph*."""
    prepared = query if isinstance(query, PreparedQuery) else prepare(query)
    plan = plan_query(graph, prepared)
    text = plan.render(
        query_text=prepared.text or str(prepared.normalized),
        paths=[str(path) for path in prepared.normalized.paths],
    )
    return "\n".join([text, *_pipeline_lines(prepared)])


def explain_analyze(
    graph: PropertyGraph,
    query: "str | PreparedQuery",
    config: "MatcherConfig | None" = None,
) -> str:
    """Execute a MATCH on *graph* and render per-stage actuals.

    The runtime companion to :func:`explain` / :func:`explain_plan`:
    instead of predicted strategies and estimated cardinalities, every
    stage shows the rows, matcher steps, and wall time it actually
    consumed (see :mod:`repro.obs`).
    """
    # Imported lazily: repro.obs.analyze depends on higher layers.
    from repro.obs.analyze import explain_analyze_match

    return explain_analyze_match(graph, query, config=config)


def explain_automaton(query: "str | PreparedQuery", index: int = 0) -> str:
    """Dump the compiled NFA of one path pattern."""
    prepared = query if isinstance(query, PreparedQuery) else prepare(query)
    return prepared.nfas[index].describe()
