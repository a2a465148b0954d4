"""Import direction between the hosts and the shared row operators.

GQL and SQL/PGQ are two hosts around one core; the relational tail they
share (``repro.rowops``) sits under both.  An AST scan — so that lazy,
function-level imports count too — keeps it that way: the GQL host never
reaches into the SQL host, and the shared module knows neither.

The pattern pipeline below the hosts' operators is the same kind of tree
(``repro.gpml.engine.match_stages``), written down once: no second
description of it, and no trace span handed down through its functions.
GQL's statements are operators of that tree too: nothing in ``repro.gql``
applies a statement by hand or is handed a span.
"""

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def imported_modules(path: Path) -> set[str]:
    modules: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules.add(node.module)
    return modules


def offenders(paths, forbidden: tuple[str, ...]) -> list[str]:
    return sorted(
        f"{path.relative_to(SRC)} imports {module}"
        for path in paths
        for module in imported_modules(path)
        if any(module == name or module.startswith(name + ".") for name in forbidden)
    )


def test_gql_host_imports_nothing_from_the_sql_host():
    assert offenders((SRC / "gql").glob("*.py"), ("repro.sql",)) == []


def test_shared_row_operators_import_neither_host():
    assert offenders([SRC / "rowops.py"], ("repro.sql", "repro.gql", "repro.pgq")) == []


def test_shared_row_operators_do_not_know_the_engine_that_builds_on_them():
    assert offenders([SRC / "rowops.py"], ("repro.gpml.engine",)) == []


def test_the_pattern_pipeline_has_no_second_description():
    gone = {"classify_pipeline", "StageInfo", "render_pipeline"}
    defined = {
        node.name
        for node in ast.walk(ast.parse((SRC / "gpml/streaming.py").read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not gone & defined


def test_spans_ride_on_the_stage_tree_not_through_parameters():
    """Operators get their span from ``attach_spans``; the seeded runs,
    which aggregate thousands of searches onto one span, are handed the
    operator that owns it.  In the GQL host nothing applies a statement
    by hand either: a statement is an operator, pulled through ``run()``."""
    takers, appliers = set(), set()
    modules = ["gpml/engine.py", "pgq/graph_table.py"]
    modules += [str(path.relative_to(SRC)) for path in (SRC / "gql").glob("*.py")]
    for module in modules:
        for owner in ast.walk(ast.parse((SRC / module).read_text())):
            for node in ast.iter_child_nodes(owner):
                if not isinstance(node, ast.FunctionDef):
                    continue
                if "span" in {arg.arg for arg in node.args.args + node.args.kwonlyargs}:
                    takers.add((getattr(owner, "name", module), node.name))
                if node.name == "apply":
                    appliers.add((getattr(owner, "name", module), node.name))
    assert takers == set()
    assert appliers == set()
    for module in ("gql/pipeline.py", "gql/dml.py"):
        assert offenders([SRC / module], ("repro.obs.trace",)) == []
    assert "counted_in" not in defined_names(SRC / "obs/trace.py")


def test_span_sites_outside_the_trace_package_stay_few():
    """Places that hand a span on or test for one (31 before GQL's
    statements became operators): ``Operator.run`` and the ``trace_*``
    helpers beside it, and a few that rewrite or read a span tree."""
    site = re.compile(r"span=|span is (not )?None|span: Optional")
    count = sum(
        len(site.findall(line))
        for path in SRC.rglob("*.py")
        if "obs" not in path.relative_to(SRC).parts
        for line in path.read_text().splitlines()
    )
    assert count <= 14


def test_only_rowops_defines_a_join():
    """The three joiners (GPML's ``MATCH P1, P2``, GQL's chained MATCH,
    SQL's JOIN) build ``rowops.HashJoin``: outside ``rowops.py`` and the
    oracle's own materialized join in ``gpml/reference.py``, no module
    defines a join operator, and the per-host copies stay gone."""
    gone = {"_Build", "_Probe", "_MatchTable", "SemiJoinSpec"}
    classes = []  # (module, class name, base names)
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
                classes.append((str(path.relative_to(SRC)), node.name, bases))
    assert not gone & {name for _, name, _ in classes}
    assert "Join" not in defined_names(SRC / "sql/operators.py")
    operators = {"Operator"}
    while True:
        derived = {name for _, name, bases in classes if bases & operators} - operators
        if not derived:
            break
        operators |= derived
    joiners = sorted(
        f"{module}: {name}"
        for module, name, _ in classes
        if name in operators and re.search("Join|Probe|Build", name)
        and module not in ("rowops.py", "gpml/reference.py")
    )
    assert joiners == []
    assert "HashJoin" in operators


def test_both_hosts_take_the_tail_from_the_shared_module():
    for host in ("gql/query.py", "sql/planner.py"):
        assert "repro.rowops" in imported_modules(SRC / host), host
    tail = {"Filter", "Project", "Aggregate", "Distinct", "Sort", "Limit", "Union"}
    defined = {
        node.name
        for node in ast.walk(ast.parse((SRC / "sql/operators.py").read_text()))
        if isinstance(node, ast.ClassDef)
    }
    assert not tail & defined


def defined_names(path: Path) -> set[str]:
    return {
        node.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_the_search_kernel_takes_the_one_predicate_compiler():
    """``var.prop op literal`` conjuncts are compiled in one place; the
    kernel only says where the property values come from (snapshot
    columns)."""
    kernel = "gpml/frontier.py"
    assert "repro.gpml.predicates" in imported_modules(SRC / kernel)
    assert not {"_value_test", "value_test", "_split_where", "split_where"} & (
        defined_names(SRC / kernel)
    )
    assert {"value_test", "split_where"} <= defined_names(SRC / "gpml/predicates.py")


def test_the_frontier_kernel_scans_a_slice_at_a_time():
    """One loop, and it is not per CSR entry: no ``for k in range(start,
    end)`` walk of a row, no per-entry ``_admit_node``, no bit shifted out
    of a packed mask, no raw ``PathBinding`` built to be reduced later."""
    path = SRC / "gpml/frontier.py"
    tree = ast.parse(path.read_text())
    row_walks = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.comprehension))
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name)
        and node.iter.func.id == "range"
        and len(node.iter.args) == 2
    ]
    assert row_walks == []
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.RShift)]
    assert "_admit_node" not in defined_names(path)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not {"PathBinding", "ElementaryBinding"} & names
    assert "repro.planner.anchor" not in imported_modules(path)  # nothing to reverse


def test_the_frontier_kernel_is_one_scan_loop_over_hop_programs():
    """Chains did not keep a kernel of their own beside the hop program:
    one ``while stack`` loop, no chain extraction, and of the object
    matcher only its config and the expression context."""
    path = SRC / "gpml/frontier.py"
    tree = ast.parse(path.read_text())
    scans = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.While)
        and isinstance(node.test, ast.Name)
        and node.test.id == "stack"
    ]
    assert len(scans) == 1
    assert not {"ChainSpec", "chain_spec", "_walk_chain"} & defined_names(path)
    from_matcher = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "repro.gpml.matcher"
        for alias in node.names
    }
    assert from_matcher == {"MatcherConfig", "RunContext"}


def test_the_kernel_walks_guarded_closures_through_explicit_fields():
    """No ``**overrides``-style run derivation (a kwargs dict and a
    ``.get`` per field on every ε-step), one ε-walk for the closures that
    need the cycle guard, and no second matcher beside the kernel: of
    ``gpml/matcher.py`` only the config and the expression context are left."""
    tree = ast.parse((SRC / "gpml/frontier.py").read_text())
    keyworded = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.args.kwarg is not None
    ]
    assert keyworded == []
    closures = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_closure")
    ]
    assert closures == ["_closure"]
    assert defined_names(SRC / "gpml/matcher.py") == {
        "MatcherConfig", "RunContext", "__init__", "lookup", "group_items",
    }


def test_matcher_config_holds_only_the_budgets():
    """No switch that picks between two paths with the same results:
    every unseeded search plans, a chained MATCH seeds where it can, and
    an edge without the cost property costs 1."""
    from dataclasses import fields

    from repro.gpml.matcher import MatcherConfig

    assert [f.name for f in fields(MatcherConfig)] == ["max_steps", "max_results", "max_depth"]


def test_the_search_kernel_plans_nothing():
    """The kernel starts from the candidates it is given, or every node."""
    frontier = imported_modules(SRC / "gpml/frontier.py")
    assert not [module for module in frontier if module.startswith("repro.planner")]


SELECTOR_KINDS = {
    "ANY", "ANY_K", "ANY_SHORTEST", "ALL_SHORTEST", "SHORTEST_K",
    "SHORTEST_K_GROUP", "ANY_CHEAPEST", "TOP_K_CHEAPEST",
}


def test_one_selection_rule_serves_head_selectors_and_keep():
    """``selectors.select`` is the only code that branches on a selector
    kind (``gpml/ast.py`` only renders one); KEEP keeps no copy of it."""
    branching = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            for operand in [node.left, *node.comparators]:
                items = operand.elts if isinstance(operand, (ast.Tuple, ast.Set)) else [operand]
                if any(isinstance(i, ast.Constant) and i.value in SELECTOR_KINDS for i in items):
                    branching.add(str(path.relative_to(SRC)))
    assert branching == {"gpml/selectors.py", "gpml/ast.py"}
    gone = {"_select", "_select_rows", "_row_sort_key", "_row_length", "_apply_keep"}
    assert not gone & defined_names(SRC / "gpml/engine.py")


HOST_CONSUMERS = ("rowops.py", "pgq/graph_table.py", "gql/pipeline.py", "gql/dml.py")


def test_the_hosts_compile_expressions_with_the_kernels_compiler():
    """One compiler: the module the search kernel takes ``value_test``
    from is the one every host operator takes its row closures from."""
    for module in HOST_CONSUMERS + ("gpml/frontier.py",):
        assert "repro.gpml.predicates" in imported_modules(SRC / module), module
    assert {"row_value", "row_values", "row_test"} <= defined_names(
        SRC / "gpml/predicates.py"
    )
    # SQL's leaves compile nothing: the join they fed is rowops'
    for module in HOST_CONSUMERS + ("sql/operators.py",):
        assert not {"row_value", "row_values", "row_test"} & defined_names(SRC / module), module
    # the per-row interpreter helpers the join used to carry are gone
    assert not {"evaluate", "holds"} & defined_names(SRC / "sql/operators.py")


def test_no_operator_interprets_an_expression_per_row():
    """No ``.evaluate(`` / ``.truth(`` call and no context construction
    inside a loop or comprehension of the operator modules: the fallback
    closure lives in the compiler."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []
    for module in ("rowops.py", "sql/operators.py", "gql/pipeline.py", "gql/dml.py"):
        for loop in ast.walk(ast.parse((SRC / module).read_text())):
            if not isinstance(loop, loops):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in ("evaluate", "truth"):
                    found.append(f"{module}:{node.lineno} .{func.attr}(")
                if isinstance(func, ast.Name) and func.id in ("RowContext", "EvalContext"):
                    found.append(f"{module}:{node.lineno} {func.id}(")
    assert found == []


def test_sql_config_holds_only_the_rule_gates():
    """The semi-join key cap is the constant ``SEMI_JOIN_MAX_KEYS``."""
    from dataclasses import fields

    from repro.sql.config import SqlConfig

    assert [f.name for f in fields(SqlConfig)] == ["optimizer_rules"]


def test_public_surfaces_prepare_through_the_statement_cache():
    """One module decides whether a text is parsed and prepared again:
    the session objects never call a parser or ``prepare`` themselves,
    and the GPML entry points turn a text into a prepared query only
    through ``repro.statements``."""
    parsers = {"parse_gql_query", "parse_sql", "parse_match", "prepare"}

    def called(path: Path, functions=None) -> set[str]:
        names = set()
        for owner in ast.walk(ast.parse(path.read_text())):
            if functions is not None and not (
                isinstance(owner, ast.FunctionDef) and owner.name in functions
            ):
                continue
            for node in ast.walk(owner):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    names.add(node.func.id)
        return names

    for host in ("gql/session.py", "sql/database.py"):
        assert not parsers & called(SRC / host), host
        assert "repro.statements" in imported_modules(SRC / host), host
    surfaces = {"match", "match_iter", "first", "exists"}
    assert not parsers & called(SRC / "gpml/engine.py", surfaces)
    assert "repro.statements" in imported_modules(SRC / "gpml/engine.py")


def test_every_bench_script_outside_the_suite_runs_in_ci():
    """A script under ``benchmarks/`` that no CI step runs rots unseen;
    ``benchmarks/suite/`` is the repo benchmark and has its own tests."""
    repo = Path(__file__).resolve().parents[1]
    workflow = (repo / ".github/workflows/ci.yml").read_text().splitlines()
    commands = []
    for at, line in enumerate(workflow):
        head = re.match(r"(\s*)(?:- )?run:\s*(.*)", line)
        if head is None:
            continue
        if head.group(2) not in ("|", ">"):
            commands.append(head.group(2))
            continue
        indent = len(head.group(1))
        for body in workflow[at + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            commands.append(body)
    run = "\n".join(commands)
    scripts = sorted(path.name for path in (repo / "benchmarks").glob("*.py"))
    assert [name for name in scripts if f"benchmarks/{name}" not in run] == []


#: the public entry points: the package, the two command lines
PUBLIC_ENTRY_POINTS = ("repro", "repro.cli", "repro.__main__", "repro.obs.__main__")
#: reached by no public surface on purpose: the Section 6 engine that the
#: differential suites test every production path against
TEST_ORACLES = {"repro.gpml.reference"}


def module_name(path: Path) -> str:
    parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def import_closure(roots) -> set[str]:
    """Every ``repro`` module that importing *roots* can load: each
    import (lazy ones too), the packages above it, and the submodules a
    ``from package import name`` names."""
    paths = {module_name(path): path for path in SRC.rglob("*.py")}
    reached: set[str] = set()
    pending = list(roots)
    while pending:
        name = pending.pop()
        if name in reached or name not in paths:
            continue
        reached.add(name)
        parts = name.split(".")
        pending.extend(".".join(parts[:end]) for end in range(1, len(parts)))
        for node in ast.walk(ast.parse(paths[name].read_text())):
            if isinstance(node, ast.Import):
                pending.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                pending.append(node.module)
                pending.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return reached


def test_every_module_is_reached_from_a_public_entry_point():
    """The production package holds production code: a module no public
    surface imports is a test helper, and lives under ``tests/``."""
    modules = {module_name(path) for path in SRC.rglob("*.py")}
    unreached = modules - import_closure(PUBLIC_ENTRY_POINTS)
    assert sorted(unreached - TEST_ORACLES) == []
    assert TEST_ORACLES <= modules


def test_no_sql_switch_that_only_a_test_flips():
    """Predicate and LIMIT pushdown always apply; a test that wants the
    unpushed result runs the GRAPH_TABLE without the WHERE."""
    import inspect
    from dataclasses import fields

    from repro.sql.database import Database
    from repro.sql.planner import PlannerContext

    assert "pushdown" not in {f.name for f in fields(PlannerContext)}
    for method in ("execute", "execute_iter", "explain", "explain_analyze"):
        assert "pushdown" not in inspect.signature(getattr(Database, method)).parameters


def test_the_type_system_reads_only_patterns_and_expressions():
    """``gpml/analysis.py`` is a transcription of the typing rules: it
    imports, from this package, only the errors it raises, the pattern
    AST and the expression tree — no engine, planner or host."""
    allowed = {"repro.errors", "repro.gpml.ast", "repro.gpml.expr"}
    strays = []
    for node in ast.walk(ast.parse((SRC / "gpml/analysis.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("repro")):
            module = "." * node.level + (node.module or "")
            strays += [
                f"{module}.{alias.name}"
                for alias in node.names
                if module not in allowed and f"{module}.{alias.name}" not in allowed
            ]
        elif isinstance(node, ast.Import):
            strays += [a.name for a in node.names if a.name.startswith("repro")]
    assert strays == []


def test_nothing_tunes_the_garbage_collector():
    """Collector settings belong to the embedding program: no module
    freezes, disables or re-thresholds ``gc``."""
    tuners = {"freeze", "disable", "set_threshold"}
    calls = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                names = {alias.name for alias in node.names}
                calls += [f"{path.relative_to(SRC)}: from gc import {n}" for n in names & tuners]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
                and node.attr in tuners
            ):
                calls.append(f"{path.relative_to(SRC)}:{node.lineno}: gc.{node.attr}")
    assert calls == []


def test_nothing_reads_the_process_environment():
    """A plan or a result depends on the query and its arguments, never on
    an environment variable: a second configuration is an argument a test
    passes, not a switch a whole process flips."""
    readers = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                reads += [f"{path.relative_to(SRC)}: from os import {n}" for n in names & readers]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in readers
            ):
                reads.append(f"{path.relative_to(SRC)}:{node.lineno}: os.{node.attr}")
    assert reads == []
