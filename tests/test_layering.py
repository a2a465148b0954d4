"""Import direction between the hosts and the shared row operators.

GQL and SQL/PGQ are two hosts around one core; the relational tail they
share (``repro.rowops``) sits under both.  An AST scan — so that lazy,
function-level imports count too — keeps it that way: the GQL host never
reaches into the SQL host, and the shared module knows neither.
"""

import ast
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
