"""The command-line interface: output formats, graph files, errors."""

import json

from repro.cli import main
from repro.graph import graph_to_json


class TestCli:
    def test_table_output(self, capsys):
        code = main(['MATCH (x:Account WHERE x.isBlocked="yes")'])
        out = capsys.readouterr().out
        assert code == 0
        assert "a4" in out and "1 row(s)" in out

    def test_json_output(self, capsys):
        code = main(["--format", "json", 'MATCH (c:City)'])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["c"]["properties"]["name"] == "Ankh-Morpork"

    def test_paths_output(self, capsys):
        code = main([
            "--format", "paths",
            'MATCH ANY SHORTEST p = (a WHERE a.owner="Dave")-[:Transfer]->+'
            '(b WHERE b.owner="Aretha")',
        ])
        assert code == 0
        assert "path(a6,t5,a3,t2,a2)" in capsys.readouterr().out

    def test_explain(self, capsys):
        code = main(["--explain", "MATCH TRAIL (a)-[e:Transfer]->*(b)"])
        assert code == 0
        assert "strategy: enumerate" in capsys.readouterr().out

    def test_custom_graph_file(self, tmp_path, capsys, two_cycle):
        path = tmp_path / "g.json"
        path.write_text(graph_to_json(two_cycle))
        code = main(["--graph", str(path), "MATCH (a)-[e:E]->(b)"])
        assert code == 0
        assert "2 row(s)" in capsys.readouterr().out

    def test_syntax_error_exit_code(self, capsys):
        code = main(["MATCH (x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_termination_error_reported(self, capsys):
        code = main(["MATCH (a)-[e]->*(b)"])
        assert code == 1
        assert "Section 5" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main(["--graph", "/nonexistent.json", "MATCH (a)"])
        assert code == 1
