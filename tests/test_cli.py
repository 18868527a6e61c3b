"""Tests for the command-line interface."""

import json
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture
def csv_graph(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text(
        "start_vertex,edge,label,end_vertex\n"
        "1,3,follows,2\n"
        "1,4,knows,2\n"
    )
    kvs = tmp_path / "kvs.csv"
    kvs.write_text(
        "obj_id,kind,key,type,value\n"
        "1,v,name,VARCHAR,Amy\n"
        "1,v,age,NUMBER,23\n"
        "2,v,name,VARCHAR,Mira\n"
        "3,e,since,NUMBER,2007\n"
    )
    return str(edges), str(kvs)


class TestTransform:
    def test_transform_to_stdout(self, csv_graph, capsys):
        edges, kvs = csv_graph
        assert main(["transform", "--edges", edges, "--kvs", kvs,
                     "--model", "NG"]) == 0
        out = capsys.readouterr().out
        assert "<http://pg/e3>" in out
        assert '"2007"' in out

    def test_transform_to_file(self, csv_graph, tmp_path):
        edges, kvs = csv_graph
        output = str(tmp_path / "out.nq")
        assert main(["transform", "--edges", edges, "--kvs", kvs,
                     "--model", "SP", "-o", output]) == 0
        text = open(output).read()
        assert "subPropertyOf" in text

    def test_transform_requires_input(self):
        with pytest.raises(SystemExit):
            main(["transform"])


class TestQuery:
    @pytest.fixture
    def nquads(self, csv_graph, tmp_path):
        edges, kvs = csv_graph
        output = str(tmp_path / "data.nq")
        main(["transform", "--edges", edges, "--kvs", kvs, "-o", output])
        return output

    def test_table_output(self, nquads, capsys):
        assert main([
            "query", nquads,
            "-q", "SELECT ?n WHERE { ?x k:name ?n } ORDER BY ?n",
        ]) == 0
        out = capsys.readouterr().out
        assert '"Amy"' in out and '"Mira"' in out

    def test_json_output(self, nquads, capsys):
        main(["query", nquads, "--format", "json",
              "-q", 'SELECT ?x WHERE { ?x k:name "Amy" }'])
        document = json.loads(capsys.readouterr().out)
        assert document["results"]["bindings"][0]["x"]["value"] == "http://pg/v1"

    def test_csv_output(self, nquads, capsys):
        main(["query", nquads, "--format", "csv",
              "-q", 'SELECT ?x WHERE { ?x k:name "Amy" }'])
        assert "http://pg/v1" in capsys.readouterr().out

    def test_query_file(self, nquads, tmp_path, capsys):
        query_path = tmp_path / "q.rq"
        query_path.write_text("SELECT ?s WHERE { ?s r:follows ?o }")
        main(["query", nquads, "-f", str(query_path)])
        assert "v1" in capsys.readouterr().out

    def test_explain(self, nquads, capsys):
        main(["query", nquads, "--explain",
              "-q", "SELECT ?s WHERE { ?s r:follows ?o }"])
        assert "index" in capsys.readouterr().out

    def test_pgql_explain_prints_the_access_plan(self, nquads, capsys):
        main(["pgql", nquads, "--explain",
              "-q", "MATCH (n)-[e:follows]->(m) RETURN m"])
        out = capsys.readouterr().out
        assert "Query language: pgql" in out
        assert out.index("Physical plan") < out.index("Access plan (Table 5):")
        assert "\n  1: ?n <http://pg/r/follows> ?m" in out

    def test_query_requires_text(self, nquads):
        with pytest.raises(SystemExit):
            main(["query", nquads])


class TestStats:
    def test_pg_stats(self, csv_graph, capsys):
        edges, kvs = csv_graph
        assert main(["stats", "--edges", edges, "--kvs", kvs]) == 0
        out = capsys.readouterr().out
        assert "vertices:  2" in out
        assert "edges:     2" in out

    def test_nquads_stats(self, csv_graph, tmp_path, capsys):
        edges, kvs = csv_graph
        output = str(tmp_path / "data.nq")
        main(["transform", "--edges", edges, "--kvs", kvs, "-o", output])
        capsys.readouterr()
        assert main(["stats", "--nquads", output]) == 0
        assert "named graphs:       2" in capsys.readouterr().out


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--egos", "4"]) == 0
        out = capsys.readouterr().out
        assert "EQ12" in out


class TestModuleEntryPoint:
    def test_python_dash_m(self, csv_graph):
        edges, kvs = csv_graph
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "stats", "--edges", edges],
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0
        assert "vertices" in completed.stdout


class TestServe:
    def test_serve_loads_and_answers(self, csv_graph, tmp_path):
        import json
        import threading
        import urllib.parse
        import urllib.request

        from repro.cli import build_parser, main
        from repro.server import make_server
        from repro.sparql import SparqlEngine
        from repro.store import SemanticNetwork
        from repro.rdf import parse_nquads

        edges, kvs = csv_graph
        data = str(tmp_path / "serve.nq")
        main(["transform", "--edges", edges, "--kvs", kvs, "-o", data])

        # Build the same engine the serve command would, on an ephemeral
        # port (serve_forever would block the test).
        network = SemanticNetwork()
        network.create_model("data", ["PCSGM", "PSCGM", "SPCGM", "GSPCM"])
        with open(data) as handle:
            network.bulk_load("data", parse_nquads(handle))
        engine = SparqlEngine(
            network, prefixes={"k": "http://pg/k/"}, default_model="data"
        )
        server, port = make_server(engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            query = urllib.parse.quote(
                'SELECT ?x WHERE { ?x k:name "Amy" }'
            )
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/sparql?query={query}", timeout=10
            ) as response:
                document = json.loads(response.read())
            assert document["results"]["bindings"][0]["x"]["value"] == (
                "http://pg/v1"
            )
        finally:
            server.shutdown()
            server.server_close()

    def test_serve_in_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "x.nq", "--port", "0"])
        assert args.port == 0 and args.data == "x.nq"

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_serve_rejects_bad_max_inflight(self, csv_graph, tmp_path, value):
        edges, kvs = csv_graph
        data = str(tmp_path / "serve.nq")
        main(["transform", "--edges", edges, "--kvs", kvs, "-o", data])
        with pytest.raises(SystemExit, match="max-inflight"):
            main(["serve", data, "--max-inflight", value])

    def test_serve_rejects_bad_timeout(self, csv_graph, tmp_path):
        edges, kvs = csv_graph
        data = str(tmp_path / "serve.nq")
        main(["transform", "--edges", edges, "--kvs", kvs, "-o", data])
        with pytest.raises(SystemExit, match="timeout"):
            main(["serve", data, "--timeout", "0"])
