"""The command-line interface."""

import io

import pytest

from repro.cli import SAMPLE_DOCUMENT, build_parser, main

from ..conftest import PEOPLE_XML


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestQueryCommand:
    def test_query_sample_document(self):
        code, output = run_cli("query", "$input//person/name")
        assert code == 0
        assert output.splitlines() == ["John", "Mary"]

    def test_query_with_document_file(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(PEOPLE_XML, encoding="utf-8")
        code, output = run_cli("query", "count($input//person)",
                               "--doc", str(path))
        assert code == 0
        assert output.strip() == "4"

    def test_query_xml_format(self):
        code, output = run_cli("query", "$input//interest", "--format",
                               "xml")
        assert code == 0
        assert '<interest category="art"/>' in output

    def test_query_strategy_flag(self):
        for strategy in ("nljoin", "twigjoin", "scjoin", "streaming",
                         "cost"):
            code, output = run_cli("query", "$input//person/name",
                                   "--strategy", strategy)
            assert code == 0
            assert output.splitlines() == ["John", "Mary"]

    def test_query_no_optimize(self):
        code, output = run_cli("query", "$input//person/name",
                               "--no-optimize")
        assert code == 0
        assert output.splitlines() == ["John", "Mary"]

    def test_query_positional_extension(self):
        code, output = run_cli("query", "$input//person[2]/name",
                               "--positional")
        assert code == 0
        assert output.strip() == "Mary"

    def test_boolean_rendering(self):
        code, output = run_cli("query", "count($input//person) = 2")
        assert output.strip() == "true"

    def test_query_metrics_flag(self):
        code, output = run_cli("query", "$input//person/name", "--metrics")
        assert code == 0
        assert output.splitlines()[:2] == ["John", "Mary"]
        assert "execution counters:" in output
        assert "compile stages:" in output
        assert "plan cache : miss" in output


class TestOtherCommands:
    def test_explain(self):
        code, output = run_cli("explain",
                               "$input//person[emailaddress]/name")
        assert code == 0
        assert "TPNF'" in output
        assert "tree patterns detected: 1" in output
        assert "descendant::person[child::emailaddress]" in output

    def test_compare(self):
        code, output = run_cli("compare", "$input//person/name",
                               "--repeats", "1")
        assert code == 0
        assert "MISMATCH" not in output
        for strategy in ("nljoin", "twigjoin", "scjoin", "stacktree",
                         "streaming", "auto", "cost"):
            assert strategy in output

    def test_compare_metrics_flag(self):
        code, output = run_cli("compare", "$input//person/name",
                               "--repeats", "1", "--metrics")
        assert code == 0
        assert "visited=" in output
        assert "decisions=" in output       # the auto/cost rows

    def test_explain_analyze_flag(self, tmp_path):
        dot = tmp_path / "plan.dot"
        code, output = run_cli("explain", "$input//person/name",
                               "--analyze", "--strategy", "twigjoin",
                               "--dot", str(dot))
        assert code == 0
        assert "EXPLAIN ANALYZE  $input//person/name" in output
        assert "strategy=twigjoin  items=2" in output
        assert "TupleTreePattern" in output and "rows" in output
        for stage in ("parse", "normalize", "rewrite", "optimize",
                      "summary"):
            assert f"{stage}=" in output
        assert f"wrote annotated plan graph to {dot}" in output
        assert "digraph" in dot.read_text(encoding="utf-8")

    def test_explain_metrics_flag(self):
        code, output = run_cli("explain", "$input//person/name",
                               "--metrics")
        assert code == 0
        assert "Stage timings" in output
        for stage in ("parse", "normalize", "rewrite", "optimize"):
            assert stage in output

    def test_generate_member_stdout(self):
        code, output = run_cli("generate", "member", "--size", "30",
                               "--tags", "3")
        assert code == 0
        assert output.startswith("<t01")

    def test_generate_to_file(self, tmp_path):
        path = tmp_path / "out.xml"
        code, output = run_cli("generate", "xmark", "--size", "5",
                               "--output", str(path))
        assert code == 0
        assert "wrote" in output
        from repro import Engine
        engine = Engine.from_file(str(path))
        assert engine.run("count($input//person)") == [5]

    def test_generate_deep(self):
        code, output = run_cli("generate", "deep", "--size", "50",
                               "--depth", "6")
        assert code == 0
        assert output.count("<t1>") >= 5

    def test_generated_documents_queryable(self, tmp_path):
        path = tmp_path / "member.xml"
        run_cli("generate", "member", "--size", "200", "--tags", "3",
                "--seed", "5", "--output", str(path))
        code, output = run_cli("query", "count($input/desc::t02)",
                               "--doc", str(path))
        assert code == 0
        assert int(output.strip()) > 0


class TestVisualize:
    def test_plan_dot(self):
        code, output = run_cli("visualize", "$input//person/name")
        assert code == 0
        assert output.startswith("digraph")
        assert "TupleTreePattern" in output

    def test_pattern_dot(self):
        code, output = run_cli("visualize",
                               "$input//person[emailaddress]/name",
                               "--what", "pattern")
        assert code == 0
        assert 'label="descendant"' in output

    def test_pattern_dot_without_patterns(self):
        code, output = run_cli("visualize", "1 + 1", "--what", "pattern")
        assert code == 1
        assert "no tree patterns" in output


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "x", "--strategy", "warp"])

    def test_sample_document_is_valid(self):
        from repro import Engine
        engine = Engine.from_xml(SAMPLE_DOCUMENT)
        assert len(engine.run("$input//person")) == 2
