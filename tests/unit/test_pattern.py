"""Tree pattern structure, parsing, printing and merge operations."""

import pytest

from repro.pattern import (PatternError, PatternPath, PatternStep,
                           TreePattern, parse_pattern, single_step_pattern)
from repro.xmltree.axes import Axis
from repro.xmltree.nodetest import NameTest


PAPER_EXAMPLE = "IN#x/descendant::a/child::c{y}[@id]/child::d{z}"


class TestParsing:
    def test_paper_section_41_example(self):
        pattern = parse_pattern(PAPER_EXAMPLE)
        assert pattern.input_field == "x"
        steps = pattern.path.steps
        assert [step.axis for step in steps] == [
            Axis.DESCENDANT, Axis.CHILD, Axis.CHILD]
        assert steps[1].output_field == "y"
        assert steps[2].output_field == "z"
        assert len(steps[1].predicates) == 1
        branch = steps[1].predicates[0]
        assert branch.steps[0].axis is Axis.ATTRIBUTE
        assert branch.steps[0].test == NameTest("id")

    def test_round_trip(self):
        for text in (
                "IN#dot/descendant::person[child::emailaddress]/child::name{out}",
                PAPER_EXAMPLE,
                "IN#a/child::b{o}",
                "IN#a/descendant::b[child::c[child::d]]{o}",
        ):
            pattern = parse_pattern(text)
            assert parse_pattern(pattern.to_string()).to_string() \
                == pattern.to_string()

    def test_abbreviated_child_step(self):
        pattern = parse_pattern("IN#dot/person{o}")
        assert pattern.path.steps[0].axis is Axis.CHILD

    def test_axis_aliases(self):
        pattern = parse_pattern("IN#dot/desc::a{o}")
        assert pattern.path.steps[0].axis is Axis.DESCENDANT

    def test_kind_test(self):
        pattern = parse_pattern("IN#dot/dos::node(){o}")
        assert pattern.path.steps[0].test.to_string() == "node()"

    @pytest.mark.parametrize("bad", [
        "dot/child::a",       # missing IN#
        "IN#dot",             # no path
        "IN#dot/child::a[",   # unterminated predicate
        "IN#dot/child::a{x",  # unterminated output
        "IN#dot/side::a",     # unknown axis
    ])
    def test_malformed(self, bad):
        with pytest.raises((PatternError, ValueError)):
            parse_pattern(bad)

    @pytest.mark.parametrize("bad,offending", [
        # two fields on one step: no evaluator binds the first
        ("IN#x/descendant::a{y}{z}", 21),
        # one field bound twice on the main path
        ("IN#x/descendant::a{y}/child::c{y}", 30),
        # a field in a predicate branch: branches only assert existence
        ("IN#x/descendant::a{y}[child::b{w}]", 30),
        # a branch after a position: a step applies its branches first,
        # so ``a[1][b]`` would read as ``a[b][1]``
        ("IN#x/child::r/child::a[1][child::b]{o}", 25),
        # a second position: ``a[1][2]`` would read as ``a[2]``
        ("IN#x/child::a[1][2]{o}", 16),
    ])
    def test_annotation_no_evaluator_honours(self, bad, offending):
        assert bad[offending] in "{["
        with pytest.raises(PatternError) as raised:
            parse_pattern(bad)
        assert raised.value.code == "REPRO-PATTERN"
        assert f"at offset {offending} " in str(raised.value)


class TestStructure:
    def test_extraction_point(self):
        pattern = parse_pattern(PAPER_EXAMPLE)
        assert pattern.extraction_point.test == NameTest("d")

    def test_output_fields_in_lexical_order(self):
        pattern = parse_pattern(PAPER_EXAMPLE)
        assert pattern.output_fields() == ["y", "z"]

    def test_single_output_check(self):
        single = parse_pattern("IN#d/descendant::a/child::b{o}")
        assert single.is_single_output_at_extraction_point()
        multi = parse_pattern(PAPER_EXAMPLE)
        assert not multi.is_single_output_at_extraction_point()
        inner = parse_pattern("IN#d/descendant::a{o}/child::b")
        assert not inner.is_single_output_at_extraction_point()

    def test_is_downward(self):
        assert parse_pattern("IN#d/descendant::a/child::b{o}").is_downward()
        assert parse_pattern("IN#d/child::a[@id]{o}").is_downward()
        not_down = TreePattern("d", PatternPath((PatternStep(
            Axis.PARENT, NameTest("a"), (), "o"),)))
        assert not not_down.is_downward()


class TestMerging:
    def test_append_path_rule_d(self):
        inner = parse_pattern(
            "IN#in/descendant::person[child::emailaddress]{dot}")
        outer = parse_pattern("IN#dot/child::name{out}")
        merged = inner.append_path(outer.path, "out")
        assert merged.to_string() == (
            "IN#in/descendant::person[child::emailaddress]/child::name{out}")

    def test_append_multi_step_path(self):
        inner = parse_pattern("IN#in/child::site{a}")
        outer = parse_pattern("IN#a/child::people/child::person{out}")
        merged = inner.append_path(outer.path, "out")
        assert merged.to_string() == (
            "IN#in/child::site/child::people/child::person{out}")

    def test_add_predicates_rule_e(self):
        spine = parse_pattern("IN#in/descendant::person{dot}")
        branch = parse_pattern("IN#dot/child::emailaddress{tmp}")
        merged = spine.add_predicates([branch.path])
        assert merged.to_string() == (
            "IN#in/descendant::person{dot}[child::emailaddress]")
        # output annotations inside branches are stripped
        assert merged.output_fields() == ["dot"]

    def test_single_step_constructor(self):
        pattern = single_step_pattern("dot", Axis.CHILD, NameTest("a"), "o")
        assert pattern.to_string() == "IN#dot/child::a{o}"
        assert pattern.is_single_output_at_extraction_point()

    def test_merge_preserves_immutability(self):
        inner = parse_pattern("IN#in/descendant::person{dot}")
        before = inner.to_string()
        inner.append_path(parse_pattern("IN#dot/child::a{o}").path, "o")
        inner.add_predicates([parse_pattern("IN#dot/child::b{t}").path])
        assert inner.to_string() == before
