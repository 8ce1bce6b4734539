"""The document builder against a tree builder this repository did not
write.

:mod:`repro.xmltree.parser` and ``xml.etree.ElementTree`` read XML with
the same tokeniser, expat, so this is not a second opinion on what is
well-formed: it checks what each builds from expat's events.  A seeded
corpus of well-formed documents goes through ``parse_xml`` (the columns
and the nodes made from them) and through ElementTree's ``TreeBuilder``,
and the two must agree on every element's tag, attributes and text/tail
sequence.  A mutation fuzzer then damages those texts one character at
a time: whatever comes out, ``parse_xml`` returns a tree or raises a
:class:`~repro.guard.errors.ReproError` — nothing else — it accepts no
mutant ElementTree refuses, and where both accept it the trees agree.

What the comparison leaves out is counted and printed (``pytest -s``):
ElementTree reads entity declarations, which this parser refuses, and
expands namespaces, which this parser keeps lexical.
"""

import random
import xml.etree.ElementTree as ET

from repro.guard.errors import ReproError
from repro.xmltree import parse_xml
from repro.xmltree.node import ElementNode, TextNode

SEED = 20070415
DOCUMENTS = 120
MUTANTS_PER_DOCUMENT = 100

_TAGS = ["a", "b", "item", "x1", "n-m", "p.q", "_u", "élan"]
_ATTRIBUTES = ["id", "k", "lang", "data-x", "_v"]
_VALUES = ["", "v", "two words", "&amp;", "&lt;&gt;", "&#65;", "&#x42;",
           "it's", "é"]
_TEXTS = ["t", " ", "\n  ", "mixed words", "&amp;", "&lt;b&gt;", "&#65;",
          "&#x10FFFF;", "&quot;q&apos;", "a > b", "é"]
_INSERTS = ["<!-- note -->", "<?pi data?>", "<![CDATA[<raw> & ]]>",
            "<![CDATA[]]>"]
_PROLOGS = ["", "<?xml version='1.0'?>", "<?xml version='1.0'?>\n<!-- c -->",
            "<!DOCTYPE a>\n", "<!DOCTYPE a [<!ELEMENT a ANY>]>", "<!--c-->"]
_MUTATION_ALPHABET = "<>/=\"'&;!?-[] \nax"


def generate(rng: random.Random, depth: int = 0) -> str:
    tag = rng.choice(_TAGS)
    names = rng.sample(_ATTRIBUTES, rng.randrange(0, 4))
    attributes = ""
    for name in names:
        quote = rng.choice("\"'")
        value = rng.choice(_VALUES).replace(
            quote, "&quot;" if quote == '"' else "&apos;")
        attributes += f"{rng.choice([' ', '  ', chr(10)])}{name}" \
                      f"{rng.choice(['=', ' = '])}{quote}{value}{quote}"
    if depth >= 4 or rng.random() < 0.25:
        return f"<{tag}{attributes}{rng.choice(['/>', ' />'])}"
    parts = []
    for _ in range(rng.randrange(0, 5)):
        roll = rng.random()
        if roll < 0.5:
            parts.append(generate(rng, depth + 1))
        elif roll < 0.85:
            parts.append(rng.choice(_TEXTS))
        else:
            parts.append(rng.choice(_INSERTS))
    return f"<{tag}{attributes}>{''.join(parts)}" \
           f"</{tag}{rng.choice(['', ' '])}>"


def corpus() -> list:
    rng = random.Random(SEED)
    return [rng.choice(_PROLOGS) + generate(rng)
            + rng.choice(["", "\n", "<!-- tail -->", "<?end?>"])
            for _ in range(DOCUMENTS)]


def mutate(rng: random.Random, text: str) -> str:
    at = rng.randrange(len(text))
    kind = rng.randrange(4)
    if kind == 0:
        return text[:at] + text[at + 1:]
    if kind == 1:
        return text[:at] + text[at] + text[at:]
    if kind == 2:
        return text[:at] + rng.choice(_MUTATION_ALPHABET) + text[at + 1:]
    return text[:at]


def our_shape(element: ElementNode):
    texts, children = [""], []
    for child in element.children:
        if isinstance(child, TextNode):
            texts[-1] += child.text
        else:
            children.append(our_shape(child))
            texts.append("")
    return (element.name, {attribute.name: attribute.value
                           for attribute in element.attributes},
            texts, children)


def oracle_shape(element: ET.Element):
    return (element.tag, dict(element.attrib),
            [element.text or ""] + [child.tail or "" for child in element],
            [oracle_shape(child) for child in element])


def outside_the_subset(text: str) -> str:
    """Why expat and this parser may read ``text`` differently."""
    if "<!ENTITY" in text or "<!ATTLIST" in text:
        return "dtd-declarations"
    if "xmlns" in text or ":" in text:
        return "namespaces"
    return ""


def test_generated_documents_agree_with_elementtree():
    for text in corpus():
        assert not outside_the_subset(text)
        ours = our_shape(parse_xml(text).document_element)
        assert ours == oracle_shape(ET.fromstring(text)), text


def test_mutants_parse_or_raise_typed_and_agree_where_expat_accepts():
    rng = random.Random(SEED + 1)
    counts = {"mutants": 0, "both-accept": 0, "both-reject": 0,
              "only-ours-accepts": 0}
    skipped = {}
    for text in corpus():
        for _ in range(MUTANTS_PER_DOCUMENT):
            mutant = mutate(rng, text)
            counts["mutants"] += 1
            try:
                ours = parse_xml(mutant)
            except ReproError as err:
                assert err.code == "REPRO-XML-SYNTAX", mutant
                ours = None
            # Any other exception type propagates and fails the test.
            try:
                oracle = ET.fromstring(mutant)
            except ET.ParseError:
                counts["both-reject" if ours is None
                       else "only-ours-accepts"] += 1
                continue
            reason = outside_the_subset(mutant)
            if reason:
                skipped[reason] = skipped.get(reason, 0) + 1
                continue
            assert ours is not None, mutant
            assert our_shape(ours.document_element) == \
                oracle_shape(oracle), mutant
            counts["both-accept"] += 1
    print(f"xml oracle: {counts}; skipped {skipped or 'none'}")
    assert counts["both-accept"] >= 100
    assert counts["both-reject"] >= 500
    assert counts["only-ours-accepts"] == 0
