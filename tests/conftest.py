"""Shared fixtures: sample documents and engines."""

from __future__ import annotations

import pytest

from repro import Engine, IndexedDocument
from repro.data import member_document, xmark_document
from repro.obs import PlanCache

PEOPLE_XML = """<site><people>
<person id="p1"><name>John</name><emailaddress>j@x</emailaddress>
<profile><interest category="art"/><interest category="music"/></profile></person>
<person id="p2"><name>Mary</name>
<profile><interest category="music"/></profile></person>
<person id="p3"><name>John</name><emailaddress>j2@x</emailaddress></person>
<person id="p4"><name>Ada</name><emailaddress>ada@x</emailaddress>
<profile/></person>
</people></site>"""

NESTED_XML = """<doc>
<a id="1"><b><a id="2"><c>x</c></a></b><c>y</c></a>
<a id="3"><c>z</c></a>
</doc>""".replace("\n", "")

MIXED_XML = ("<r><person><name>outer</name><person><name>inner</name>"
             "</person><name>outer2</name></person></r>")


@pytest.fixture(autouse=True)
def empty_plan_stores():
    """Compiled plans are shared by every engine in the process: start
    each test with empty stores, so none depends on test order."""
    PlanCache.clear_all()


@pytest.fixture(scope="session")
def people_doc() -> IndexedDocument:
    return IndexedDocument.from_string(PEOPLE_XML)


@pytest.fixture(scope="session")
def people_engine(people_doc) -> Engine:
    return Engine(people_doc)


@pytest.fixture(scope="session")
def nested_doc() -> IndexedDocument:
    return IndexedDocument.from_string(NESTED_XML)


@pytest.fixture(scope="session")
def nested_engine(nested_doc) -> Engine:
    return Engine(nested_doc)


@pytest.fixture(scope="session")
def mixed_engine() -> Engine:
    return Engine.from_xml(MIXED_XML)


@pytest.fixture(scope="session")
def small_member_doc() -> IndexedDocument:
    return member_document(600, depth=5, tag_count=4, seed=7)


@pytest.fixture(scope="session")
def small_xmark_doc() -> IndexedDocument:
    return xmark_document(40, seed=11)


def string_values(sequence):
    """Helper: render a result sequence for comparisons."""
    out = []
    for item in sequence:
        if hasattr(item, "string_value"):
            out.append(item.string_value())
        else:
            out.append(item)
    return out


def pres(sequence):
    """Helper: node identities (pre numbers) of a result sequence."""
    return [item.pre for item in sequence]
