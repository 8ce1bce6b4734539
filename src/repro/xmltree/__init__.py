"""XML data model substrate: nodes, parsing, axes and document indexes."""

from .axes import Axis, axis_from_string, axis_nodes, step
from .builder import E, build_document, write_xml
from .columnar import (ColumnarDocument, StorageError, is_columnar_file,
                       KIND_ATTRIBUTE, KIND_DOCUMENT, KIND_ELEMENT,
                       KIND_TEXT)
from .document import IndexedDocument, ddo, document_order, is_distinct_doc_ordered
from .node import (AttributeNode, DocumentNode, ElementNode, Node, TextNode,
                   assign_regions)
from .nodetest import (ANY_ELEMENT, ANY_NODE, AnyKindTest, ElementTest,
                       NameTest, NodeTest, TextTest, WildcardTest, name_test)
from .parser import XMLSyntaxError, parse_xml, parse_xml_file
from .serializer import serialize
from .shard import (DocumentShard, ShardManifest, ShardRun, split_document,
                    write_shard_layout)
from .summary import PathStats, PathSummary, SUMMARY_AXES

__all__ = [
    "Axis", "axis_from_string", "axis_nodes", "step",
    "E", "build_document", "write_xml",
    "ColumnarDocument", "StorageError", "is_columnar_file",
    "KIND_ATTRIBUTE", "KIND_DOCUMENT", "KIND_ELEMENT", "KIND_TEXT",
    "IndexedDocument", "ddo", "document_order", "is_distinct_doc_ordered",
    "AttributeNode", "DocumentNode", "ElementNode", "Node", "TextNode",
    "assign_regions",
    "ANY_ELEMENT", "ANY_NODE", "AnyKindTest", "ElementTest", "NameTest",
    "NodeTest", "TextTest", "WildcardTest", "name_test",
    "XMLSyntaxError", "parse_xml", "parse_xml_file",
    "serialize",
    "DocumentShard", "ShardManifest", "ShardRun", "split_document",
    "write_shard_layout",
    "PathStats", "PathSummary", "SUMMARY_AXES",
]
