"""One document in both stores, for suites that run on each."""

from __future__ import annotations

import os
from typing import Dict

from repro.xmltree import IndexedDocument


def both_stores(document: IndexedDocument,
                directory) -> Dict[str, IndexedDocument]:
    """``document`` as it is (the object store) and saved to
    ``directory`` + mmap-opened back (the columnar store); the caller
    owns the directory and closes the opened document."""
    path = os.path.join(directory, "document.rpxc")
    document.save(path)
    return {"object": document, "columnar": IndexedDocument.open(path)}
