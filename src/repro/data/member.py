"""MemBeR-style synthetic documents.

The paper's micro-benchmark documents are characterised by three knobs:
total node count, tree depth and number of distinct tags (uniformly
distributed).  Two shapes are needed:

* :func:`member_document` — the Table 1 documents: bounded depth
  (depth 4 in the paper), many tags (100), sizes from ~2 MB to ~11 MB;
* :func:`deep_member_document` — the Section 5.3 document: a single
  tag (``t1``), 50,000 nodes, depth 15 (a roughly binary tree), on
  which ``(/t1[1])^k`` is highly selective.

Both are deterministic for a given seed, and both build an
:class:`~repro.xmltree.builder.E` tree that is written as XML text and
parsed into columns: a generator makes no node object.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List

from ..xmltree.builder import E, build_document
from ..xmltree.document import IndexedDocument


def tag_name(index: int) -> str:
    """The i-th tag name (1-based): t01, t02, ..."""
    return f"t{index:02d}"


def member_document(node_count: int, depth: int = 4, tag_count: int = 100,
                    seed: int = 20070415) -> IndexedDocument:
    """A bounded-depth random tree with uniformly distributed tags.

    Every new element picks a uniformly random parent among the existing
    elements of depth < ``depth``; tags are drawn uniformly from
    ``t01..t{tag_count}``.  The root always exists and carries ``t01``
    so that rooted queries like the paper's QE1–QE6 (which all start at
    ``desc::t01``) have matches.
    """
    if node_count < 1:
        raise ValueError("node_count must be at least 1")
    rng = random.Random(seed)
    root = E(tag_name(1))
    eligible: List[E] = [root]
    depths = {id(root): 1}
    for _ in range(node_count - 1):
        parent = eligible[rng.randrange(len(eligible))]
        element = E(tag_name(rng.randint(1, tag_count)))
        parent.children.append(element)
        element_depth = depths[id(parent)] + 1
        depths[id(element)] = element_depth
        if element_depth < depth:
            eligible.append(element)
    return build_document(root)


def deep_member_document(node_count: int = 50_000, depth: int = 15,
                         tag: str = "t1") -> IndexedDocument:
    """A deep single-tag tree (the Section 5.3 document).

    Builds a complete b-ary tree whose branching factor is chosen so the
    tree reaches (approximately) the requested depth at the requested
    size — for 50,000 nodes and depth 15 that is a binary tree.  The
    first-child chain from the root has length ``depth``, so
    ``(/t1[1])^k`` navigates k levels while the index-based algorithms
    scan the (single) 50,000-element tag stream at every step.
    """
    if node_count < 1:
        raise ValueError("node_count must be at least 1")
    branching = _branching_for(node_count, depth)
    root = E(tag)
    created = 1
    # First lay down the first-child chain so the advertised depth (and
    # the ``(/t1[1])^k`` navigation path) always exists.
    chain: List[E] = [root]
    node = root
    while len(chain) < depth and created < node_count:
        child = E(tag)
        node.children.append(child)
        chain.append(child)
        node = child
        created += 1
    # Then fill breadth-first up to the branching factor, never exceeding
    # the depth bound.
    queue: deque[tuple[E, int]] = deque(
        (chain_node, level + 1) for level, chain_node in enumerate(chain))
    while created < node_count and queue:
        parent, level = queue.popleft()
        if level >= depth:
            continue
        while len(parent.children) < branching and created < node_count:
            child = E(tag)
            parent.children.append(child)
            queue.append((child, level + 1))
            created += 1
    return build_document(root)


def _branching_for(node_count: int, depth: int) -> int:
    """Smallest branching factor b with 1 + b + ... + b^(depth-1) ≥ n."""
    for branching in range(2, 64):
        total = 0
        power = 1
        for _ in range(depth):
            total += power
            power *= branching
            if total >= node_count:
                break
        if total >= node_count:
            return branching
    return 64


def approximate_size_bytes(document: IndexedDocument) -> int:
    """Rough serialized size (for labelling results like the paper's
    2.1 MB / 4.3 MB / ... columns)."""
    # An element serializes to roughly "<tNN></tNN>" = 11 bytes; the
    # tag streams count them without making a node.
    return sum((2 * (len(tag) + 2) + 1) * len(pres)
               for tag, pres in document.tag_pres.items())
