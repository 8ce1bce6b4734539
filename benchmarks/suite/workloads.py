"""The six workloads: their documents, queries, sizes and the reason for
each choice.

Everything here goes through the program's façade only — ``Engine``,
``DocumentCatalog``, ``QueryService``, ``ClusterService``,
``QueryRequest``, ``serialize``, ``ExecMetrics`` and the ``repro.data``
generators — so the end-to-end numbers survive a change that merges or
deletes a layer.  Layer internals are imported in ``layers.py`` only.

Load model: every workload is a closed loop (a caller sends its next
request when the previous answer has been serialized).  Callers of this
system block on ``Engine.run`` / ``PendingQuery.result()`` and there is
no network listener, so an open-loop rate sweep waits for a socket
transport.  In-process workloads use one caller; serving workloads use
two callers and two workers, the core count of the reference host.

The serving workloads confine their process tree to one core.  The
sandbox's second core comes and goes with the other tenants: with the
callers, service threads and worker processes spread over both, the
same run varies by 25–45 % (quartile distance over median), pinned to
one by about 10 %.  ``QueryService`` loses nothing (the interpreter
lock lets one thread run at a time; it is a quarter faster pinned);
for ``ClusterService`` the numbers become the total work per request —
coordinator plus workers — not the parallel speed-up, which this
sandbox cannot measure.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from repro import Engine, ExecMetrics, serialize
from repro.bench import generate_variants
from repro.data import (deep_member_document, member_document,
                        xmark_document)
from repro.serve import (ClusterService, DocumentCatalog, QueryRequest,
                         QueryService)

DEFAULT_SEED = 20070415
HOLDOUT_SEED = 19992001

#: Document sizes.  ``full`` is what the numbers are reported on;
#: ``smoke`` only proves that the suite runs.
#:
#: * member_blocks × member_block_nodes, depth 5 under a common root,
#:   6 tags: with the paper's Table-1 shape (depth 4, 100 tags) the
#:   summary prefilter proves QE1–QE6 empty in ~20 µs, so nothing is
#:   measured; with 6 tags every QE query has matches and costs
#:   10–50 ms.  One 20 000-node MemBeR tree makes the work depend on the
#:   seed (its root is a ``t01`` whose subtree is the whole document,
#:   and whether it matches QE1/QE3 flips the answer between 1 KB and
#:   150 KB; QE3 has 0–2 matches).  A forest of 100 independent
#:   200-node trees has the same shape statistics, but every count is
#:   a sum over 100 draws, so seeds differ by a few per cent only.
#: * xmark_persons 400: the smallest size at which the cheapest twig
#:   (XQ13) is above 1 ms of work.
#: * serve_member_blocks 50, serve_xmark_persons 200: the serving
#:   workloads are there for what the services add to an operation, and
#:   they set up three times a run (parse, shard, spawn and warm two
#:   workers), so their documents are half the size.
#: * deep_nodes / depth 15: the paper's §5.3 single-tag document, where
#:   ``(/t1[1])^k`` is selective and the tuple machinery dominates.
#: * join_persons 60: XQ9 is a quadratic value join; 60 persons keeps
#:   it at ~30 ms so it does not swamp the mix.
#: * cold_persons 20: compile_cold must spend its time compiling, so
#:   the document is small enough for execution to be a minor part.
#: * load_persons 15 × load_documents 8: a ~27 KB document loads in
#:   ~30 ms, which gives ≥ 240 samples in an 8 s run; 8 distinct texts
#:   keep the parser from seeing one input only, and a round of 8 is
#:   short enough for the reference kernels to run every 0.3 s.
SIZES = {
    "full": {"member_blocks": 100, "member_block_nodes": 200,
             "xmark_persons": 400,
             "serve_member_blocks": 50, "serve_xmark_persons": 200,
             "deep_nodes": 20000, "join_persons": 60, "cold_persons": 20,
             "load_persons": 15, "load_documents": 8},
    "smoke": {"member_blocks": 15, "member_block_nodes": 200,
              "xmark_persons": 60,
              "serve_member_blocks": 10, "serve_xmark_persons": 40,
              "deep_nodes": 3000, "join_persons": 15, "cold_persons": 10,
              "load_persons": 10, "load_documents": 4},
}

CALLERS = 2   # serving workloads: closed-loop caller threads
WORKERS = 2   # serving workloads: service workers
SHARDS = 2    # serve_cluster: shards per document

# The paper's Table 1 queries (child and descendant twigs; QE2/QE5 are
# positional and compile to per-tuple single-step patterns).
QE = {
    "QE1": "$input/desc::t01[child::t02[child::t03[child::t04]]]",
    "QE2": "$input/desc::t01/child::t02[1]/child::t03[child::t04]",
    "QE3": "$input/desc::t01[child::t02[child::t03]/child::t04[child::t03]]",
    "QE4": "$input/desc::t01[desc::t02[desc::t03[desc::t04]]]",
    "QE5": "$input/desc::t01/desc::t02[1]/desc::t03[desc::t04]",
    "QE6": "$input/desc::t01[desc::t02[desc::t03]/desc::t04[desc::t03]]",
}

# XMark queries adapted to the engine's construction-free fragment
# (same texts as ``repro.bench.xmark_queries``, copied so that an edit
# there does not silently change the benchmark).
XQ = {
    "XQ1": '$input/site/people/person[@id = "person0"]/name',
    "XQ2": "$input/site/open_auctions/open_auction/bidder[1]/increase",
    "XQ3": "$input/site/open_auctions/open_auction[bidder[2]]/current",
    "XQ4": "$input//open_auction[bidder/personref]/itemref",
    "XQ5": "count($input/site/closed_auctions/closed_auction"
           "[price > 40]/price)",
    "XQ6": "count($input/site/regions//item)",
    "XQ7": "count($input//description) + count($input//mail) "
           "+ count($input//annotation)",
    "XQ8": 'count($input//closed_auction[buyer/@person = "person0"])',
    "XQ9": "for $closed in $input//closed_auction "
           "for $item in $input/site/regions/europe/item "
           "where $closed/itemref/@item = $item/@id "
           "return $item/name",
    "XQ13": "$input/site/regions/africa/item/name",
    "XQ14": '$input//item[contains(description, "rare")]/name',
    "XQ15": "$input/site/open_auctions/open_auction/annotation/"
            "description/text()",
    "XQ17": "for $p in $input/site/people/person "
            "where empty($p/emailaddress) return $p/name",
    "XQ19": "$input/site/regions/*/item[location]/name",
    "XQ20": "count($input//profile[@income > 50000]) + "
            "count($input//profile[@income <= 50000])",
}
PERSON_NAMES = "$input//person[emailaddress]/name"
ITEM_NAMES = "$input//item/name"


@dataclass(frozen=True)
class Request:
    """One distinct operation of a workload."""

    document: str
    query: str
    label: str
    #: how often the request occurs in one round of the schedule.
    weight: int = 1
    #: a single-tree-pattern query that must return rows without the
    #: summary prefilter answering it (the real-work assertion).
    pattern: bool = False

    @property
    def key(self) -> str:
        return f"{self.document} {self.label}"


@dataclass
class Inputs:
    """What the seed generates; the program sees only these."""

    texts: Dict[str, str]
    requests: List[Request]

    def round(self) -> List[int]:
        """Request indices of one round, each ``weight`` times."""
        return [index for index, request in enumerate(self.requests)
                for _ in range(request.weight)]


def render(results) -> str:
    """Serialized result text of one answer: nodes as XML, atomic
    values as their string form, one item per line."""
    return "\n".join(
        str(item) if isinstance(item, (str, int, float, bool))
        else serialize(item) for item in results)


# -- document generation -------------------------------------------------


#: document name → (shape, the size that scales it, seed offset).
DOCUMENTS = {
    "member": ("forest", "member_blocks", 0),
    "serve-member": ("forest", "serve_member_blocks", 0),
    "deep": ("deep", "deep_nodes", 0),
    "site": ("xmark", "xmark_persons", 1),
    "serve-site": ("xmark", "serve_xmark_persons", 1),
    "site-join": ("xmark", "join_persons", None),
    "site-cold": ("xmark", "cold_persons", 3),
    **{f"load-{index:02d}": ("xmark", "load_persons", 10 + index)
       for index in range(SIZES["full"]["load_documents"])},
}


def _generate(name: str, seed: int, sizes: Dict[str, int]) -> str:
    shape, size, offset = DOCUMENTS[name]
    if shape == "forest":
        blocks = [serialize(member_document(
            sizes["member_block_nodes"], depth=5, tag_count=6,
            seed=seed * 100003 + index).root)
            for index in range(sizes[size])]
        return "<forest>" + "".join(blocks) + "</forest>"
    if shape == "deep":
        return serialize(deep_member_document(sizes[size], depth=15).root)
    # XQ9's cost is the product of two counts of about thirty, which
    # the seed moves by ±30 %: its document is the same for every seed.
    return serialize(xmark_document(
        sizes[size], seed=HOLDOUT_SEED if offset is None
        else seed + offset).root)


# -- sessions: a set-up system plus the one call that is an operation ------


def _build_indexes(engine: Engine) -> None:
    """Lazy first-use cost belongs to set-up: on a fresh engine the
    first compile builds the summary and the columns (~300 ms against
    ~2 ms afterwards)."""
    engine.document.summary
    engine.document.columns


class EngineSession:
    """In-process engines, one per document; an operation is
    ``Engine.run`` (compile through the plan cache, execute) plus
    serialization."""

    def __init__(self, inputs: Inputs, workdir: str,
                 **engine_options) -> None:
        self.engines = {name: Engine.from_xml(text, **engine_options)
                        for name, text in inputs.texts.items()}
        for engine in self.engines.values():
            _build_indexes(engine)

    def engine(self, document: str) -> Engine:
        return self.engines[document]

    def run(self, request: Request) -> str:
        return render(self.engines[request.document].run(request.query))

    def close(self) -> None:
        self.engines.clear()


class LoadSession:
    """No standing state: an operation builds an engine from XML text,
    queries it, saves the columnar file, opens the file and queries
    again; both answers must be byte-identical."""

    def __init__(self, inputs: Inputs, workdir: str) -> None:
        self.texts = inputs.texts
        self.path = os.path.join(workdir, "load.rpxc")

    def engine(self, document: str) -> Engine:
        return Engine.from_xml(self.texts[document])

    def run(self, request: Request) -> str:
        engine = self.engine(request.document)
        first = render(engine.run(request.query))
        engine.document.save(self.path)
        reopened = Engine.from_columnar_file(self.path)
        try:
            second = render(reopened.run(request.query))
        finally:
            reopened.document.close()
        if first != second:
            raise AssertionError(
                f"{request.key}: answer from the saved file differs")
        return second

    def close(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)


class ServiceSession:
    """A catalog behind ``QueryService`` (threads) or ``ClusterService``
    (worker processes over shard files); an operation is
    ``submit(...).result()`` plus serialization."""

    def __init__(self, inputs: Inputs, workdir: str,
                 cluster: bool) -> None:
        self.cluster = cluster
        self.catalog = DocumentCatalog()
        for name, text in inputs.texts.items():
            self.catalog.add_xml(name, text)
            _build_indexes(self.catalog.engine(name))
        if cluster:
            self.service = ClusterService.from_catalog(
                self.catalog, directory=os.path.join(workdir, "shards"),
                shard_count=SHARDS, workers=WORKERS)
        else:
            self.service = QueryService(self.catalog, workers=WORKERS)

    def engine(self, document: str) -> Engine:
        return self.catalog.engine(document)

    def run(self, request: Request) -> str:
        pending = self.service.submit(
            QueryRequest(document=request.document, query=request.query))
        return render(pending.result())

    def close(self) -> None:
        self.service.close()


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: what one operation is, for the report.
    operation: str
    #: documents and requests; empty for doc_load, which asks one
    #: query of ``load_documents`` generated texts.
    documents: List[str]
    requests: List[Request]
    session: Callable[[Inputs, str], object]
    callers: int = 1
    #: plans are compiled on every operation (plan cache off).
    cold: bool = False
    #: confine the process, and the workers it spawns, to one core.
    one_core: bool = False
    #: extra check run once per set-up, after the session exists.
    pin: Optional[Callable[[object], None]] = None

    def inputs(self, seed: int, sizes: Dict[str, int]) -> Inputs:
        names, requests = self.documents, self.requests
        if not requests:
            names = [f"load-{index:02d}"
                     for index in range(sizes["load_documents"])]
            requests = [Request(name, PERSON_NAMES, "person-names")
                        for name in names]
        return Inputs(texts={name: _generate(name, seed, sizes)
                             for name in names}, requests=requests)

    def schedule(self, inputs: Inputs, seed: int, caller: int):
        """An endless stream of rounds for one caller: every round
        holds the same requests, in an order drawn from the seed."""
        rng = random.Random(seed * 1009 + caller)
        order = inputs.round()
        while True:
            rng.shuffle(order)
            yield list(order)


def _twig(document: str, label: str, query: str, weight: int = 1) -> Request:
    return Request(document, query, label, weight=weight, pattern=True)


PATTERN_REQUESTS = [
    _twig("member", name, QE[name]) for name in ("QE1", "QE3", "QE4", "QE6")
] + [
    _twig("site", name, XQ[name]) for name in ("XQ4", "XQ13", "XQ15", "XQ19")
] + [_twig("site", "person-names", PERSON_NAMES)]

FLWOR_REQUESTS = [
    # Positional predicates: per-tuple single-step patterns plus the
    # index bookkeeping of the tuple operators.
    Request("member", QE["QE2"], "QE2"),
    Request("member", QE["QE5"], "QE5"),
] + [
    # §5.3: k navigation steps, each a pattern evaluated per tuple.  The
    # paper's k = 15 is left out: its one compile per set-up takes 5.6 s
    # (``rewrite_to_tpnf`` is exponential in k: 6, 68, 290, 5600 ms for
    # k = 5, 10, 12, 15), more than three set-ups a run can afford.
    # k = 12 keeps that cost visible in ``setup_s``.
    Request("deep", "$input" + "/t1[1]" * k, f"chain-{k}")
    for k in (5, 10, 12)
] + [
    # Positional, aggregate, FLWOR and value-comparison plans.
    Request("site", XQ[name], name)
    for name in ("XQ2", "XQ3", "XQ5", "XQ8", "XQ14", "XQ17", "XQ20")
] + [Request("site-join", XQ["XQ9"], "XQ9")]

# Twenty §5.1 spellings of one path, QE1–QE6 and the XMark catalog
# without XQ9 (its execution would outweigh compilation): forty
# requests of about 2 ms.  Alone, their upper 5 % is whatever stalls of
# the shared host add to a 2 ms operation, and ``latency_p95_ms``
# varied by 38 % over ten seeds.  So four operations in 44 compile an
# eight-step positional chain (20 ms: ``rewrite_to_tpnf`` is exponential
# in the number of steps), which puts the 95th percentile in the middle
# of a group of its own, far above the stalls.
COLD_REQUESTS = [
    Request("site-cold", query, f"variant-{index:02d}")
    for index, query in enumerate(generate_variants())
] + [
    Request("site-cold", query, name) for name, query in QE.items()
] + [
    Request("site-cold", query, name) for name, query in XQ.items()
    if name != "XQ9"
] + [Request("site-cold", "$input" + "/*[1]" * 8, "chain-8", weight=4)]

# One mix for both serving workloads, twenty requests a round: 80 %
# downward result-heavy paths, which a cluster scatters over its shards
# (QE4 and QE6 too: the forest's root is not a ``t01``), 20 %
# whole-document queries (aggregates and positional plans).  The
# measured share is ``serve.cluster.scattered_ratio``.  Sixteen of the
# twenty are light (1–8 ms alone), four heavy (15–50 ms): with two
# callers an operation is slowed by whatever the other caller runs, so
# each group is smeared over a 5× range, and the median and the 95th
# percentile are steady only well inside a group — the median at the
# 10th of 16 light ones, the 95th percentile at the 3rd of 4 heavy.
SERVE_REQUESTS = [
    _twig("serve-site", "item-names", ITEM_NAMES, weight=6),
    _twig("serve-site", "person-names", PERSON_NAMES, weight=5),
    _twig("serve-site", "XQ4", XQ["XQ4"], weight=3),
    _twig("serve-member", "QE4", QE["QE4"]),
    _twig("serve-member", "QE6", QE["QE6"]),
    Request("serve-site", XQ["XQ6"], "XQ6"),
    Request("serve-site", XQ["XQ2"], "XQ2"),
    Request("serve-site", XQ["XQ5"], "XQ5"),
    Request("serve-member", QE["QE2"], "QE2"),
]


def _pin_one_plan(session: EngineSession) -> None:
    """§5.1: the twenty spellings compile to one plan."""
    engine = session.engine("site-cold")
    variants = generate_variants()
    plans = {engine.compile(query).canonical_plan() for query in variants}
    if len(variants) != 20 or len(plans) != 1:
        raise AssertionError(
            f"{len(variants)} spellings gave {len(plans)} plans, "
            f"expected 20 and 1")


WORKLOADS = {workload.name: workload for workload in [
    Workload(
        name="pattern_warm",
        why="cached twig plans on warm engines: the physical pattern "
            "algorithms and the document read side do the work, "
            "compile and serving do none",
        operation="Engine.run of one single-tree-pattern query + "
                  "serialize",
        documents=["member", "site"],
        requests=PATTERN_REQUESTS, session=EngineSession),
    Workload(
        name="flwor_warm",
        why="cached positional, aggregate, FLWOR and join plans: tuple "
            "operators, ddo and per-tuple single-step patterns "
            "dominate, so whole-pattern kernels are bypassed",
        operation="Engine.run of one tuple-heavy query + serialize",
        documents=["member", "deep", "site", "site-join"],
        requests=FLWOR_REQUESTS, session=EngineSession),
    Workload(
        name="compile_cold",
        why="plan cache off on a small document: parse, normalize, "
            "TPNF rewrite, compile and optimize do the work and "
            "execution little",
        operation="Engine.run (compile + execute) with the plan cache "
                  "off + serialize",
        documents=["site-cold"], requests=COLD_REQUESTS,
        session=partial(EngineSession, plan_cache_size=0), cold=True,
        pin=_pin_one_plan),
    Workload(
        name="doc_load",
        why="XML text to engine to saved columnar file and back: "
            "builds what the warm workloads read, so a read-side gain "
            "paid for at build time shows here",
        operation="Engine.from_xml + query + save .rpxc + "
                  "Engine.from_columnar_file + same query",
        documents=[], requests=[], session=LoadSession),
    Workload(
        name="serve_threads",
        why="the warm execution work behind QueryService threads: adds "
            "admission, queue hand-off and interpreter-lock contention "
            "between two callers",
        operation="QueryService.submit(...).result() + serialize",
        documents=["serve-member", "serve-site"], requests=SERVE_REQUESTS,
        session=partial(ServiceSession, cluster=False),
        callers=CALLERS, one_core=True),
    Workload(
        name="serve_cluster",
        why="the same mix and schedule behind ClusterService worker "
            "processes: adds frame encode, pipes, scatter and k-way "
            "merge, which serve_threads bypasses",
        operation="ClusterService.submit(...).result() + serialize",
        documents=["serve-member", "serve-site"], requests=SERVE_REQUESTS,
        session=partial(ServiceSession, cluster=True),
        callers=CALLERS, one_core=True),
]}


def check_real_work(session, requests: List[Request]) -> None:
    """Every pattern request returns rows and the summary prefilter
    answers none of it (guards against the Table-1 configuration, where
    all six QE queries are proven empty in ~20 µs)."""
    for request in requests:
        if not request.pattern:
            continue
        engine = session.engine(request.document)
        metrics = ExecMetrics()
        rows = engine.execute(engine.compile(request.query),
                              metrics=metrics)
        if not rows or metrics.prune_hits:
            raise AssertionError(
                f"{request.key}: {len(rows)} rows, {metrics.prune_hits} "
                f"evaluations answered by the summary prefilter; the "
                f"request does no real work")
