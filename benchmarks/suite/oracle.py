"""Expected outputs the optimizing engine did not write alone.

Three sources, all compared by CRC-32 and length of the serialized
answer:

* ``expected/<workload>.<seed>.json`` — committed digests for the
  default and the hold-out seed, written by ``run.py --write-expected``
  only after the two oracles below agreed with the engine;
* :func:`item_digests` — for any other seed, the engine's *unoptimized*
  plan on the item evaluator: no TPNF rewrite, no tree pattern, no
  physical algorithm;
* :func:`check_against_etree` — for child/descendant twig queries, a
  forty-line matcher over the standard library's ``ElementTree``, which
  shares no parser, numbering or axis code with the program.
"""

from __future__ import annotations

import json
import os
import re
import xml.etree.ElementTree as ET
import zlib
from typing import Dict, List, Optional, Tuple

from repro import Engine

from workloads import Inputs, render

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")

Digest = Dict[str, int]


def digest(text: str) -> Digest:
    data = text.encode("utf-8")
    return {"crc32": zlib.crc32(data), "length": len(data)}


def _inputs_digest(inputs: Inputs) -> Digest:
    return digest("\0".join(f"{name}\0{text}" for name, text
                            in sorted(inputs.texts.items())))


def expected_path(workload: str, seed: int) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload}.{seed}.json")


def load_expected(workload: str, seed: int,
                  inputs: Inputs) -> Optional[Dict[str, Digest]]:
    """The committed digests, or ``None`` when there are none for this
    seed or they were recorded for other input bytes (a generator whose
    output changed must not turn into a wave of false mismatches)."""
    path = expected_path(workload, seed)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if recorded["inputs"] != _inputs_digest(inputs):
        return None
    return recorded["answers"]


def write_expected(workload: str, seed: int, inputs: Inputs,
                   answers: Dict[str, Digest]) -> str:
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    path = expected_path(workload, seed)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "inputs": _inputs_digest(inputs),
                   "answers": answers}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def item_digests(inputs: Inputs) -> Dict[str, Digest]:
    """Digest of every request's answer from the unoptimized plan."""
    engines: Dict[str, Engine] = {}
    answers = {}
    for request in inputs.requests:
        engine = engines.get(request.document)
        if engine is None:
            engine = engines[request.document] = Engine.from_xml(
                inputs.texts[request.document])
        answers[request.key] = digest(render(engine.run(
            request.query, strategy="item", optimize=False)))
    return answers


# -- ElementTree twig oracle -------------------------------------------------

Step = Tuple[str, str, list]   # (axis, name test, predicate paths)

_TOKEN = re.compile(r"\s*(//|/|\[|\]|child::|desc::|\*|[A-Za-z_][\w.-]*)")


def parse_twig(query: str) -> Optional[List[Step]]:
    """Steps of ``$input`` followed by child/descendant steps with
    name tests or ``*`` and nested path predicates; ``None`` for
    anything else (positions, attributes, text(), functions, FLWOR)."""
    if not query.startswith("$input"):
        return None
    tokens, position, text = [], 0, query[len("$input"):]
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            return None
        tokens.append(match.group(1))
        position = match.end()
    tokens.append("")

    def path(index: int, relative: bool):
        steps: List[Step] = []
        while True:
            axis = "child"
            if tokens[index] in ("/", "//"):
                axis = "child" if tokens[index] == "/" else "desc"
                index += 1
            elif not (relative and not steps):
                break
            if tokens[index] in ("child::", "desc::"):
                if axis == "desc":
                    return None
                axis = tokens[index][:-2]
                index += 1
            name = tokens[index]
            if not (name == "*" or re.fullmatch(r"[A-Za-z_][\w.-]*", name)):
                return None
            index += 1
            predicates = []
            while tokens[index] == "[":
                inner = path(index + 1, relative=True)
                if inner is None or tokens[inner[1]] != "]":
                    return None
                predicates.append(inner[0])
                index = inner[1] + 1
            steps.append((axis, name, predicates))
        return (steps, index) if steps else None

    parsed = path(0, relative=False)
    if parsed is None or tokens[parsed[1]] != "":
        return None
    return parsed[0]


def _select(contexts, steps: List[Step], order: Dict[int, int]):
    for axis, name, predicates in steps:
        found = {}
        for context in contexts:
            candidates = list(context) if axis == "child" \
                else list(context.iter())[1:]
            for element in candidates:
                if name != "*" and element.tag != name:
                    continue
                if all(_select([element], predicate, order)
                       for predicate in predicates):
                    found[order[id(element)]] = element
        contexts = [found[index] for index in sorted(found)]
        if not contexts:
            break
    return contexts


def _canonical(text: str) -> str:
    return ET.canonicalize(f"<r>{text}</r>")


def check_against_etree(inputs: Inputs,
                        answers: Dict[str, str]) -> List[str]:
    """Compare ``answers`` (request key → serialized answer) with the
    ElementTree matcher on every request it can parse; returns the keys
    it checked and raises on a difference."""
    trees: Dict[str, tuple] = {}
    checked = []
    for request in inputs.requests:
        steps = parse_twig(request.query)
        if steps is None:
            continue
        if request.document not in trees:
            holder = ET.Element("document-node")
            holder.append(ET.fromstring(inputs.texts[request.document]))
            trees[request.document] = (
                holder, {id(element): index for index, element
                         in enumerate(holder.iter())})
        holder, order = trees[request.document]
        chunks = []
        for element in _select([holder], steps, order):
            tail, element.tail = element.tail, None
            chunks.append(ET.tostring(element, encoding="unicode"))
            element.tail = tail
        if _canonical("\n".join(chunks)) != _canonical(answers[request.key]):
            raise AssertionError(
                f"{request.key}: the engine's answer differs from "
                f"xml.etree.ElementTree's for {request.query}")
        checked.append(request.key)
    return checked
