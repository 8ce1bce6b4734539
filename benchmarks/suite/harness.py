"""Set-up, the closed loop and the end-to-end metrics.

Latency is timed at the caller with ``perf_counter`` — query text in,
serialized result text out — and every raw sample is kept; the
program's own histograms (``ServiceStats``, ``LoadReport``) report
bucket edges and are not used.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import oracle
from workloads import Inputs, Request, Workload, check_real_work

#: set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: untimed rounds of the real schedule that end a serving set-up.
WARM_ROUNDS = 2

#: A request whose median is below this measured nothing.  Sizes are
#: chosen so that the cheapest request takes over 1 ms today (compile
#: of ``count(path)`` in compile_cold); the guard sits at a quarter of
#: that, so that a change which makes the program faster does not turn
#: it into a failure, and far above the 0.02 ms of a query the summary
#: prefilter answers.
WORK_FLOOR_SECONDS = 0.25e-3

Op = Callable[[Request], str]


class ReferenceKernel:
    """Fixed work that is not the program, timed next to the program.

    The sandbox the benchmark runs in shares its cores, caches and
    memory bus with other tenants.  The same operation takes 10–25 %
    longer from one 10 s window to the next, whatever statistic is
    taken of it (the minimum included), which is more than any bound
    worth setting.  So between rounds of the schedule, while every
    caller is stopped, five small pure-Python kernels run (a walk over
    30 000 tuples, a cache-resident walk, a counting loop, attribute
    reads over 8 000 objects, sort-and-fill of a dict; ~25 ms in all),
    and times are reported divided by — rates multiplied by —
    ``slowdown()``: the geometric mean, over the kernels, of each
    kernel's median time during the run over its time on the idle
    reference host.  One kernel alone drifts on its own by as much as
    the program does; the mean of five follows what they share, the
    host.  On 9 s windows of ``pattern_warm`` the quartile distance of
    throughput falls from 14 % of the median to 7 %.

    A reported number reads "on the idle reference host"; the raw
    number and the factor are beside it in the detail line.  The
    kernels touch nothing of the program, so a change to the program
    cannot move them.
    """

    #: seconds of each kernel on the idle reference host.
    IDLE_SECONDS = (0.0080, 0.0035, 0.0040, 0.0034, 0.0031)
    #: the kernels run at most this often.
    INTERVAL_SECONDS = 0.15

    def __init__(self) -> None:
        rng = random.Random(60000)

        def tree(count: int) -> tuple:
            nodes = [([], 0)]
            for index in range(count):
                node = ([], index % 7)
                nodes[rng.randrange(len(nodes))][0].append(node)
                nodes.append(node)
            return nodes[0]

        class Item:
            def __init__(self, index: int) -> None:
                self.number, self.text, self.children = \
                    index, str(index), []

        big, small = tree(30000), tree(2000)
        items = [Item(index) for index in range(8000)]
        for index in range(1, 8000):
            items[rng.randrange(index)].children.append(items[index])
        numbers = [rng.random() for _ in range(20000)]

        def walk(root: tuple) -> int:
            stack, found = [root], 0
            while stack:
                children, tag = stack.pop()
                if tag == 3:
                    found += 1
                stack.extend(children)
            return found

        def walk_small() -> int:
            return sum(walk(small) for _ in range(25))

        def count() -> int:
            total = 0
            for _ in range(150000):
                total += 1
            return total

        def attributes() -> int:
            stack, total = [items[0]], 0
            while stack:
                item = stack.pop()
                total += item.number + len(item.text)
                stack.extend(item.children)
            return total

        def sort_and_fill() -> int:
            return len({index: value for index, value
                        in enumerate(sorted(numbers)[:8000])})

        self._kernels = [lambda: walk(big), walk_small, count, attributes,
                         sort_and_fill]
        self._expected = [kernel() for kernel in self._kernels]
        self.seconds: List[List[float]] = [[] for _ in self._kernels]
        self._last = 0.0

    @property
    def samples(self) -> int:
        return len(self.seconds[0])

    def sample(self, repeats: int = 1, force: bool = True) -> None:
        """Time every kernel ``repeats`` times; with ``force`` off, only
        when ``INTERVAL_SECONDS`` have passed since the last time."""
        if not force and \
                time.perf_counter() - self._last < self.INTERVAL_SECONDS:
            return
        for _ in range(repeats):
            for kernel, expected, seconds in zip(
                    self._kernels, self._expected, self.seconds):
                begun = time.perf_counter()
                result = kernel()
                seconds.append(time.perf_counter() - begun)
                if result != expected:
                    raise AssertionError("reference kernel miscounted")
        self._last = time.perf_counter()

    def slowdown(self, start: int = 0, end: Optional[int] = None) -> float:
        """Host slowdown over the samples ``[start, end)``."""
        return statistics.geometric_mean(
            statistics.median(seconds[start:end]) / idle
            for seconds, idle in zip(self.seconds, self.IDLE_SECONDS))


def prepare_expected(workload: Workload, seed: int, inputs: Inputs,
                     committed: bool) -> Tuple[Dict[str, dict], str]:
    """Digests every answer is compared with, and where they came
    from.  This is the harness's work, not the system's set-up, so it
    is outside ``setup_s``."""
    expected = oracle.load_expected(workload.name, seed, inputs) \
        if committed else None
    if expected is not None:
        return expected, "committed"
    return oracle.item_digests(inputs), "unoptimized-plan"


@dataclass
class LoopResult:
    #: seconds a caller spent in its rounds, averaged over the callers.
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: (request index, latency seconds) of every answered operation.
    samples: List[Tuple[int, float]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return (self.attempted - self.failed) / self.busy


class ClosedLoop:
    """``workload.callers`` closed-loop callers over one session.  Each
    caller owns an endless schedule of rounds; :meth:`round` makes
    every caller run its next round and returns when all have."""

    def __init__(self, workload: Workload, inputs: Inputs,
                 expected: Dict[str, dict], seed: int,
                 make_op: Callable[[int], Op]) -> None:
        self.inputs = inputs
        self.expected = expected
        self.result = LoopResult()
        self._callers = [
            (make_op(index), workload.schedule(inputs, seed, index))
            for index in range(workload.callers)]
        self._lock = threading.Lock()

    def _caller(self, op: Op, schedule) -> None:
        samples, errors, attempted, failed = [], [], 0, 0
        started = time.perf_counter()
        for position in next(schedule):
            request = self.inputs.requests[position]
            attempted += 1
            begun = time.perf_counter()
            try:
                text = op(request)
            except Exception as err:  # a failed operation is counted
                failed += 1
                errors.append(f"{request.key}: {type(err).__name__}: {err}")
                continue
            samples.append((position, time.perf_counter() - begun))
            if oracle.digest(text) != self.expected[request.key]:
                failed += 1
                errors.append(f"{request.key}: digest mismatch")
        busy = time.perf_counter() - started
        with self._lock:
            result = self.result
            result.busy += busy / len(self._callers)
            result.attempted += attempted
            result.failed += failed
            result.samples.extend(samples)
            result.errors.extend(errors)

    def round(self) -> None:
        if len(self._callers) == 1:
            self._caller(*self._callers[0])
            return
        threads = [threading.Thread(target=self._caller, args=caller)
                   for caller in self._callers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


def set_up(workload: Workload, inputs: Inputs, expected: Dict[str, dict],
           seed: int, workdir: str):
    """Build the system, warm it and check one answer per request.

    The pass over every distinct request is both the warm-up (plan
    cache, lazy indexes) and the correctness pre-check.  Returns the
    session and the answers it gave."""
    session = workload.session(inputs, workdir)
    try:
        answers = {}
        for request in inputs.requests:
            text = session.run(request)
            if oracle.digest(text) != expected[request.key]:
                raise AssertionError(
                    f"{request.key}: answer differs from the expected "
                    f"digest in the pre-check")
            answers[request.key] = text
        check_real_work(session, inputs.requests)
        if workload.pin is not None:
            workload.pin(session)
        if workload.callers > 1:
            # Which worker opens which shard engine and compiles which
            # plan depends on how concurrent requests interleave, so
            # the sequential pass above cannot warm them all.
            warm = ClosedLoop(workload, inputs, expected, seed,
                              lambda index: session.run)
            for _ in range(WARM_ROUNDS):
                warm.round()
            if warm.result.failed:
                raise AssertionError(
                    f"warm-up failed: {warm.result.errors[:3]}")
    except BaseException:
        session.close()
        raise
    return session, answers


def measure(workload: Workload, inputs: Inputs, expected: Dict[str, dict],
            seed: int, make_op: Callable[[int], Op], seconds: float,
            kernel: ReferenceKernel) -> LoopResult:
    """The timed phase: whole rounds of the schedule until ``seconds``
    have passed, the reference kernels between rounds.  A round
    always holds the same requests, so runs of different length measure
    the same mix."""
    loop = ClosedLoop(workload, inputs, expected, seed, make_op)
    gc.collect()
    kernel.sample()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        loop.round()
        kernel.sample(force=False)
    return loop.result


def percentile(ordered: List[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def per_request_medians(samples: List[Tuple[int, float]]
                        ) -> Dict[int, float]:
    grouped: Dict[int, List[float]] = {}
    for position, latency in samples:
        grouped.setdefault(position, []).append(latency)
    return {position: statistics.median(values)
            for position, values in grouped.items()}


def check_samples(inputs: Inputs, result: LoopResult, smoke: bool) -> dict:
    """The timed phase measured real, warm work; returns what the first
    operation took, for the detail line."""
    medians = per_request_medians(result.samples)
    first_position, first_latency = result.samples[0]
    # Compared with the same request's median (the mix spans 1–40 ms,
    # so the workload median says nothing about one request).  A failed
    # run rejects a change, so only an excess no stall of the shared
    # host produces counts: doc_load's own 95th percentile is four
    # times its median, and first operations of 180 ms against a 36 ms
    # median do occur.  The detail line carries the two numbers.
    median = medians[first_position]
    if first_latency > 3 * median and first_latency - median > 1.0:
        raise AssertionError(
            f"first timed operation took {first_latency * 1e3:.2f} ms, "
            f"over 3x its request's median {median * 1e3:.2f} ms: lazy "
            f"first-use cost leaked into the timed phase")
    for position, low in medians.items():
        if low < WORK_FLOOR_SECONDS and not smoke:
            raise AssertionError(
                f"{inputs.requests[position].key}: median "
                f"{low * 1e3:.3f} ms of measured work is under the "
                f"floor of {WORK_FLOOR_SECONDS * 1e3} ms")
    return {"first_operation_ms": first_latency * 1e3,
            "its_request_median_ms": median * 1e3}


def peak_rss_mib() -> float:
    """Peak resident set of this process plus that of its largest
    reaped child (the cluster workers), in MiB (``ru_maxrss`` is KiB on
    Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(result: LoopResult, setup_seconds: List[float],
               setup_slowdown: float, slowdown: float) -> dict:
    """The end-to-end metrics; ``raw`` is the number as timed, ``value``
    the number on the reference host (see :class:`ReferenceKernel`)."""
    latencies = sorted(latency for _, latency in result.samples)
    count = len(latencies)

    def timed(raw: float, unit: str, factor: float, **extra) -> dict:
        return {"value": raw / factor, "unit": unit, "raw": raw,
                "host_slowdown": factor, **extra}

    return {
        "throughput_ops_s": timed(result.throughput, "ops/s", 1 / slowdown),
        "latency_p50_ms": timed(percentile(latencies, 0.50) * 1e3, "ms",
                                slowdown, samples=count),
        "latency_p95_ms": timed(percentile(latencies, 0.95) * 1e3, "ms",
                                slowdown, samples=count),
        "setup_s": timed(statistics.median(setup_seconds), "s",
                         setup_slowdown, samples=len(setup_seconds)),
        "peak_rss_mb": {"value": peak_rss_mib(), "unit": "MiB"},
    }


def fresh_workdir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path: str) -> None:
    """Delete a run's scratch directory, and its parent once no other
    run is using it."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass
