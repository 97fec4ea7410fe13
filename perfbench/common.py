"""Shared pieces of the benchmark: the speed probe, the seeded inputs,
latency bookkeeping, the HTTP client and server subprocesses.

Only :class:`Inputs` imports ``repro``: the inputs are the program's own
synthetic corpora.  The probe in particular must not depend on the code
under test.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# --------------------------------------------------------------------- #
# Speed probe
# --------------------------------------------------------------------- #

PROBE_LOOPS = 20_000
#: Median probe time on the reference box (see README.md, "Speed
#: adjustment"): a 2-core x86-64 container, Python 3.11.
REFERENCE_PROBE_S = 0.0175


def probe_once() -> float:
    """Time a fixed mix of interpreter, dict and set work (~17 ms), the
    kinds of work that dominate a query's time."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1000003
        table[acc & 4095] = i
    keys = set(table)
    for i in range(40):
        block = set(range(i, 3000 + i))
        keys |= block
        keys -= block
    return time.perf_counter() - t0


class SpeedProbe:
    """Probe samples taken while nothing under test runs.

    A factor turns a raw duration on this box into reference-box
    seconds: ``adjusted = raw * factor``.  The box's speed drifts by
    10-20 % within a minute, so each duration is adjusted by the probes
    taken around it (:meth:`factor_around`), not by one figure per run.
    """

    #: Probes within this many seconds of a timed interval adjust it.
    WIDTH = 2.0

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.times: list[float] = []  # midpoints, increasing

    def sample(self, repeat: int = 3) -> None:
        for _ in range(repeat):
            start = time.perf_counter()
            took = probe_once()
            self.samples.append(took)
            self.times.append(start + took / 2)

    @property
    def factor(self) -> float:
        """One factor for the whole run (reported; per-layer figures)."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)

    def factor_around(self, t0: float, t1: float) -> float:
        """Factor from the probes within WIDTH of ``[t0, t1]``, or the
        three nearest when fewer fall there."""
        lo = bisect.bisect_left(self.times, t0 - self.WIDTH)
        hi = bisect.bisect_right(self.times, t1 + self.WIDTH)
        window = self.samples[lo:hi]
        if len(window) < 3:
            nearest = sorted(range(len(self.times)), key=lambda i: max(
                t0 - self.times[i], self.times[i] - t1, 0.0))[:3]
            window = [self.samples[i] for i in nearest]
        return REFERENCE_PROBE_S / statistics.median(window)


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #

NUM_DOMAINS = 20_000
NUM_EXTRA = 4_000
CORPUS_SEED = 1
EXTRA_SEED = 2
NUM_PERM = 128
NUM_PARTITIONS = 16
THRESHOLD = 0.5
TOP_K = 10
NUM_WARMUP = 400
NUM_VERIFY = 200
NUM_REMOVABLE = 3_000
STRATUM = 16


class Inputs:
    """The corpus, the insertable domains and the seeded query plan.

    The corpus and the insertable domains are fixed (``CORPUS_SEED``,
    ``EXTRA_SEED``) so every run indexes the same 20 000 domains, and so
    are the warm-up keys; the workload seed picks which other indexed
    domains are timed, verification and removable keys, the order of
    timed queries, and which insertable domains get inserted.  The four
    key sets are disjoint and no two of their keys share a value set, so
    warm-up never pre-answers a timed query and queried domains are
    never removed.
    """

    def __init__(self, seed: int) -> None:
        from repro.datagen import generate_corpus

        self.seed = seed
        self.corpus = generate_corpus(NUM_DOMAINS, alpha=2.0, min_size=10,
                                      max_size=20_000, seed=CORPUS_SEED)
        extra = generate_corpus(NUM_EXTRA, alpha=2.0, min_size=10,
                                max_size=20_000, seed=EXTRA_SEED)
        # Renamed so they never collide with corpus keys ("d000123").
        self.extra = {"x%06d" % i: values
                      for i, values in enumerate(extra.values())}
        # Query pools hold one key per distinct value set: two domains
        # with equal values (common among the smallest) would make one
        # query a repeat of another, answerable from a result cache.
        first_of: dict = {}
        for key, values in self.corpus.items():
            first_of.setdefault(values, key)
        by_size = sorted(first_of.values(),
                         key=lambda k: (len(self.corpus[k]), k))
        # The warm-up keys do not depend on the seed: evenly spaced in
        # size order, up to the largest domain, so every seed warms the
        # same bucket tables and reaches the same peak memory.
        step = len(by_size) / NUM_WARMUP
        picked = {int(len(by_size) - 1 - i * step)
                  for i in range(NUM_WARMUP)}
        self.warmup = [by_size[i] for i in sorted(picked)]
        keys = [k for i, k in enumerate(by_size) if i not in picked]
        rng = np.random.default_rng([seed, 0])
        order = [keys[i] for i in rng.permutation(len(keys))]
        b = NUM_VERIFY
        c = b + NUM_REMOVABLE
        self.verify = order[:b]
        self.removable = order[b:c]
        # Timed keys in strata of STRATUM domains of neighbouring size,
        # each stratum in seeded order; see TimedKeys.
        self.strata = stratify(order[c:], lambda k: len(self.corpus[k]),
                               rng)
        # Inserted in a stratified order too: an insert's cost grows
        # with the size of the domain it carries.
        strata = stratify(list(self.extra),
                          lambda k: len(self.extra[k]), rng)
        walk = even_walk(len(strata), rng)
        self.insertable = [strata[s][j] for j in range(STRATUM)
                           for s in walk if j < len(strata[s])]

    def values_of(self, key) -> frozenset:
        """Value set of a corpus key or an insertable key."""
        found = self.corpus.get(key)
        return found if found is not None else self.extra[key]

    def round_rng(self, round_no: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 1, round_no])


def even_walk(n: int, rng) -> list[int]:
    """A seeded permutation of ``range(n)`` whose every prefix is spread
    evenly over ``0 .. n-1``: the bit-reversal order (kept below ``n``)
    rotated by a seeded offset.  Walked over size-sorted strata, the
    first ``m`` steps of any seed hold about ``m / n`` of each size
    range, so one run's mix of sizes is close to another's."""
    bits = max(1, (n - 1).bit_length())
    offset = int(rng.integers(n))
    order = []
    for i in range(1 << bits):
        r = int(format(i, "0%db" % bits)[::-1], 2)
        if r < n:
            order.append((r + offset) % n)
    return order


def stratify(keys: list, size_of, rng) -> list[list]:
    """``keys`` sorted by size into strata of STRATUM, each shuffled."""
    ordered = sorted(keys, key=lambda k: (size_of(k), k))
    strata = [ordered[i:i + STRATUM]
              for i in range(0, len(ordered), STRATUM)]
    for stratum in strata:
        rng.shuffle(stratum)
    return strata


class TimedKeys:
    """Per-kind streams of timed query keys, stratified by size.

    Each kind walks the strata in its own seeded :func:`even_walk` and
    takes the next unused key of each, so every key is equally likely to
    be asked, no key is asked twice while unused ones remain, and each
    run's queries of one kind follow the corpus size distribution closely
    whatever the seed and however many are asked.  Query cost grows
    steeply with domain size; plain uniform sampling, or strata taken in
    a random order, let the sizes a run happened to draw move its
    figures.
    """

    KINDS = ("batch", "query", "topk")

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.used = [0] * len(inputs.strata)
        self.walks: dict[str, list] = {}

    def take(self, kind: str, n: int) -> list:
        strata = self.inputs.strata
        walk = self.walks.setdefault(kind, [])
        out = []
        for _ in range(n):
            if not walk:
                rng = np.random.default_rng([self.inputs.seed, 2,
                                             self.KINDS.index(kind)])
                walk.extend(even_walk(len(strata), rng)[::-1])
            s = walk.pop()
            stratum = strata[s]
            out.append(stratum[self.used[s] % len(stratum)])
            self.used[s] += 1
        return out


def insert_key(source: str, serial: int) -> str:
    """The key an insertable domain is inserted under (unique per run)."""
    return "ins%05d-%s" % (serial, source)


# --------------------------------------------------------------------- #
# Latency and operation bookkeeping
# --------------------------------------------------------------------- #


class Ledger:
    """Per-kind latencies (raw seconds, with the time each operation
    ended), attempts and failures."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {}
        self.ends: dict[str, list[float]] = {}
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.failures: list[str] = []

    def record(self, kind: str, seconds: float | None,
               error: str | None = None, end: float = 0.0) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        self.failed.setdefault(kind, 0)
        if error is not None:
            self.failed[kind] += 1
            if len(self.failures) < 20:
                self.failures.append("%s: %s" % (kind, error))
            return
        self.latencies.setdefault(kind, []).append(seconds)
        self.ends.setdefault(kind, []).append(end)

    def adjusted(self, kind: str, probe: SpeedProbe | None) -> list[float]:
        """Latencies of ``kind``, each adjusted by the probes around it
        (raw when ``probe`` is None)."""
        raw = self.latencies[kind]
        if probe is None:
            return list(raw)
        return [s * probe.factor_around(end - s, end)
                for s, end in zip(raw, self.ends[kind])]

    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    def total_failed(self) -> int:
        return sum(self.failed.values())


# --------------------------------------------------------------------- #
# HTTP
# --------------------------------------------------------------------- #


class HttpError(RuntimeError):
    pass


def encode(payload) -> bytes | None:
    """A request body as the client sends it."""
    if payload is None:
        return None
    return json.dumps(payload, separators=(",", ":")).encode()


class Client:
    """One keep-alive connection; counts body bytes per operation kind."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=timeout)
        self.request_bytes: dict[str, int] = {}
        self.response_bytes: dict[str, int] = {}

    def call(self, method: str, path: str, payload=None,
             kind: str | None = None) -> dict:
        """One request; ``payload`` is JSON-encoded here unless it is
        already the encoded body (``bytes``)."""
        body = payload if isinstance(payload, bytes) else encode(payload)
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body, headers)
        response = self.conn.getresponse()
        raw = response.read()
        if kind is not None:
            self.request_bytes[kind] = (self.request_bytes.get(kind, 0)
                                        + len(body or b""))
            self.response_bytes[kind] = (self.response_bytes.get(kind, 0)
                                         + len(raw))
        if response.status != 200:
            raise HttpError("%s %s -> %d %s" % (method, path,
                                                response.status,
                                                raw[:200]))
        return json.loads(raw)

    def close(self) -> None:
        self.conn.close()


# --------------------------------------------------------------------- #
# Server subprocesses
# --------------------------------------------------------------------- #

_READY = re.compile(rb"on http://([0-9.]+):(\d+)")


class Server:
    """A ``repro.cli`` server started through ``launch.py``.

    With ``trace_path`` set, the launcher records spans and writes them
    there when the process exits on SIGINT.
    """

    def __init__(self, name: str, cli_args: list[str], workdir: Path,
                 trace_path: Path | None = None) -> None:
        self.name = name
        self.trace_path = trace_path
        self.log_path = workdir / ("%s.log" % name)
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE_OUT", None)
        if trace_path is not None:
            env["PERFBENCH_TRACE_OUT"] = str(trace_path)
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "launch.py"), *cli_args],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=str(workdir))
        self.port: int | None = None

    def wait_ready(self, timeout: float = 120.0) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            match = _READY.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(2))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError("%s did not start: %s" % (
            self.name, self.log_path.read_bytes()[-2000:].decode(
                "utf-8", "replace")))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open("/proc/%d/status" % pid, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)
