"""Shared pieces of the wall-clock benchmark: statistics, the answer
oracle, open-loop schedules, the write stream, the capacity ladder and
the result record.  Imported after ``run.py`` has put the checkout's
``src/`` on the path.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import cKDTree

from repro.data.gstd import gaussian_clusters

#: The latency limit both online workloads are held to (ms).  A refused
#: or failed read counts as over it.
LATENCY_LIMIT_MS = 50.0

#: Absolute tolerance when comparing a reported neighbour distance with
#: the reference.  Coordinates live in [0, 1], so this is far below any
#: real distance gap and far above summation-order rounding.
DIST_TOL = 1e-9

NEVER = np.iinfo(np.int64).max


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if len(values) else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def rss_peak_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child
    (a replica, once joined), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- open-loop traffic --------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One scheduled operation: ``kind`` is ``read``, ``insert`` or
    ``delete``; ``due_s`` is relative to the phase start."""

    due_s: float
    kind: str


def poisson_ops(
    rng: np.random.Generator, rate: float, seconds: float, write_share: float
) -> list[Op]:
    """Open-loop Poisson arrivals at ``rate`` ops/s for ``seconds``; each
    op is a write with probability ``write_share``, and a write is an
    insert or a delete with equal odds."""
    n = int(rate * seconds * 1.5) + 16
    gaps = rng.exponential(1.0 / rate, size=n)
    dues = np.cumsum(gaps)
    dues = dues[dues < seconds]
    u = rng.random(len(dues))
    kinds = np.where(u >= write_share, "read", np.where(u < write_share / 2, "insert", "delete"))
    return [Op(float(d), str(k)) for d, k in zip(dues, kinds)]


def sleep_until(deadline: float) -> None:
    delay = deadline - time.monotonic()
    if delay > 0:
        time.sleep(delay)


class LiveSet:
    """The writer's view of the live ids, with O(1) random choice and
    removal, plus each id's birth and death *version* (the number of
    writes applied when it appeared or vanished) for the oracle."""

    def __init__(self, n_base: int, n_total: int) -> None:
        self.ids = list(range(n_base))
        self.pos = {i: i for i in range(n_base)}
        self.born = np.full(n_total, NEVER, dtype=np.int64)
        self.born[:n_base] = 0
        self.died = np.full(n_total, NEVER, dtype=np.int64)
        self.next_insert = n_base
        self.version = 0

    def insert(self) -> int | None:
        """Claim the next held-out row; ``None`` once they are used up."""
        if self.next_insert >= len(self.born):
            return None
        point_id = self.next_insert
        self.next_insert += 1
        self.pos[point_id] = len(self.ids)
        self.ids.append(point_id)
        self.version += 1
        self.born[point_id] = self.version
        return point_id

    def delete(self, rng: np.random.Generator) -> int:
        """Retire a random live id."""
        point_id = self.ids[int(rng.integers(len(self.ids)))]
        i = self.pos.pop(point_id)
        last = self.ids.pop()
        if last != point_id:
            self.ids[i] = last
            self.pos[last] = i
        self.version += 1
        self.died[point_id] = self.version
        return point_id


@dataclass(frozen=True)
class Write:
    """One applied write: wall window on the monotonic clock, whether it
    triggered a compaction, and the version it produced."""

    start: float
    end: float
    compacted: bool
    version: int
    ok: bool


class Churn:
    """Dataset, live set, write log and oracle inputs of an online run.

    One ``gaussian_clusters`` call makes the base rows, the held-out rows
    that inserts draw from (in order), and the rows reads query (cycled).
    Writes are chosen on the generator, in due order, and applied in the
    same order by one writer thread (:meth:`apply`).
    """

    def __init__(self, seed: int, n_base: int, n_insert: int, n_read: int, salt: int) -> None:
        data = gaussian_clusters(n_base + n_insert + n_read, 2, seed=seed)
        self.points = data[: n_base + n_insert]
        self.reads = data[n_base + n_insert :]
        self.live = LiveSet(n_base, len(self.points))
        self.rng = np.random.default_rng([seed, salt])
        self.next_read = 0
        self.writes: list[Write] = []
        self.rows: list[int] = []
        self.answers: list[tuple[int, float]] = []
        self.candidates: list[Sequence[int]] = []

    def read_point(self) -> tuple[int, np.ndarray]:
        row = self.next_read % len(self.reads)
        self.next_read += 1
        return row, self.reads[row]

    def choose_write(self, kind: str) -> tuple[str, int, int]:
        """Pick the row an insert adds or the id a delete removes; returns
        ``(kind, point_id, version after it)``."""
        point_id = self.live.insert() if kind == "insert" else None
        if point_id is None:
            kind, point_id = "delete", self.live.delete(self.rng)
        return kind, point_id, self.live.version

    def apply(self, target, epoch_of, kind: str, point_id: int, version: int) -> Write:
        """Apply one write through ``target.insert`` / ``target.delete``
        (writer thread); ``epoch_of(target)`` tells whether it compacted."""
        before = epoch_of(target)
        t0 = time.monotonic()
        if kind == "insert":
            target.insert(self.points[point_id], point_id)
            ok = True
        else:
            ok = bool(target.delete(point_id))
        write = Write(t0, time.monotonic(), epoch_of(target) != before, version, ok)
        self.writes.append(write)
        return write

    def record(self, row: int, point_id: int, dist: float, candidates: Sequence[int]) -> None:
        self.rows.append(row)
        self.answers.append((int(point_id), float(dist)))
        self.candidates.append(candidates)

    def oracle_wrong(self) -> int:
        """Check every recorded read; outside any timed region."""
        oracle = Oracle(self.points, self.live.born, self.live.died)
        return oracle.check(self.reads[self.rows], self.answers, self.candidates)


class Oracle:
    """k=1 reference answers over a dataset that changes by version.

    ``points`` holds every point that is ever live (base rows then the
    held-out insert rows, row index = point id).  One cKDTree over all
    of them is built once, outside any timed region; a read is checked
    against the live set at a given version by walking its nearest
    reference candidates until one is live, falling back to brute force.
    """

    CANDIDATES = 8

    def __init__(self, points: np.ndarray, born: np.ndarray, died: np.ndarray) -> None:
        self.points = points
        self.born = born
        self.died = died
        self.tree = cKDTree(points)

    def check(
        self,
        queries: np.ndarray,
        answers: Sequence[tuple[int, float]],
        versions: Sequence[Iterable[int]],
    ) -> int:
        """Count reads whose ``(id, distance)`` answer matches the exact
        nearest live neighbour at none of its candidate versions."""
        if not len(answers):
            return 0
        cand_d, cand_i = self.tree.query(queries, k=self.CANDIDATES)
        wrong = 0
        for row, ((ans_id, ans_d), candidates) in enumerate(zip(answers, versions)):
            if not 0 <= ans_id < len(self.points):
                wrong += 1
                continue
            q = queries[row]
            if abs(float(np.linalg.norm(self.points[ans_id] - q)) - ans_d) > DIST_TOL:
                wrong += 1
                continue
            if not any(
                self._live(ans_id, v)
                and abs(self._nearest(q, cand_d[row], cand_i[row], v) - ans_d) <= DIST_TOL
                for v in candidates
            ):
                wrong += 1
        return wrong

    def _live(self, point_id: int, version: int) -> bool:
        return bool(self.born[point_id] <= version < self.died[point_id])

    def _nearest(
        self, q: np.ndarray, cand_d: np.ndarray, cand_i: np.ndarray, version: int
    ) -> float:
        for d, i in zip(cand_d, cand_i):
            if self._live(int(i), version):
                return float(d)
        live = (self.born <= version) & (version < self.died)
        return float(np.min(np.linalg.norm(self.points[live] - q, axis=1)))


# -- capacity -----------------------------------------------------------------


def monotone(values: Sequence[float]) -> list[float]:
    """Least-squares non-decreasing fit (pool adjacent violators)."""
    blocks: list[list[float]] = []  # [sum, count]
    for v in values:
        blocks.append([v, 1.0])
        while len(blocks) > 1 and blocks[-2][0] / blocks[-2][1] > blocks[-1][0] / blocks[-1][1]:
            total, count = blocks.pop()
            blocks[-1][0] += total
            blocks[-1][1] += count
    return [total / count for total, count in blocks for __ in range(int(count))]


def interpolate_capacity(rates: Sequence[float], p99s: Sequence[float]) -> float:
    """The highest offered rate whose read p99 meets the limit.

    ``p99s`` are measured at ascending ``rates``; a step that failed
    outright carries :data:`MISSED_MS`.  One short step's p99 is noisy,
    so the curve of ``log(p99)`` is smoothed by a running median of three
    and fitted non-decreasing before the limit crossing is interpolated
    between the last rate under it and the first over it.  With every
    step under the limit the last rate is a lower bound; with none, the
    first rate is scaled down by its overshoot.
    """
    logs = [math.log(max(p, 1e-3)) for p in p99s]
    smooth = [logs[0]] + [
        statistics.median(logs[max(i - 1, 0) : i + 2]) for i in range(1, len(logs))
    ]
    fit = monotone(smooth)
    limit = math.log(LATENCY_LIMIT_MS)
    over = [i for i, v in enumerate(fit) if v > limit]
    if not over:
        return float(rates[-1])
    i = over[0]
    if i == 0:
        return float(rates[0]) * LATENCY_LIMIT_MS / math.exp(fit[0])
    frac = (limit - fit[i - 1]) / (fit[i] - fit[i - 1])
    return float(rates[i - 1] + (rates[i] - rates[i - 1]) * frac)


# -- result record -------------------------------------------------------------


@dataclass
class Tally:
    """Operations sent, answered, refused and failed in one phase."""

    sent: int = 0
    ok: int = 0
    refused: int = 0
    failed: int = 0
    wrong: int = 0

    @property
    def bad(self) -> int:
        return self.refused + self.failed + self.wrong

    def line(self, name: str) -> str:
        return (
            f"  phase {name:<14} sent={self.sent} ok={self.ok} refused={self.refused} "
            f"failed={self.failed} wrong={self.wrong}"
        )


@dataclass
class Outcome:
    """What one workload run reports: metrics plus the op accounting."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    phases: dict[str, Tally] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def phase(self, name: str) -> Tally:
        return self.phases.setdefault(name, Tally())

    @property
    def attempted(self) -> int:
        return sum(t.sent for t in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(t.bad for t in self.phases.values())

    @property
    def wrong(self) -> int:
        return sum(t.wrong for t in self.phases.values())


#: Latency recorded for a read that was refused or failed: far over the
#: limit, finite so percentiles stay defined.
MISSED_MS = 1e6


#: Width of the windows a phase's read p99 is taken over (s).  At the
#: nominal rates a window holds 1,200+ reads, so 12+ lie beyond its p99.
P99_WINDOW_S = 3.0

#: Width of the windows a phase's write mean is taken over (s): long
#: enough to hold one or more compactions at either nominal write rate.
WRITE_WINDOW_S = 7.0


def windowed(samples: Sequence[tuple[float, float]], width: float, stat, min_count: int) -> float:
    """Median over ``width``-second windows of ``stat`` of the samples
    (``(due s, value)``) due in each; windows with fewer than
    ``min_count`` samples are skipped unless all are that small."""
    windows: dict[int, list[float]] = {}
    for due, value in samples:
        windows.setdefault(int(due // width), []).append(value)
    full = [w for w in windows.values() if len(w) >= min_count] or list(windows.values())
    return median([stat(w) for w in full])


@dataclass
class PhaseLog:
    """Measurements of one open-loop phase at one offered rate.  Reads
    and writes are ``(due s, latency ms)``, due relative to the phase
    start."""

    rate: float
    tally: Tally
    reads: list[tuple[float, float]] = field(default_factory=list)
    writes: list[tuple[float, float]] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    aborted: bool = False

    @property
    def p50(self) -> float:
        return percentile([ms for __, ms in self.reads], 50)

    @property
    def p99(self) -> float:
        """Median over the phase's :data:`P99_WINDOW_S` windows of each
        window's p99, so one stall moves one window, not the phase."""
        return windowed(self.reads, P99_WINDOW_S, lambda w: percentile(w, 99), 100)

    @property
    def write_mean(self) -> float:
        """Median over :data:`WRITE_WINDOW_S` windows of the mean write
        latency, compactions amortised within each window."""
        return windowed(self.writes, WRITE_WINDOW_S, mean, 10)

    def line(self) -> str:
        p99 = self.p99
        verdict = "aborted" if self.aborted else ("within" if p99 <= LATENCY_LIMIT_MS else "over")
        return (
            f"  rate {self.rate:7.1f}/s reads={len(self.reads)} writes={len(self.writes)} "
            f"p50={self.p50:.2f}ms p99={p99:.2f}ms write_mean={self.write_mean:.2f}ms "
            f"late_p99={percentile(self.late_ms, 99):.2f}ms {verdict}"
        )


#: Offered rates of the capacity ladder, as multiples of the nominal rate:
#: six geometric steps from 1.25x to 3.8x.  Each step runs for a sixth of
#: the ladder's time.
LADDER = tuple(1.25**i for i in range(1, 7))

#: How a ``--trace 1`` run of an online workload splits its time: an
#: untraced phase at the nominal rate, then the capacity ladder, then a
#: traced phase at the nominal rate (the rest).
UNTRACED_SHARE = 0.35
LADDER_SHARE = 0.3

#: Reads outstanding at once beyond which a ladder step is abandoned as
#: overloaded (before the service's own admission bound could refuse).
ABORT_BACKLOG = 256


def ladder_over(steps: Sequence[PhaseLog]) -> bool:
    """Whether the ladder can stop climbing: the last two steps were
    aborted or had a p99 over twice the limit."""
    return len(steps) > 2 and all(
        s.aborted or s.p99 > 2 * LATENCY_LIMIT_MS for s in steps[-2:]
    )


def capacity_of(steps: Sequence[PhaseLog]) -> float:
    """Interpolated capacity from the nominal phase plus ladder steps."""
    return interpolate_capacity(
        [s.rate for s in steps],
        [MISSED_MS if s.aborted or s.tally.bad else s.p99 for s in steps],
    )
