"""Resilient sweep execution: deadlines, retries, crash isolation, resume.

The matrix runner in :mod:`repro.sim.parallel` declares *what* to run;
this module decides *how to survive running it*.  Production schedulers
treat job failure as a first-class event, and so does this layer:

* **crash-isolated workers** — every job attempt runs in its own worker
  process with its own result pipe, so a SIGKILL/OOM-kill/segfault loses
  exactly one attempt of one job.  There is no shared executor to break:
  the ``BrokenProcessPool`` failure mode of a shared pool is structurally
  impossible here.
* **per-job deadlines** — a soft deadline emits a structured warning (and
  tags the outcome ``soft_timed_out``); a hard deadline kills the worker
  and marks the attempt ``timed_out``.  Budgets derive from the job's
  ``scale`` and backend, overridable via
  :class:`ResiliencePolicy`/``--job-timeout``.
* **bounded retries, deterministic backoff** — failed/killed/timed-out
  attempts are requeued up to ``retries`` times.  The backoff delay is a
  pure function of ``(seed, digest, attempt)`` (seeded jitter, doubling
  base), so scheduling contains no wall-clock nondeterminism and recorded
  results are independent of when retries happen.
* **checkpointed sweeps** — a :class:`SweepJournal` (append-only JSONL
  next to the result cache) records every terminal outcome; ``repro
  bench --resume`` replays it to skip finished work after a crash or
  Ctrl-C, and a Ctrl-C itself kills the workers, flushes the journal,
  and propagates (the CLI exits 130).
* **graceful degradation** — failures become :class:`JobOutcome` records
  with ``status``/``attempt_errors``/``error`` instead of aborting the
  matrix; :func:`repro.sim.parallel.matrix_summary` turns them into a
  ``failed_jobs`` manifest.
* **orchestration chaos** — the runner-level sites of
  :mod:`repro.faults.plan` (``kill-worker``, ``slow-worker``,
  ``fail-job``, ``corrupt-cache``) inject worker death, hangs, transient
  exceptions, and cache bitrot deterministically (victims are the first
  ``count`` jobs in submission order), which is what
  ``scripts/chaos_matrix.py`` drives.

Determinism note: host-side scheduling (monotonic deadlines, backoff
sleeps) never reaches a recorded simulation result — results remain a
pure function of each job's fingerprint, which is why a retried job is
bit-identical to a first-try success.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.faults.plan import RUNNER_SITES, FaultPlan, FaultPlanError
from repro.sim.backends import BackendUnsupported
from repro.sim.cache import ResultCache
from repro.sim.parallel import JobOutcome, JobSpec, dedupe_jobs, default_workers

#: Terminal job statuses (``JobOutcome.status``).
JOB_OK = "ok"
JOB_FAILED = "failed"
JOB_TIMED_OUT = "timed_out"
JOB_CRASHED = "crashed"
FAILURE_STATUSES = (JOB_FAILED, JOB_TIMED_OUT, JOB_CRASHED)

#: Error classes that abort the sweep instead of burning retries: they are
#: deterministic usage errors, not transient job failures.
FATAL_ERROR_CLASSES = frozenset({"BackendUnsupported"})

JOURNAL_NAME = "sweep-journal.jsonl"


class ChaosFault(RuntimeError):
    """The injected transient exception of the ``fail-job`` chaos site."""


# -- policy ------------------------------------------------------------------


def default_hard_timeout(scale: float, backend: str) -> float:
    """Hard per-job deadline in seconds, derived from scale and backend.

    Calibrated against the measured ~5 s/job event-engine cost at scale
    0.2 with two orders of magnitude of headroom; the functional backend
    replays >2x faster, so its budget is halved.
    """
    base = 450.0 if backend == "functional" else 900.0
    return max(60.0, base * scale)


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the runner reacts to slow, failing, and dying jobs."""

    retries: int = 1
    """Extra attempts after a failed/killed/timed-out first attempt."""

    soft_timeout: float | None = None
    """Seconds before a structured slow-job warning (default: half the
    hard deadline)."""

    hard_timeout: float | None = None
    """Seconds before the worker is killed and the attempt marked
    ``timed_out`` (default: :func:`default_hard_timeout`)."""

    backoff_base: float = 0.25
    """First retry delay in seconds; doubles per attempt."""

    backoff_seed: int = 0
    """Seed of the deterministic backoff jitter stream."""

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        for name in ("soft_timeout", "hard_timeout"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    def deadlines_for(self, spec: JobSpec) -> tuple[float, float]:
        """``(soft, hard)`` deadline seconds for one job."""
        hard = self.hard_timeout
        if hard is None:
            hard = default_hard_timeout(spec.scale, spec.backend)
        soft = self.soft_timeout if self.soft_timeout is not None else hard / 2
        return min(soft, hard), hard

    def backoff_delay(self, digest: str, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based): seeded expo + jitter.

        A pure function of ``(seed, digest, attempt)`` — two runs of the
        same sweep back off identically, regardless of wall-clock or
        completion order.
        """
        if self.backoff_base <= 0:
            return 0.0
        rng = random.Random(f"{self.backoff_seed}/backoff/{digest}/{attempt}")
        return self.backoff_base * (1 << max(0, attempt - 1)) * (0.5 + rng.random())


# -- chaos -------------------------------------------------------------------


class ChaosState:
    """Runner-level chaos decisions for one sweep.

    Victim selection is deterministic: each site hits the first ``count``
    *missing* jobs in submission order.  ``kill-worker`` and ``fail-job``
    fire on the first attempt only (transient faults a retry recovers
    from); ``slow-worker`` delays every attempt of its victims (a hung
    job stays hung, exercising the deadline path); ``corrupt-cache``
    scribbles over the first ``count`` existing cache entries before they
    are read.
    """

    def __init__(self, plan: FaultPlan) -> None:
        protocol = [s.site for s in plan.protocol_specs()]
        if protocol:
            raise FaultPlanError(
                f"chaos plans take runner-level sites only ({', '.join(RUNNER_SITES)}); "
                f"{', '.join(protocol)} belong in a simulation fault plan (--faults)"
            )
        self.plan = plan
        self.kills = 0
        self.fails = 0
        self.slow = 0
        self.slow_ms = 0
        self.corrupt_budget = 0
        for spec in plan.runner_specs():
            if spec.site == "kill-worker":
                self.kills = spec.count
            elif spec.site == "fail-job":
                self.fails = spec.count
            elif spec.site == "slow-worker":
                self.slow = spec.count
                self.slow_ms = spec.param
            elif spec.site == "corrupt-cache":
                self.corrupt_budget = spec.count
        self.injected: dict[str, int] = {}

    @classmethod
    def from_plan(cls, plan: "FaultPlan | str | ChaosState | None") -> "ChaosState | None":
        """Normalise a chaos plan (object, CLI string, state, or ``None``)."""
        if plan is None or isinstance(plan, cls):
            return plan
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        if plan.is_empty():
            return None
        return cls(plan)

    def needs_subprocess(self) -> bool:
        """True when the plan injects faults only a worker process can
        express (death, enforced hangs)."""
        return self.kills > 0 or self.slow > 0

    def _inject(self, site: str) -> None:
        self.injected[site] = self.injected.get(site, 0) + 1

    def marks(self, index: int, attempt: int) -> tuple[bool, bool, int]:
        """``(kill, fail, slow_ms)`` for miss ``index``, given ``attempt``."""
        kill = index < self.kills and attempt == 1
        fail = index < self.fails and attempt == 1
        slow_ms = self.slow_ms if index < self.slow else 0
        if kill:
            self._inject("kill-worker")
        if fail:
            self._inject("fail-job")
        if slow_ms:
            self._inject("slow-worker")
        return kill, fail, slow_ms

    def maybe_corrupt_entry(self, cache: ResultCache, fingerprint: dict[str, Any]) -> bool:
        """Corrupt the cache entry for ``fingerprint`` if budget remains."""
        if self.corrupt_budget <= 0 or not cache.enabled:
            return False
        path = cache.path_for(fingerprint)
        if not path.exists():
            return False
        path.write_text('{"chaos": "deliberately corrupted entry"')
        self.corrupt_budget -= 1
        self._inject("corrupt-cache")
        return True


# -- journal -----------------------------------------------------------------


class SweepJournal:
    """Append-only JSONL checkpoint of a sweep's terminal job outcomes.

    One line per event.  ``{"event": "job", ...}`` lines carry digest,
    label, benches, status, attempts, and the error record; a sweep
    header and an ``interrupted`` marker bracket partial runs.  Loading
    tolerates truncated trailing lines (a crash mid-append), keeping the
    last record per digest.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: Any = None

    @classmethod
    def for_cache(cls, cache: ResultCache) -> "SweepJournal":
        """The journal that lives next to ``cache``'s entries."""
        return cls(cache.cache_dir / JOURNAL_NAME)

    def load(self) -> dict[str, dict[str, Any]]:
        """Digest → last recorded job event, from a previous run."""
        records: dict[str, dict[str, Any]] = {}
        try:
            text = self.path.read_text()
        except OSError:
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # truncated tail from a killed run
            if isinstance(event, dict) and event.get("event") == "job":
                digest = event.get("digest")
                if isinstance(digest, str):
                    records[digest] = event
        return records

    def open(self, *, resume: bool) -> None:
        """Start journalling: append when resuming, else truncate."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a" if resume else "w")
        self._write({"event": "sweep", "resume": resume})

    def _write(self, event: dict[str, Any]) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    def record(
        self,
        *,
        digest: str,
        label: str,
        benches: tuple[str, ...],
        status: str,
        attempts: int,
        cached: bool = False,
        error: dict[str, str] | None = None,
    ) -> None:
        """Append one terminal job outcome."""
        self._write({
            "event": "job",
            "digest": digest,
            "label": label,
            "benches": list(benches),
            "status": status,
            "attempts": attempts,
            "cached": cached,
            "error": error,
        })

    def interrupted(self) -> None:
        """Mark the sweep as interrupted (Ctrl-C) before closing."""
        self._write({"event": "interrupted"})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# -- worker-side execution ---------------------------------------------------


def _job_worker(conn: Any, spec: JobSpec, kill: bool, fail: bool, slow_ms: int) -> None:
    """One job attempt in a dedicated worker process.

    Reports ``("ok", seconds, result_dict)`` or ``("error", class,
    message)`` over ``conn``; a chaos kill dies without reporting, which
    is exactly what a real OOM kill looks like to the supervisor.
    """
    try:
        if kill:
            os.kill(os.getpid(), signal.SIGKILL)
        if slow_ms > 0:
            time.sleep(slow_ms / 1000.0)
        if fail:
            raise ChaosFault("injected transient worker failure")
        from repro.reporting.export import result_to_dict

        start = time.perf_counter()
        result = spec.execute()
        seconds = time.perf_counter() - start
        conn.send(("ok", seconds, result_to_dict(result, include_stream=True)))
    except BaseException as exc:  # report, then die: the parent owns policy
        try:
            conn.send(("error", type(exc).__name__, str(exc)))
        except (OSError, ValueError):
            pass
        if not isinstance(exc, Exception):
            raise
    finally:
        try:
            conn.close()
        except OSError:
            pass


# -- the resilient runner ----------------------------------------------------


@dataclass
class _Job:
    """Supervisor-side state of one unique missing job."""

    index: int
    spec: JobSpec
    fingerprint: dict[str, Any]
    digest: str
    benches: tuple[str, ...]
    attempt: int = 0
    ready_at: float = 0.0
    errors: list[str] = field(default_factory=list)
    error: dict[str, str] | None = None
    soft_timed_out: bool = False
    seconds: float = 0.0


@dataclass
class _Running:
    job: _Job
    proc: Any
    conn: Any
    started: float
    soft_deadline: float
    hard_deadline: float
    warned: bool = False


def _terminal_status(tag: str) -> str:
    if tag == "crashed":
        return JOB_CRASHED
    if tag == "timed_out":
        return JOB_TIMED_OUT
    return JOB_FAILED


def _ok_outcome(job: _Job, result: Any, seconds: float, cache: ResultCache,
                journal: SweepJournal | None) -> JobOutcome:
    cache.put(job.fingerprint, result)
    if journal is not None:
        journal.record(
            digest=job.digest, label=job.spec.label, benches=job.benches,
            status=JOB_OK, attempts=job.attempt,
        )
    return JobOutcome(
        spec=job.spec, digest=job.digest, benches=job.benches, cached=False,
        seconds=seconds, events=result.events_executed,
        total_cycles=result.total_cycles, result=result,
        status=JOB_OK, attempts=job.attempt,
        attempt_errors=tuple(job.errors), soft_timed_out=job.soft_timed_out,
    )


def _failed_outcome(job: _Job, journal: SweepJournal | None) -> JobOutcome:
    status = _terminal_status(job.errors[-1] if job.errors else "failed")
    if journal is not None:
        journal.record(
            digest=job.digest, label=job.spec.label, benches=job.benches,
            status=status, attempts=job.attempt, error=job.error,
        )
    return JobOutcome(
        spec=job.spec, digest=job.digest, benches=job.benches, cached=False,
        seconds=job.seconds, events=0, total_cycles=0, result=None,
        status=status, attempts=job.attempt, error=job.error,
        attempt_errors=tuple(job.errors), soft_timed_out=job.soft_timed_out,
    )


def run_matrix_resilient(
    pairs: Iterable[tuple[str, JobSpec]],
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: Callable[[str], None] | None = None,
    policy: ResiliencePolicy | None = None,
    chaos: FaultPlan | str | None = None,
    journal: SweepJournal | None = None,
    resume: bool = False,
) -> list[JobOutcome]:
    """Run a (bench, spec) matrix under the resilience policy.

    Always returns one :class:`JobOutcome` per unique job: successes
    carry results, failures carry ``status``/``error`` — partial results
    instead of a matrix abort.  Only :data:`FATAL_ERROR_CLASSES` (usage
    errors like ``BackendUnsupported``) and ``KeyboardInterrupt``
    propagate; the latter after killing workers and flushing the journal.
    """
    workers = default_workers() if workers is None else max(1, workers)
    cache = ResultCache.from_env() if cache is None else cache
    policy = ResiliencePolicy() if policy is None else policy
    note = progress or (lambda _msg: None)
    chaos_state = ChaosState.from_plan(chaos)

    resumed: dict[str, dict[str, Any]] = {}
    if journal is not None:
        if resume:
            resumed = journal.load()
        journal.open(resume=resume)

    try:
        return _run(
            dedupe_jobs(pairs), workers=workers, cache=cache, note=note,
            policy=policy, chaos_state=chaos_state, journal=journal,
            resumed=resumed,
        )
    finally:
        if journal is not None:
            journal.close()


def _run(
    unique: list[tuple[JobSpec, dict[str, Any], str, tuple[str, ...]]],
    *,
    workers: int,
    cache: ResultCache,
    note: Callable[[str], None],
    policy: ResiliencePolicy,
    chaos_state: ChaosState | None,
    journal: SweepJournal | None,
    resumed: dict[str, dict[str, Any]],
) -> list[JobOutcome]:
    outcomes: list[JobOutcome] = []
    misses: list[_Job] = []
    for spec, fingerprint, digest, benches in unique:
        if chaos_state is not None and chaos_state.maybe_corrupt_entry(cache, fingerprint):
            note(f"chaos      corrupted cache entry for {spec.label}")
        result = cache.get(fingerprint)
        if result is not None:
            resumed_ok = resumed.get(digest, {}).get("status") == JOB_OK
            note(f"cache hit  {spec.label}" + (" (resumed)" if resumed_ok else ""))
            if journal is not None:
                journal.record(
                    digest=digest, label=spec.label, benches=benches,
                    status=JOB_OK, attempts=0, cached=True,
                )
            outcomes.append(
                JobOutcome(
                    spec=spec, digest=digest, benches=benches, cached=True,
                    seconds=0.0, events=result.events_executed,
                    total_cycles=result.total_cycles, result=result,
                    attempts=0,
                )
            )
        else:
            misses.append(_Job(len(misses), spec, fingerprint, digest, benches))

    if not misses:
        return outcomes

    in_process = (workers == 1 or len(misses) == 1) and (
        chaos_state is None or not chaos_state.needs_subprocess()
    )
    if in_process:
        runner = _run_in_process
    else:
        runner = _run_supervised
    done = runner(
        misses, workers=workers, cache=cache, note=note, policy=policy,
        chaos_state=chaos_state, journal=journal,
    )
    # Workers finish in a timing-dependent order; report submission order.
    rank = {job.digest: job.index for job in misses}
    outcomes.extend(sorted(done, key=lambda o: rank[o.digest]))
    return outcomes


def _run_in_process(
    misses: list[_Job],
    *,
    workers: int,
    cache: ResultCache,
    note: Callable[[str], None],
    policy: ResiliencePolicy,
    chaos_state: ChaosState | None,
    journal: SweepJournal | None,
) -> list[JobOutcome]:
    """Serial execution in this process (``workers=1`` / single miss).

    Keeps ``--profile`` meaningful and avoids fork overhead for tiny
    matrices.  Hard deadlines cannot preempt an in-process job; soft
    deadlines are still reported (after the fact) and ``fail-job`` chaos
    still fires, so retry semantics are identical to the supervised path.
    """
    outcomes = []
    for job in misses:
        soft, _hard = policy.deadlines_for(job.spec)
        while True:
            job.attempt += 1
            fail = False
            if chaos_state is not None:
                _kill, fail, _slow = chaos_state.marks(job.index, job.attempt)
            suffix = f" (attempt {job.attempt})" if job.attempt > 1 else ""
            note(f"simulate   {job.spec.label}{suffix}")
            start = time.perf_counter()
            try:
                if fail:
                    raise ChaosFault("injected transient worker failure")
                result = job.spec.execute()
            except Exception as exc:
                if type(exc).__name__ in FATAL_ERROR_CLASSES:
                    raise
                job.seconds = time.perf_counter() - start
                job.errors.append(type(exc).__name__)
                job.error = {"class": type(exc).__name__, "message": str(exc)}
                note(f"failed     {job.spec.label}: {type(exc).__name__}: {exc}")
                if job.attempt <= policy.retries:
                    time.sleep(policy.backoff_delay(job.digest, job.attempt))
                    continue
                outcomes.append(_failed_outcome(job, journal))
                break
            seconds = time.perf_counter() - start
            if seconds > soft:
                job.soft_timed_out = True
                note(f"warn       {job.spec.label} ran {seconds:.1f}s, "
                     f"past the {soft:.0f}s soft deadline")
            outcomes.append(_ok_outcome(job, result, seconds, cache, journal))
            break
    return outcomes


def supervise_one(
    spec: JobSpec,
    fingerprint: dict[str, Any],
    digest: str,
    *,
    cache: ResultCache,
    benches: tuple[str, ...] = (),
    policy: ResiliencePolicy | None = None,
    journal: SweepJournal | None = None,
    note: Callable[[str], None] | None = None,
    on_tick: Callable[[], None] | None = None,
) -> JobOutcome:
    """Run ONE job under full supervision and return its outcome.

    The single-job entry point to the same machinery ``repro bench``
    uses: a crash-isolated worker process per attempt, soft/hard
    deadlines, and seeded-backoff retries.  This is the execution
    primitive of the ``repro serve`` daemon — the service pool calls it
    from worker threads, one call per deduplicated job, so the one-shot
    sweep path and the service share the supervision code rather than
    reimplementing it.

    ``on_tick`` (if given) is invoked from the supervising thread at
    least once a second while the job runs — the daemon uses it to push
    heartbeat/progress events to subscribers.  A successful outcome has
    already been stored in ``cache``.
    """
    job = _Job(0, spec, fingerprint, digest, tuple(benches))
    return _run_supervised(
        [job], workers=1, cache=cache, note=note or (lambda _msg: None),
        policy=policy if policy is not None else ResiliencePolicy(),
        chaos_state=None, journal=journal, on_tick=on_tick,
    )[0]


def _run_supervised(
    misses: list[_Job],
    *,
    workers: int,
    cache: ResultCache,
    note: Callable[[str], None],
    policy: ResiliencePolicy,
    chaos_state: ChaosState | None,
    journal: SweepJournal | None,
    on_tick: Callable[[], None] | None = None,
) -> list[JobOutcome]:
    """Crash-isolated parallel execution: one worker process per attempt.

    The supervisor multiplexes result pipes with deadline checks; a dead
    pipe with no payload is a crash, a hard-deadline breach is a kill.
    Either requeues the job (with deterministic backoff) until its retry
    budget is spent.  ``on_tick`` is called once per supervision loop
    iteration (roughly every second while anything runs) — host-side
    only, it never touches simulation state.
    """
    from repro.reporting.export import result_from_dict

    ctx = get_context()
    outcomes: list[JobOutcome] = []
    waiting = deque(misses)
    running: dict[Any, _Running] = {}

    def launch(job: _Job, now: float) -> None:
        job.attempt += 1
        kill = fail = False
        slow_ms = 0
        if chaos_state is not None:
            kill, fail, slow_ms = chaos_state.marks(job.index, job.attempt)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_job_worker, args=(child_conn, job.spec, kill, fail, slow_ms)
        )
        proc.start()
        child_conn.close()
        soft, hard = policy.deadlines_for(job.spec)
        suffix = f" (attempt {job.attempt})" if job.attempt > 1 else ""
        note(f"submit     {job.spec.label}{suffix}")
        running[parent_conn] = _Running(
            job, proc, parent_conn, started=now,
            soft_deadline=now + soft, hard_deadline=now + hard,
        )

    def reap(entry: _Running, tag: str, error: dict[str, str], now: float) -> None:
        """One attempt failed (``tag``): requeue or finalise."""
        job = entry.job
        job.seconds = now - entry.started
        job.errors.append(tag)
        job.error = error
        note(f"{tag:<10} {job.spec.label}: {error['message']}")
        if job.attempt <= policy.retries:
            job.ready_at = now + policy.backoff_delay(job.digest, job.attempt)
            waiting.append(job)
        else:
            outcomes.append(_failed_outcome(job, journal))

    try:
        while waiting or running:
            if on_tick is not None:
                on_tick()
            now = time.monotonic()
            launchable = [j for j in waiting if j.ready_at <= now]
            while launchable and len(running) < workers:
                job = launchable.pop(0)
                waiting.remove(job)
                launch(job, now)

            if not running:
                # Everything is backing off; sleep until the first is due.
                delay = min(j.ready_at for j in waiting) - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                continue

            # Wake for the nearest deadline (or a finishing worker).
            next_edge = min(
                min(r.hard_deadline for r in running.values()),
                min(
                    (r.soft_deadline for r in running.values() if not r.warned),
                    default=float("inf"),
                ),
                min((j.ready_at for j in waiting), default=float("inf")),
            )
            timeout = min(max(next_edge - time.monotonic(), 0.0), 1.0)
            ready = connection_wait(list(running), timeout=timeout)

            for conn in ready:
                entry = running.pop(conn)
                job = entry.job
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None
                conn.close()
                entry.proc.join()
                now = time.monotonic()
                if message is None:
                    reap(entry, "crashed", {
                        "class": "WorkerCrashed",
                        "message": "worker process died before reporting "
                                   f"(exitcode {entry.proc.exitcode})",
                    }, now)
                elif message[0] == "ok":
                    _tag, seconds, result_dict = message
                    result = result_from_dict(result_dict)
                    job.seconds = seconds
                    if entry.warned:
                        job.soft_timed_out = True
                    note(f"finished   {job.spec.label} ({seconds:.1f}s)")
                    outcomes.append(_ok_outcome(job, result, seconds, cache, journal))
                else:
                    _tag, error_class, error_message = message
                    if error_class in FATAL_ERROR_CLASSES:
                        raise BackendUnsupported(error_message)
                    reap(entry, error_class,
                         {"class": error_class, "message": error_message}, now)

            now = time.monotonic()
            for conn, entry in list(running.items()):
                if not entry.warned and now >= entry.soft_deadline:
                    entry.warned = True
                    entry.job.soft_timed_out = True
                    note(f"warn       {entry.job.spec.label} running past its "
                         f"{entry.soft_deadline - entry.started:.0f}s soft deadline")
                if now >= entry.hard_deadline:
                    running.pop(conn)
                    entry.proc.kill()
                    entry.proc.join()
                    conn.close()
                    hard = entry.hard_deadline - entry.started
                    reap(entry, "timed_out", {
                        "class": "JobTimeout",
                        "message": f"hard deadline of {hard:.0f}s exceeded; "
                                   "worker killed",
                    }, now)
    except BaseException as exc:
        for entry in running.values():
            entry.proc.kill()
        for entry in running.values():
            entry.proc.join()
            entry.conn.close()
        if isinstance(exc, KeyboardInterrupt) and journal is not None:
            journal.interrupted()
        raise

    return outcomes
