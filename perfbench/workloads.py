"""The three workloads, driven from outside the program.

Every workload is a closed loop from this one process: the next
operation starts only after the previous one has returned and been
checked.  No workload uses more processes, threads or connections than
the two CPUs the benchmark was sized on.

* ``study-serial`` runs ``repro-study study --no-compare`` in a fresh
  process per operation on the calibrated 404-site web (one worker).
* ``crawl-sharded`` runs ``Study.crawl`` (2 workers, 8 shards, 5%
  seeded transient faults) and ``Study.analyze`` over a 1,000-site
  generated web seeded by the workload seed, one process per operation.
* ``service-jobs`` runs ``repro-serve --runners 1``; two client threads
  each loop: submit a 24-site generated study, follow its SSE stream to
  ``end``, fetch ``/result``.  Each job has its own seed.

Every operation's output is checked; checks run outside the timed
spans.  Each workload returns a :class:`Outcome`.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import inputs
from harness import BenchCase, timed
from layers import layer_metrics, load_dumps
from spans import tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

#: Longest any single program run may take before it is killed.
OP_TIMEOUT_S = 150.0
#: The calibrated study's headline, as the CLI prints it.
STUDY_HEADLINE = {"leaking senders": 130, "third-party receivers": 100,
                  "leaking requests": 1603}
#: Extra program start-ups after each operation of an untraced
#: study-workload run that stop at the set-up stamp: they only measure
#: set-up time.  Spread over the run, they see the same host as the
#: operations do.
STUDY_SETUP_PROBES_PER_OP = 5
#: Served jobs before this index warm the service up and are not
#: measured: on a 2-CPU host job latency climbs over the first three
#: jobs (1.2 s, 1.8 s, 2.1 s), then holds near 2.1 s.
SERVICE_WARMUP_JOBS = 3
SERVICE_CLIENTS = 2
#: Extra server start-ups per run that only measure set-up time, half
#: before the measured phase and half after it.
SERVICE_SETUP_PROBES = 4
#: Steady jobs re-run in-process after the run and compared.
SERVICE_REFERENCE_JOBS = 2


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: name -> (value, unit); the end-to-end metrics.
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: name -> value; the per-layer metrics of a traced run.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Reported beside the metrics: tail latency, failure ratio.
    notes: List[str] = field(default_factory=list)
    cases: List[BenchCase] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


# ---------------------------------------------------------------------------
# Program processes.
# ---------------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def children_usage() -> Tuple[float, float]:
    """(CPU seconds, peak RSS in MB) of every reaped program process."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


@dataclass
class ProgramRun:
    wall_s: float
    setup_s: float
    cpu_s: float
    returncode: int
    stdout: str
    stderr: str


def run_program(mode: str, args: List[str],
                options: Tuple[str, ...] = ()) -> ProgramRun:
    """Run ``child.py [OPTIONS] MODE ARGS`` to completion.

    ``wall_s`` runs from just before the spawn to the reaped exit,
    ``setup_s`` from the spawn to the child's first ``Study.crawl``
    entry, ``cpu_s`` is the child's CPU including its workers.
    """
    command = [sys.executable, CHILD, *options, mode] + args
    cpu_before, _ = children_usage()
    spawned = time.monotonic()
    with timed() as timer:
        process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True,
                                   start_new_session=True)
        try:
            stdout, stderr = process.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # The session holds the program's crawl workers too.
            os.killpg(process.pid, signal.SIGKILL)
            stdout, stderr = process.communicate()
    cpu_after, _ = children_usage()
    setup_s = float("nan")
    for line in stderr.splitlines():
        if line.startswith("perfbench-setup "):
            setup_s = float(line.split()[1]) - spawned
            break
    return ProgramRun(wall_s=timer.seconds, setup_s=setup_s,
                      cpu_s=cpu_after - cpu_before,
                      returncode=process.returncode, stdout=stdout,
                      stderr=stderr)


def _program_failure(run: ProgramRun) -> Optional[str]:
    if run.returncode != 0:
        tail = run.stderr.strip().splitlines()[-3:]
        return "exit %d: %s" % (run.returncode, " | ".join(tail))
    if run.setup_s != run.setup_s:      # NaN: never reached Study.crawl
        return "no set-up stamp on standard error"
    return None


def _trace_dir(work: str) -> str:
    return tempfile.mkdtemp(prefix="trace-", dir=work)


def _study_metrics(outcome: Outcome, runs: List[ProgramRun],
                   setups: List[float]) -> None:
    """End-to-end metrics of a workload made of whole program runs."""
    _, peak_mb = children_usage()
    walls = [run.wall_s for run in runs]
    outcome.metrics = {
        "study_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups + [run.setup_s
                                                for run in runs]), "s"),
        "cpu_s": (statistics.median(run.cpu_s for run in runs), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "jobs_per_s": (len(walls) / sum(walls), "1/s"),
    }


def _traced_layers(outcome: Outcome, untraced: List[float],
                   traced: List[ProgramRun], dumps: List[Dict]) -> None:
    layers = layer_metrics(dumps, operations=len(traced))
    layers["proc.cpu_s"] = statistics.median(run.cpu_s for run in traced)
    plain = statistics.median(untraced)
    overhead = statistics.median(run.wall_s for run in traced) - plain
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_ratio"] = overhead / plain
    outcome.layers = layers


def _run_study_loop(outcome: Outcome, seconds: float, traced: bool,
                    work: str, label: str, mode: str, args: List[str],
                    check) -> None:
    """Closed loop of program runs; ``check(run)`` returns an error or None.

    Runs operations until their walls add up to ``seconds``.  A traced
    run alternates untraced and traced operations, and runs at least
    one of each so the tracing overhead can be measured; an untraced
    one adds set-up probes after every operation.
    """
    setups: List[float] = []
    measured: List[ProgramRun] = []
    traced_runs: List[ProgramRun] = []
    dumps: List[Dict] = []
    spent_s = 0.0
    for index in itertools.count():
        if index >= (2 if traced else 1) and spent_s >= seconds:
            break
        trace_this = traced and index % 2 == 1
        trace_dir = _trace_dir(work) if trace_this else None
        run = run_program(mode, args,
                          ("--trace-dir", trace_dir) if trace_dir else ())
        spent_s += run.wall_s
        outcome.attempted += 1
        error = _program_failure(run) or check(run)
        if error:
            outcome.fail("%s op %d: %s" % (label, index, error))
            continue
        outcome.cases.append(BenchCase(
            label="%s/op-%d%s" % (label, index, "-traced" if trace_this
                                  else ""),
            wall_seconds=run.wall_s, items=1,
            extra={"setup_s": run.setup_s, "cpu_s": run.cpu_s}))
        if trace_this:
            traced_runs.append(run)
            dumps.extend(load_dumps(trace_dir))
            continue
        measured.append(run)
        if traced:
            continue
        for number in range(STUDY_SETUP_PROBES_PER_OP):
            probe = run_program(mode, args, ("--setup-only",))
            error = _program_failure(probe)
            if error:
                outcome.attempted += 1
                outcome.fail("%s set-up probe %d.%d: %s"
                             % (label, index, number, error))
            else:
                setups.append(probe.setup_s)
                outcome.cases.append(BenchCase(
                    label="%s/setup-%d.%d" % (label, index, number),
                    wall_seconds=probe.setup_s, items=1))
    if not measured or (traced and not traced_runs):
        return
    _study_metrics(outcome, measured, setups)
    if traced:
        _traced_layers(outcome, [run.wall_s for run in measured],
                       traced_runs, dumps)


# ---------------------------------------------------------------------------
# study-serial
# ---------------------------------------------------------------------------

def check_study_headline(run: ProgramRun) -> Optional[str]:
    """The CLI's headline must read 130 senders, 100 receivers, 1603."""
    for label, expected in STUDY_HEADLINE.items():
        found = re.search(r"^\s*%s:\s+(\d+)" % re.escape(label), run.stdout,
                          re.MULTILINE)
        if found is None:
            return "headline line %r missing" % label
        if int(found.group(1)) != expected:
            return "%s = %s, expected %d" % (label, found.group(1), expected)
    return None


def study_serial(seed: int, seconds: float, traced: bool,
                 work: str) -> Outcome:
    """``repro-study study --no-compare``, a fresh process per study.

    The calibrated web has no seed, so ``seed`` does not change the
    input; every run measures the same study.
    """
    outcome = Outcome()
    _run_study_loop(outcome, seconds, traced, work, "study-serial", "cli",
                    ["study", "--no-compare"], check_study_headline)
    return outcome


# ---------------------------------------------------------------------------
# crawl-sharded
# ---------------------------------------------------------------------------

def reference_fingerprint(seed: int) -> str:
    """The in-process ``workers=1`` run of the sharded crawl's layout."""
    from repro.crawler import ParallelCrawler
    engine = ParallelCrawler(inputs.sharded_population_spec(seed),
                             workers=1, num_shards=inputs.SHARDED_SHARDS,
                             fault_plan=inputs.fault_plan(seed))
    result = engine.run()
    if not result.complete:
        raise RuntimeError("reference crawl incomplete")
    return result.dataset.fingerprint()


def crawl_sharded(seed: int, seconds: float, traced: bool,
                  work: str) -> Outcome:
    """``Study.crawl`` over 8 shards with 2 workers, then ``Study.analyze``."""
    outcome = Outcome()
    fingerprints: List[str] = []

    def check(run: ProgramRun) -> Optional[str]:
        try:
            summary = json.loads(run.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "no JSON summary on standard output"
        if not summary.get("complete"):
            return "crawl incomplete: %r" % summary
        fingerprints.append(summary["fingerprint"])
        return None

    _run_study_loop(outcome, seconds, traced, work, "crawl-sharded",
                    "crawl-sharded", ["--seed", str(seed)], check)
    if fingerprints:
        expected = reference_fingerprint(seed)
        for number, fingerprint in enumerate(fingerprints):
            if fingerprint != expected:
                outcome.fail("crawl-sharded: fingerprint %s of run %d != "
                             "in-process workers=1 reference %s"
                             % (fingerprint[:16], number, expected[:16]))
    return outcome


# ---------------------------------------------------------------------------
# service-jobs
# ---------------------------------------------------------------------------

class Server:
    """One ``repro-serve`` process on an ephemeral port."""

    def __init__(self, work: str, trace_dir: Optional[str] = None) -> None:
        self.jobs_dir = tempfile.mkdtemp(prefix="jobs-", dir=work)
        self.log_path = os.path.join(self.jobs_dir, "stderr.log")
        command = [sys.executable, CHILD]
        if trace_dir:
            command += ["--trace-dir", trace_dir]
        command += ["serve", "--port", "0", "--runners", "1",
                    "--jobs-dir", self.jobs_dir]
        self.spawned = time.monotonic()
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                        stdout=subprocess.DEVNULL,
                                        stderr=self._log,
                                        start_new_session=True)
        self.port = 0
        self.setup_s = self._wait_healthy()

    def _wait_healthy(self, timeout: float = 60.0) -> float:
        deadline = self.spawned + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            if not self.port:
                with open(self.log_path) as handle:
                    found = re.search(r"listening on http://[^:]+:(\d+)",
                                      handle.read())
                if found:
                    self.port = int(found.group(1))
            if self.port:
                try:
                    status, _ = self.request("GET", "/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    return time.monotonic() - self.spawned
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("repro-serve did not become healthy")

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection = self.connection()
        try:
            connection.request(method, path, body=body, headers={
                "Content-Type": "application/json"} if body else {})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def cpu_s(self) -> float:
        """User plus system CPU the server process has used so far.

        Job runners are threads of this process (jobs run with one
        crawl worker), so this covers the served studies.
        """
        with open("/proc/%d/stat" % self.process.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # Fields 14 and 15 of stat(5), counted after "pid (comm)".
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM, wait for the drain, remove the job directory."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        self._log.close()
        shutil.rmtree(self.jobs_dir, ignore_errors=True)


@dataclass
class Job:
    index: int
    spec: Dict[str, object]
    started: float = 0.0
    running_at: float = 0.0
    finished: float = 0.0
    events: int = 0
    result: Optional[Dict[str, object]] = None
    error: str = ""


def run_job(server: Server, job: Job,
            on_running: Optional[Callable[[], None]] = None) -> None:
    """Submit, follow the SSE stream to ``end``, fetch ``/result``.

    ``on_running`` is called when the stream reports the job running.

    Sets ``job.error`` on any HTTP 4xx/5xx (a 503 too), on a job that
    does not reach ``complete``, and on an SSE ``end`` fingerprint that
    differs from the result's.
    """
    job.started = time.monotonic()
    status, body = server.request("POST", "/studies",
                                  json.dumps(job.spec).encode())
    if status != 202:
        job.error = "POST /studies -> %d" % status
        return
    job_id = json.loads(body)["id"]
    end: Optional[Dict[str, object]] = None
    connection = server.connection()
    try:
        connection.request("GET", "/studies/%s/events" % job_id)
        response = connection.getresponse()
        if response.status != 200:
            job.error = "GET events -> %d" % response.status
            return
        event_name = ""
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event_name = line[len("event: "):]
                job.events += 1
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
                if event_name == "state" and data.get("state") == "running" \
                        and not job.running_at:
                    job.running_at = time.monotonic()
                    if on_running is not None:
                        on_running()
                if event_name == "end":
                    end = data
                    break
    finally:
        connection.close()
    if end is None or end.get("state") != "complete":
        job.error = "job ended %r" % (end,)
        return
    status, body = server.request("GET", "/studies/%s/result" % job_id)
    job.finished = time.monotonic()
    if status != 200:
        job.error = "GET result -> %d" % status
        return
    job.result = json.loads(body)
    if job.result.get("fingerprint") != end.get("fingerprint"):
        job.error = "SSE end fingerprint != /result fingerprint"


def _scrape(server: Server) -> Dict[str, float]:
    """``name -> value`` of the unlabelled series of ``GET /metrics``."""
    status, body = server.request("GET", "/metrics")
    series: Dict[str, float] = {}
    if status != 200:
        return series
    for line in body.decode("utf-8").splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#") and "{" not in line:
            series[parts[0]] = float(parts[1])
    return series


@dataclass
class Phase:
    """One server's life: warm-up, then ``seconds`` of steady jobs.

    ``cpu_s`` is the server's CPU per steady job: from the moment the
    first steady job starts running (the single runner has finished
    every warm-up job by then) to the last steady job's fetched result,
    divided by the number of steady jobs.  Start-up, warm-up and drain
    are left out.
    """

    setup_s: float
    jobs: List[Job]
    steady: List[Job]
    steady_span_s: float
    cpu_s: float
    scrape: Dict[str, float]


def _serve_phase(seed: int, first_index: int, seconds: float, work: str,
                 trace_dir: Optional[str] = None) -> Phase:
    server = Server(work, trace_dir=trace_dir)
    jobs: List[Job] = []
    lock = threading.Lock()
    counter = itertools.count(first_index)
    steady_from = first_index + SERVICE_WARMUP_JOBS
    window: Dict[str, float] = {}

    def steady_running() -> None:
        window["cpu_start"] = server.cpu_s()

    def client() -> None:
        while True:
            with lock:
                index = next(counter)
                now = time.monotonic()
                if index >= steady_from:
                    window.setdefault("start", now)
                    if now - window["start"] >= seconds:
                        return
                job = Job(index=index, spec=inputs.job_spec(seed, index))
                jobs.append(job)
            try:
                run_job(server, job, on_running=(
                    steady_running if index == steady_from else None))
            except (OSError, ValueError, http.client.HTTPException) as exc:
                job.error = "%s: %s" % (type(exc).__name__, exc)

    threads = [threading.Thread(target=client, name="client-%d" % number)
               for number in range(SERVICE_CLIENTS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cpu_end = server.cpu_s()
        scrape = _scrape(server) if trace_dir else {}
    finally:
        server.stop()
    steady = [job for job in jobs if job.index >= steady_from]
    finished = [job.finished for job in steady if not job.error]
    span = (max(finished) - window["start"]) if finished else 0.0
    cpu_s = ((cpu_end - window["cpu_start"]) / len(steady)
             if "cpu_start" in window else 0.0)
    return Phase(setup_s=server.setup_s, jobs=jobs, steady=steady,
                 steady_span_s=span, cpu_s=cpu_s, scrape=scrape)


def _reference_check(outcome: Outcome, jobs: List[Job]) -> None:
    """Re-run a sample of jobs in-process and compare their results."""
    from repro.service.jobs import JobRun, JobSpec
    done = [job for job in jobs if job.result is not None]
    sample = done[:1] + done[-(SERVICE_REFERENCE_JOBS - 1):]
    for job in {job.index: job for job in sample}.values():
        local = JobRun(JobSpec.from_dict(job.spec), resources=False).execute()
        if local.result != job.result:
            outcome.fail("service-jobs job %d: served result differs from "
                         "JobRun(spec).execute() in-process" % job.index)


def service_jobs(seed: int, seconds: float, traced: bool,
                 work: str) -> Outcome:
    """Two closed-loop clients against one ``repro-serve --runners 1``.

    A traced run serves two phases of ``seconds / 2`` each, untraced
    then traced, each on its own server with its own warm-up.
    """
    outcome = Outcome()
    setups = []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            probe = Server(work)
            setups.append(probe.setup_s)
            probe.stop()

    probe_setup(SERVICE_SETUP_PROBES // 2)
    phase = _serve_phase(seed, 0, seconds / 2 if traced else seconds, work)
    setups.append(phase.setup_s)
    probe_setup(SERVICE_SETUP_PROBES - SERVICE_SETUP_PROBES // 2)
    phases = [phase]
    trace_dir = None
    if traced:
        trace_dir = _trace_dir(work)
        phases.append(_serve_phase(seed, len(phase.jobs),
                                   seconds / 2, work, trace_dir=trace_dir))
    for current in phases:
        steady = {job.index for job in current.steady}
        for job in current.jobs:
            outcome.attempted += 1
            if job.error:
                outcome.fail("service-jobs job %d: %s"
                             % (job.index, job.error))
            elif job.index in steady:
                outcome.cases.append(BenchCase(
                    label="service-jobs/job-%d" % job.index,
                    wall_seconds=job.finished - job.started, items=1,
                    extra={"queue_wait_s": job.running_at - job.started,
                           "sse_events": job.events}))
    _reference_check(outcome, [job for current in phases
                               for job in current.steady])
    latencies = [job.finished - job.started for job in phase.steady
                 if not job.error]
    if not latencies:
        return outcome
    _, peak_mb = children_usage()
    p50 = statistics.median(latencies)
    outcome.metrics = {
        "study_s": (p50, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (phase.cpu_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "jobs_per_s": (len(latencies) / phase.steady_span_s, "1/s"),
    }
    tail = tail_percentile(latencies)
    outcome.notes.append("job_p50_s %.4f s (median of %d steady jobs)"
                         % (p50, len(latencies)))
    outcome.notes.append(
        "job_tail_s %.4f s (p%.1f of %d jobs)" % (tail[1], tail[0],
                                                   len(latencies))
        if tail else "job_tail_s n/a (%d jobs; a tail needs more than 10)"
        % len(latencies))
    if traced:
        served = phases[1]
        ok = [job for job in served.steady if not job.error]
        dumps = load_dumps(trace_dir)
        layers = layer_metrics(dumps, operations=len(served.jobs))
        scrape = served.scrape
        layers.update({
            "service.submit_s": _mean(scrape, "repro_service_submit_seconds"),
            "service.job_run_s": _mean(scrape,
                                       "repro_service_job_run_seconds"),
            "service.queue_wait_s": statistics.median(
                job.running_at - job.started for job in ok),
            "service.sse_events": statistics.median(job.events
                                                    for job in ok),
            "proc.cpu_s": served.cpu_s,
        })
        traced_p50 = statistics.median(job.finished - job.started
                                       for job in ok)
        layers["trace.overhead_s"] = traced_p50 - p50
        layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / p50
        outcome.layers = layers
    return outcome


def _mean(scrape: Dict[str, float], histogram: str) -> float:
    count = scrape.get(histogram + "_count", 0.0)
    return scrape.get(histogram + "_sum", 0.0) / count if count else 0.0


WORKLOADS = {
    "study-serial": study_serial,
    "crawl-sharded": crawl_sharded,
    "service-jobs": service_jobs,
}
