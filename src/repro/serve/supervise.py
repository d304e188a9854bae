"""Supervised serving: keep a ``repro serve`` child alive across crashes.

The job supervisor (:mod:`repro.runtime.supervisor`) runs *finite* jobs
— launch, wait, classify, maybe retry.  A server is the opposite: it is
supposed to run forever, so "retry" becomes "restart" and the success
criterion inverts — a child that exits at all (other than a clean
operator-requested shutdown) is a failure to classify and recover from.
:class:`ServeSupervisor` closes that gap for ``repro serve
--supervised``:

* the serve child runs as a subprocess; its stderr is streamed through
  the supervisor's log with a ``[serve]`` prefix, so the operator sees
  one merged feed;
* the child's announce line (``serving <db_id> on <host>:<port> ...``)
  is parsed to learn the bound address, and the port is **pinned** into
  the child argv before any restart — a server started with ``--port
  0`` keeps its first ephemeral port for its whole supervised lifetime,
  so clients reconnect to the same address across crashes;
* a crash is classified with the same taxonomy as worker jobs
  (:func:`repro.runtime.supervisor.classify_exit`: ``oom-kill``,
  ``abort``, ``segfault``, ``signal:NAME``, ``crash``), a crash report
  is written to ``crash_dir`` / ``$REPRO_CRASH_DIR``, and the child is
  restarted after exponential backoff with jitter;
* each launch exports ``REPRO_SUPERVISOR_ATTEMPT`` so fault injection
  can be attempt-scoped (``abort@serve.dispatch#5~1`` crashes the first
  incarnation and lets the restart run clean — deterministic recovery
  tests);
* a child that stays up for ``stable_after`` seconds earns its restart
  budget back (an incident an hour apart should not accumulate toward
  the ``max_restarts`` limit);
* ``SIGTERM``/``SIGINT`` shut the child down gracefully (``SIGTERM``,
  then ``SIGKILL`` after ``grace``); ``SIGHUP`` is forwarded so the
  hot-swap reload path works identically under supervision.

The clock (``sleep``/``monotonic``/``rng``) is injectable, mirroring
the job supervisor, so restart schedules are testable without sleeping.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, TextIO

from ..runtime.errors import WorkerCrashed
from ..runtime.supervisor import (
    backoff_delay,
    child_env,
    classify_exit,
    write_crash_report,
)

__all__ = ["ServeSupervisor"]

_ANNOUNCE_RE = re.compile(r"serving (\S+) on (\S+):(\d+) \(protocol")


class ServeSupervisor:
    """Restart a serve child until it exits cleanly or the budget runs out.

    Parameters
    ----------
    argv:
        The child command (e.g. ``[sys.executable, "-m", "repro",
        "serve", "--db", ...]``).  ``--port`` is pinned in place after
        the first announce.
    max_restarts:
        Restarts allowed within one instability window; exceeding it
        raises :class:`WorkerCrashed` (CLI exit 70).
    stable_after:
        A child alive this long resets the restart counter.
    grace:
        Seconds a ``SIGTERM``'d child gets before ``SIGKILL``.
    """

    def __init__(
        self,
        argv: List[str],
        *,
        max_restarts: int = 5,
        stable_after: float = 30.0,
        grace: float = 5.0,
        backoff_base: float = 0.5,
        backoff_factor: float = 2.0,
        backoff_max: float = 30.0,
        jitter: float = 0.1,
        crash_dir: Optional[str] = None,
        env: Optional[Dict[str, str]] = None,
        log: Optional[TextIO] = None,
        sleep: Callable[[float], None] = time.sleep,
        monotonic: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.argv = list(argv)
        self.max_restarts = max(0, int(max_restarts))
        self.stable_after = stable_after
        self.grace = grace
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.jitter = jitter
        self.crash_dir = crash_dir
        self.env = dict(env) if env is not None else None
        self._log = log if log is not None else sys.stderr
        self._sleep = sleep
        self._monotonic = monotonic
        self._rng = rng if rng is not None else random.Random()
        # Learned from the child's announce line.
        self.db_id: Optional[str] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.ready = threading.Event()
        self.restarts = 0
        self.attempt = 0
        self._proc: Optional[subprocess.Popen] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Logging / announce parsing
    # ------------------------------------------------------------------

    def _print(self, message: str) -> None:
        try:
            print(message, file=self._log, flush=True)
        except ValueError:
            pass

    def _pump_stderr(self, stream) -> None:
        """Forward child stderr to the log, watching for the announce."""
        for raw in iter(stream.readline, b""):
            text = raw.decode("utf-8", "replace").rstrip("\n")
            match = _ANNOUNCE_RE.search(text)
            if match:
                self.db_id = match.group(1)
                self.host = match.group(2)
                self.port = int(match.group(3))
                self._pin_port(self.port)
                self.ready.set()
            self._print(f"[serve] {text}")
        try:
            stream.close()
        except OSError:
            pass

    def _pin_port(self, port: int) -> None:
        """Rewrite ``--port`` in the child argv so restarts rebind the
        same address the first incarnation announced."""
        argv = self.argv
        for i, arg in enumerate(argv):
            if arg == "--port" and i + 1 < len(argv):
                argv[i + 1] = str(port)
                return
            if arg.startswith("--port="):
                argv[i] = f"--port={port}"
                return
        argv.extend(["--port", str(port)])

    # ------------------------------------------------------------------
    # Child lifecycle
    # ------------------------------------------------------------------

    def _spawn(self) -> subprocess.Popen:
        proc = subprocess.Popen(
            self.argv,
            stderr=subprocess.PIPE,
            env=child_env(self.attempt, self.env),
        )
        threading.Thread(
            target=self._pump_stderr,
            args=(proc.stderr,),
            name="serve-supervisor-log",
            daemon=True,
        ).start()
        return proc

    def _terminate(self, proc: subprocess.Popen) -> None:
        """SIGTERM → (grace) → SIGKILL, same escalation as job workers."""
        if proc.poll() is not None:
            return
        try:
            proc.terminate()
        except OSError:
            return
        try:
            proc.wait(timeout=self.grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def stop(self) -> None:
        """Request a clean shutdown of the supervisor and its child."""
        self._stop.set()
        proc = self._proc
        if proc is not None:
            self._terminate(proc)

    def reload(self) -> None:
        """Forward a reload request (SIGHUP) to the serve child."""
        proc = self._proc
        if proc is not None and proc.poll() is None:
            try:
                os.kill(proc.pid, signal.SIGHUP)
            except OSError:
                pass

    def _install_signal_handlers(self) -> None:
        def _shutdown(_sig, _frm):
            self._stop.set()
            proc = self._proc
            if proc is not None and proc.poll() is None:
                try:
                    proc.terminate()
                except OSError:
                    pass

        try:
            signal.signal(signal.SIGTERM, _shutdown)
            signal.signal(signal.SIGHUP, lambda _s, _f: self.reload())
        except (ValueError, OSError, AttributeError):
            pass  # non-main thread (tests) or platform without the signals

    # ------------------------------------------------------------------
    # The restart loop
    # ------------------------------------------------------------------

    def run(self) -> int:
        """Supervise until the child exits cleanly (returns 0) or the
        restart budget is exhausted (raises :class:`WorkerCrashed`)."""
        self._install_signal_handlers()
        while True:
            started = self._monotonic()
            self._print(
                f"supervisor: starting serve child "
                f"(attempt {self.attempt}, restarts {self.restarts})"
            )
            proc = self._spawn()
            self._proc = proc
            try:
                returncode = proc.wait()
            except KeyboardInterrupt:
                self._stop.set()
                self._terminate(proc)
                returncode = proc.returncode
            uptime = self._monotonic() - started
            self._proc = None
            if self._stop.is_set() or returncode == 0:
                self._print(
                    f"supervisor: serve child exited "
                    f"{returncode} after {uptime:.1f}s; done"
                )
                return 0
            term_signal = -returncode if returncode < 0 else None
            classification, message = classify_exit(returncode, term_signal)
            self._print(
                f"supervisor: serve child died after {uptime:.1f}s: "
                f"{classification} ({message})"
            )
            write_crash_report(self.crash_dir, {
                "job": {"serve": self.argv},
                "attempt": {
                    "attempt": self.attempt,
                    "classification": classification,
                    "message": message,
                    "exit_code": returncode,
                    "uptime_s": round(uptime, 3),
                    "db_id": self.db_id,
                    "address": (
                        f"{self.host}:{self.port}" if self.port else None
                    ),
                },
            })
            if uptime >= self.stable_after:
                self.restarts = 0
            self.restarts += 1
            self.attempt += 1
            if self.restarts > self.max_restarts:
                raise WorkerCrashed(
                    f"serve child crashed {self.restarts} times within the "
                    f"stability window; giving up: {classification}"
                    + (f" ({message})" if message else ""),
                    classification=classification,
                    exit_code=returncode,
                    term_signal=term_signal,
                )
            delay = backoff_delay(
                self.restarts, self.backoff_base, self.backoff_factor,
                self.backoff_max, self.jitter, self._rng,
            )
            self._print(f"supervisor: restarting in {delay:.2f}s")
            self._sleep(delay)
