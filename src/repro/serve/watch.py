"""Hot-reload: watch a map artefact and swap it into a live service.

Delta rebuilds (``--mutate --resume``, see ``docs/delta.md``) end by
rewriting the map JSON artefact. :class:`ArtefactWatcher` polls that path; when the file's
(mtime, size) signature changes it reloads the artefact into a fresh
:class:`~repro.core.mapstore.MapStore` and calls
:meth:`~repro.serve.service.MapService.swap`. The swap is a single
reference assignment under the service lock, so in-flight requests
finish against the store they started with and the next request answers
from the new map — no request is ever dropped or mixed across digests.

A broken artefact (mid-write, truncated, wrong format) never takes the
service down: the reload error is counted (``serve.watch.errors``),
reported to stderr, and the old store keeps serving. The failed
signature is *not* recorded, so the next poll retries — a mid-write
file heals on its own — but consecutive failures trip a
:class:`~repro.serve.resilience.CircuitBreaker`
(``serve.watch.circuit_open``) that backs the poll interval off
exponentially, so a persistently broken rewrite loop costs retries at a
gentle, bounded rate instead of one per poll tick. The first successful
reload closes the circuit (``serve.watch.circuit_close``) and restores
the configured interval.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Optional, Tuple

from .resilience import CircuitBreaker
from .service import MapArtefactError, MapService, load_store


class ArtefactWatcher(threading.Thread):
    """Daemon thread polling one artefact path into one service.

    ``scenario`` supplies the ground-truth context each reload re-attaches
    (prefix table, atlas, AS graph) — the same context the initial
    :func:`~repro.serve.service.load_store` used, so a reloaded map
    answers exactly as a fresh serve of the same artefact would.

    ``circuit`` may be a pre-built breaker (tests inject one with a
    virtual recorder); by default one is created against the service's
    recorder with ``circuit_threshold`` consecutive failures and a base
    backoff of twice the poll interval. ``chaos`` is an optional
    :class:`~repro.serve.chaos.ChaosEngine` whose ``artefact_corrupted``
    draw simulates a corrupt rewrite landing mid-swap.
    """

    def __init__(self, service: MapService, path: str, scenario,
                 interval: float = 2.0,
                 circuit: Optional[CircuitBreaker] = None,
                 circuit_threshold: int = 3,
                 chaos=None) -> None:
        super().__init__(name="repro-serve-watch", daemon=True)
        self._service = service
        self._path = path
        self._scenario = scenario
        self._interval = max(0.05, float(interval))
        self._chaos = chaos
        self.circuit = circuit if circuit is not None else CircuitBreaker(
            threshold=circuit_threshold,
            base_backoff_s=self._interval * 2,
            recorder=service._recorder)
        self._halt = threading.Event()
        self._signature = self._stat()

    def _stat(self) -> Optional[Tuple[float, int]]:
        try:
            stat = os.stat(self._path)
        except OSError:
            return None
        return (stat.st_mtime, stat.st_size)

    def poll_interval(self) -> float:
        """Seconds until the next poll: the configured interval while
        the circuit is closed, its exponential backoff while open."""
        return self.circuit.backoff_interval(self._interval)

    def poll_once(self) -> bool:
        """One poll step: reload and swap if the artefact changed.

        Returns True when a new digest was swapped in. Exposed so tests
        (and the CI smoke job) can drive the watcher deterministically
        without sleeping.
        """
        signature = self._stat()
        if signature is None or signature == self._signature:
            return False
        recorder = self._service._recorder
        try:
            store = load_store(self._path, self._scenario)
            if self._chaos is not None and \
                    self._chaos.artefact_corrupted():
                raise MapArtefactError(
                    "chaos: artefact corrupted mid-swap")
        except MapArtefactError as exc:
            # Keep the old signature so the next poll retries; the
            # circuit breaker bounds how fast those retries come.
            recorder.count("serve.watch.errors")
            self.circuit.record_failure()
            print(f"serve: artefact reload failed, keeping map "
                  f"{self._service.store.short_digest}: {exc}",
                  file=sys.stderr)
            return False
        self._signature = signature
        self.circuit.record_success()
        if self._service.swap(store):
            print(f"serve: hot-swapped map {store.short_digest} "
                  f"from {self._path}", file=sys.stderr)
            return True
        return False

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the thread to exit and join it (bounded by ``timeout``).

        Joining closes the shutdown race: after ``stop()`` returns no
        ``poll_once`` can be mid-flight against a torn-down service.
        Safe to call from any thread (including before ``start()``),
        except the watcher thread itself.
        """
        self._halt.set()
        if self.is_alive() and threading.current_thread() is not self:
            self.join(timeout)

    def run(self) -> None:
        """Poll until :meth:`stop` (daemon: dies with the process)."""
        while not self._halt.wait(self.poll_interval()):
            self.poll_once()
