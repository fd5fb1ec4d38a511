"""Shared plumbing for the perfbench workloads.

Everything here is workload-agnostic: locating and importing the
checkout's own ``repro`` package, summary statistics, the run's
environment fingerprint, the scratch directory a run may write to, and
the :class:`Run` record a workload fills in and ``run.py`` prints.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A tail percentile is reported only where at least this many samples
#: lie beyond it (below that, the slowest sample is reported instead).
TAIL_SAMPLES_BEYOND = 10


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program to measure)."""


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    A directory holding only the benchmark has no program to measure:
    that must fail loudly rather than pick up some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SetupError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return repro


def child_env() -> Dict[str, str]:
    """Environment for a child process running this checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# -- statistics ---------------------------------------------------------------
# Kept apart from the program's own quantile helpers on purpose: the
# benchmark must keep measuring when the program changes or drops them.

def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = pct / 100.0 * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (
        position - lower)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float], cap: float = 99.0):
    """``(value, basis)``: the highest percentile up to ``cap`` that
    leaves at least :data:`TAIL_SAMPLES_BEYOND` samples beyond it.

    With too few samples for even the median to qualify, the slowest
    sample is the honest tail, and ``basis`` says so.
    """
    n = len(values)
    if n == 0:
        return 0.0, "none of 0"
    pct = min(cap, 100.0 * (1.0 - TAIL_SAMPLES_BEYOND / n))
    if pct < 50.0:
        return max(values), f"max of {n}"
    return percentile(values, pct), f"p{pct:g} of {n}"


def summary(values: Sequence[float], scale: float = 1.0,
            digits: int = 6) -> Dict[str, object]:
    """Median and supported tail of ``values`` (times ``scale``)."""
    value, basis = tail(values)
    return {"n": len(values),
            "median": round(median(values) * scale, digits),
            "tail": round(value * scale, digits),
            "tail_basis": basis}


# -- process facts --------------------------------------------------------------

def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_steal_s() -> Optional[float]:
    """Seconds of CPU the hypervisor gave to others, summed over this
    machine's CPUs since boot (Linux). The change across a run tells a
    noisy neighbour from a slow program."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def settle() -> None:
    """Collect garbage so it is not charged to the next timed region."""
    gc.collect()


def environment(seed: int, workload: str, scale: str,
                seconds: float, trace: bool) -> Dict[str, object]:
    """The fingerprint every result carries."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import orjson
        orjson_version: Optional[str] = orjson.__version__
    except ImportError:
        orjson_version = None
    return {"git_sha": _git_sha(), "workload": workload, "seed": seed,
            "scale": scale, "seconds": seconds, "trace": trace,
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version, "orjson": orjson_version}


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        base = ROOT / ".perfbench-work"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=base))

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass    # another run still uses it


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- a run's inputs ----------------------------------------------------------------

class Context:
    """What a workload needs from the command line."""

    def __init__(self, scale: str, seed: int, seconds: float,
                 trace: bool, tamper: bool, workdir: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tamper = tamper
        self.workdir = workdir

    def config(self):
        """The world every workload runs on: the ``--scale`` preset at
        its stock seed (``default`` is the paper-scale world)."""
        from repro import ScenarioConfig
        return getattr(ScenarioConfig, self.scale)()

    def expected(self, digest: str) -> str:
        """The digest a check compares against (corrupted on request,
        so the self-test can prove a wrong answer is counted)."""
        return ("0" * 64) if self.tamper else digest


def timed(fn: Callable):
    """``(fn(), seconds)`` after collecting garbage untimed."""
    settle()
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


# -- the result -------------------------------------------------------------------

@dataclass
class Run:
    """What one workload run measured and checked.

    ``e2e`` and ``layers`` map metric names to values; ``details`` holds
    everything else worth printing (sample counts, tail bases, the
    latency split). Correctness is counted per operation: a check that
    fails adds to ``failed``, never aborts the run.
    """

    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def load_declared() -> Dict[str, Dict[str, Dict[str, str]]]:
    """The metric declarations of ``BENCHMARK.json`` (names and units)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def result_line(run: Run, trace: bool) -> Dict[str, object]:
    """The final output object, holding exactly the declared metrics.

    Per-layer metrics a workload does not exercise read 0 and are listed
    in the details; a metric a workload produces but ``BENCHMARK.json``
    does not declare is a harness bug and fails the run.
    """
    declared = load_declared()["per_layer" if trace else "end_to_end"]
    produced = run.layers if trace else run.e2e
    unknown: Set[str] = set(produced) - set(declared)
    if unknown:
        raise RuntimeError(f"undeclared metrics: {sorted(unknown)}")
    missing = [name for name in declared if name not in produced]
    if missing and not trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    run.details["not_exercised"] = missing
    metrics = {name: {"value": produced.get(name, 0),
                      "unit": spec["unit"]}
               for name, spec in declared.items()}
    return {"correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}
