"""Process-level plumbing of cods-e2e: where files go, what a process
cost, and the served database of ``htap_wire``."""

from __future__ import annotations

import ctypes
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space inside the checkout (git-ignored, removed after use).
WORK_ROOT = ROOT / ".bench_work"

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """In the child, before exec: have the kernel kill it when the
    generator dies, however that happens (Linux)."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


@dataclass
class RunConfig:
    seed: int
    seconds: float
    reps: int = 3
    smoke: bool = False
    workdir: Path = field(default_factory=lambda: WORK_ROOT / str(os.getpid()))

    def scratch(self, name: str) -> Path:
        """A fresh empty directory under the run's work directory."""
        path = self.workdir / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def directory_bytes(path) -> int:
    return sum(
        entry.stat().st_size for entry in Path(path).iterdir()
        if entry.is_file()
    )


class ServerProcess:
    """``python -m repro.server --data DIR --durability group`` as a
    subprocess, on an ephemeral port."""

    def __init__(self, data_dir, compactor: bool,
                 startup_timeout: float = 60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--data", str(data_dir),
             "--durability", "group", "--port", "0"]
            + ([] if compactor else ["--no-compact"]),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
            preexec_fn=_die_with_parent,
        )
        # readline() has no timeout of its own: a server that neither
        # announces itself nor exits is killed, which ends the read.
        watchdog = threading.Timer(startup_timeout, self.process.kill)
        watchdog.start()
        try:
            banner = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        match = re.search(r" on ([\d.]+):(\d+) ", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """Graceful shutdown (SIGINT drains, checkpoints and closes);
        the process is killed if that takes too long, and always
        waited for."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
