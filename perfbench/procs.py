"""Start and stop the shard broker and its pull workers as real processes.

Standard library only, so a benchmark process can launch the broker before
it imports ``repro`` and the two imports overlap.  Every process started
here is stopped and waited for by :meth:`Services.stop`.
"""

from __future__ import annotations

import os
import secrets
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seconds a stopped broker or worker gets to exit before it is killed.
STOP_TIMEOUT_S = 15.0


class Services:
    """One ``repro shard-broker`` and its ``repro shard-worker --broker`` peers.

    All of them share a random ``REPRO_SHARD_KEY``, so every frame on the
    wire is HMAC-checked.
    """

    def __init__(self) -> None:
        self.key = secrets.token_hex(16)
        self.broker: subprocess.Popen | None = None
        self.workers: list[subprocess.Popen] = []
        self._address: str | None = None

    def _spawn(self, *args: str, stdout=subprocess.DEVNULL) -> subprocess.Popen:
        env = dict(os.environ, REPRO_SHARD_KEY=self.key, PYTHONPATH=str(ROOT / "src"))
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            cwd=ROOT,
            env=env,
            stdout=stdout,
            text=True,
        )

    def start_broker(self) -> None:
        """Launch the broker on an ephemeral port (idempotent)."""
        if self.broker is None:
            self.broker = self._spawn(
                "shard-broker", "--listen", "127.0.0.1:0", stdout=subprocess.PIPE
            )

    def address(self) -> str:
        """The broker's bound ``host:port``, read from its start-up banner."""
        if self._address is None:
            self.start_broker()
            banner = self.broker.stdout.readline()
            if not banner.startswith("shard-broker listening on "):
                raise RuntimeError(f"shard-broker did not start: {banner!r}")
            self._address = banner.rsplit(" ", 1)[-1].strip()
        return self._address

    def start_workers(self, count: int) -> None:
        address = self.address()
        for _ in range(count):
            self.workers.append(self._spawn("shard-worker", "--broker", address))

    def stop_workers(self) -> None:
        _stop(self.workers)
        self.workers = []

    def stop(self) -> None:
        """Stop the workers, then the broker, waiting for each to exit."""
        self.stop_workers()
        if self.broker is not None:
            _stop([self.broker])
            self.broker.stdout.close()
            self.broker = None


def _stop(processes: list[subprocess.Popen]) -> None:
    for process in processes:
        if process.poll() is None:
            process.terminate()
    for process in processes:
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
