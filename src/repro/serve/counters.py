"""Named counters behind their own lock.

The service bumps its counters from submitter and worker threads and
the router from every routing thread; readers (`FleetShard.stats`, the
benches, the repo benchmark) index them like the dict they replace.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator, Mapping


class Counters(Mapping):
    """A fixed set of counters: writers go through :meth:`bump` /
    :meth:`add_seconds`, readers see a read-only mapping."""

    def __init__(self, counts: Iterable[str], seconds: Iterable[str] = ()):
        self._lock = threading.Lock()
        self._values = dict.fromkeys(counts, 0) | dict.fromkeys(seconds, 0.0)

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._values[name] += n

    def add_seconds(self, **seconds: float) -> None:
        """Advance several second totals in one step."""
        with self._lock:
            for name, dt in seconds.items():
                self._values[name] += dt

    def snapshot(self) -> dict:
        """All counters as of one instant (``dict(counters)`` reads
        them one by one)."""
        with self._lock:
            return dict(self._values)

    def __getitem__(self, name: str):
        with self._lock:
            return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)  # the key set is fixed at construction

    def __len__(self) -> int:
        return len(self._values)
