# hippolint-fixture: src/repro/engine/feed.py
"""Good: the lock context flows through a variable; the must-analysis
still proves it held at every mutation (a purely lexical check cannot).
"""


class Feed:
    def compact(self) -> None:
        guard = self._manifest_lock()
        with guard:
            self._merge_disk_retention()
            self._sweep_orphans()

    def store(self) -> None:
        with self._manifest_lock():
            self._merge_disk_retention()

    def _reclaim(self) -> None:
        with self._manifest_lock():
            self._merge_disk_retention()
            self._sweep_orphans()
            self._atomic_json(self.directory / MANIFEST, {"segments": []})

    def _offsets(self) -> None:
        # Non-manifest writes need no lock.
        self._atomic_json(self.directory / COMMITS, {"offsets": {}})
