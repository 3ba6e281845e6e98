# hippolint-fixture: src/repro/engine/feed.py
"""Bad: a path reaches the manifest mutation with the lock released, or
no lock is taken at all."""


class Feed:
    def compact(self, fast: bool) -> None:
        if fast:
            with self._manifest_lock():
                self._merge_disk_retention()
        # Outside the with: on every path the lock is already released
        # by the time the sweep mutates segment state.
        self._sweep_orphans()


class ChangeFeed:
    def _reclaim(self) -> None:
        # No lock anywhere: every manifest-state call is flagged.
        self._merge_disk_retention()
        self._sweep_orphans()
        self._atomic_json(self.directory / MANIFEST, {"segments": []})
