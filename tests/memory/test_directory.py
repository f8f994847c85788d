"""Directory entries and sharer bookkeeping."""

from repro.memory.directory import Directory, DirectoryEntry, DirState


class TestDirectoryEntry:
    def test_initial_state(self):
        entry = DirectoryEntry(block=5, home=2)
        assert entry.state is DirState.UNCACHED
        assert entry.owner is None
        assert entry.sharers == 0

    def test_sharer_bitmap(self):
        entry = DirectoryEntry(block=5, home=2)
        entry.add_sharer(0)
        entry.add_sharer(3)
        assert entry.sharers == 0b1001
        assert entry.has_sharer(3)
        assert not entry.has_sharer(1)
        entry.remove_sharer(0)
        assert entry.sharers == 0b1000

    def test_add_sharer_idempotent(self):
        entry = DirectoryEntry(block=5, home=2)
        entry.add_sharer(1)
        entry.add_sharer(1)
        assert entry.sharers == 0b0010

    def test_remove_absent_sharer_noop(self):
        entry = DirectoryEntry(block=5, home=2)
        entry.remove_sharer(1)
        assert entry.sharers == 0


class TestDirectory:
    def test_entry_created_on_demand(self):
        directory = Directory()
        entry = directory.entry(5, home=2)
        assert entry.block == 5
        assert entry.home == 2
        assert len(directory) == 1

    def test_entry_is_stable(self):
        directory = Directory()
        first = directory.entry(5, home=2)
        second = directory.entry(5, home=7)  # home argument ignored on reuse
        assert first is second
        assert second.home == 2

    def test_get_missing_returns_none(self):
        assert Directory().get(5) is None
