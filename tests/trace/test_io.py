"""Trace persistence: npz and text round-trips."""

import numpy as np
import pytest

from repro.trace.interchange import FileTraceSource, import_text
from repro.trace.io import dump_text, load_trace, save_trace
from tests.conftest import make_random_trace


def traces_equal(a, b):
    return (
        a.num_nodes == b.num_nodes
        and np.array_equal(a.writer, b.writer)
        and np.array_equal(a.pc, b.pc)
        and np.array_equal(a.home, b.home)
        and np.array_equal(a.block, b.block)
        and np.array_equal(a.truth, b.truth)
        and np.array_equal(a.inval, b.inval)
        and np.array_equal(a.has_inval, b.has_inval)
        and np.array_equal(a.close, b.close)
    )


class TestNpzRoundtrip:
    def test_roundtrip(self, tmp_path, random_trace):
        path = tmp_path / "trace.npz"
        save_trace(random_trace, path)
        loaded = load_trace(path)
        assert traces_equal(random_trace, loaded)
        assert loaded.name == random_trace.name

    def test_empty_trace(self, tmp_path):
        from repro.trace.events import SharingTrace

        path = tmp_path / "empty.npz"
        save_trace(SharingTrace.from_epochs(16, [], name="empty"), path)
        assert len(load_trace(path)) == 0

    def test_version_check(self, tmp_path, random_trace):
        path = tmp_path / "trace.npz"
        save_trace(random_trace, path)
        # corrupt the version field
        data = dict(np.load(path, allow_pickle=False))
        data["version"] = np.int64(999)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError):
            load_trace(path)


class TestTextRoundtrip:
    """``dump_text`` output reads back through ``import_text``."""

    def test_roundtrip(self, tmp_path):
        trace = make_random_trace(num_events=50, seed="text")
        path = tmp_path / "trace.txt"
        dump_text(trace, path)
        import_text(path, tmp_path / "trace.rtrace")
        parsed = FileTraceSource(tmp_path / "trace.rtrace").materialize()
        assert traces_equal(trace, parsed)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 0 5 0x0 0x0 0 1\n")
        with pytest.raises(ValueError):
            import_text(path, tmp_path / "bad.rtrace")
        assert not (tmp_path / "bad.rtrace").exists()

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# nodes=4\n0 1 0\n")
        with pytest.raises(ValueError):
            import_text(path, tmp_path / "bad.rtrace")
        assert not (tmp_path / "bad.rtrace").exists()

    def test_text_is_human_readable(self, tmp_path, tiny_trace):
        path = tmp_path / "tiny.txt"
        dump_text(tiny_trace, path)
        content = path.read_text()
        assert "nodes=4" in content
        assert content.count("\n") == len(tiny_trace) + 2  # 2 header lines
