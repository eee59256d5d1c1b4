"""The snapshot container format: framing, versioning, code
fingerprints, fail-closed reads.

Every rejection path must raise the structured :class:`SnapshotError`
(never a bare ``pickle``/``struct`` exception): resumable campaigns
catch ``ReproError`` to decide "discard the checkpoint and start over",
so an unstructured error would abort the campaign instead.
"""

import struct

import pytest

from repro.errors import ReproError, SnapshotError
from repro.keying import code_fingerprint
from repro.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    container,
    read_header,
    read_snapshot,
    verify_snapshot,
    write_snapshot,
)

HEADER = {"kind": "test", "cycle": 42}
PAYLOAD = {"state": [1, 2, 3], "nested": {"a": (4, 5)}}


@pytest.fixture
def snap(tmp_path):
    path = tmp_path / "s.snap"
    write_snapshot(path, HEADER, PAYLOAD)
    return path


class TestRoundTrip:
    def test_read_returns_header_and_payload(self, snap):
        header, payload = read_snapshot(snap)
        assert payload == PAYLOAD
        assert header["kind"] == "test"
        assert header["cycle"] == 42

    def test_version_is_stamped_not_supplied(self, snap, tmp_path):
        assert read_header(snap)["format_version"] == FORMAT_VERSION
        with pytest.raises(SnapshotError, match="reserved"):
            write_snapshot(
                tmp_path / "bad.snap", {"format_version": 9}, PAYLOAD
            )

    def test_read_header_skips_payload(self, snap):
        """Header parse must succeed even when the payload is torn —
        that is what makes ``snapshot inspect`` and the runner's
        ``task_resumed`` probe cheap."""
        blob = snap.read_bytes()
        snap.write_bytes(blob[: len(blob) - 8])  # tear the trailer
        assert read_header(snap)["cycle"] == 42
        with pytest.raises(SnapshotError):
            read_snapshot(snap)

    def test_write_is_atomic_no_tmp_left_behind(self, snap, tmp_path):
        assert list(tmp_path.iterdir()) == [snap]


class TestFailClosed:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="no such snapshot"):
            read_snapshot(tmp_path / "absent.snap")
        with pytest.raises(SnapshotError, match="no such snapshot"):
            read_header(tmp_path / "absent.snap")

    def test_bad_magic(self, snap):
        blob = snap.read_bytes()
        snap.write_bytes(b"NOTASNAP" + blob[len(MAGIC):])
        with pytest.raises(SnapshotError, match="bad magic"):
            read_header(snap)
        with pytest.raises(SnapshotError):  # digest breaks first here
            read_snapshot(snap)

    def test_unsupported_future_version(self, snap):
        blob = bytearray(snap.read_bytes())
        blob[len(MAGIC):len(MAGIC) + 4] = struct.pack(
            ">I", FORMAT_VERSION + 1
        )
        snap.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="not supported"):
            read_header(snap)
        with pytest.raises(SnapshotError):
            read_snapshot(snap)

    def test_flipped_payload_byte_fails_digest_check(self, snap):
        blob = bytearray(snap.read_bytes())
        blob[-40] ^= 0xFF  # inside the payload
        snap.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="corrupt"):
            read_snapshot(snap)

    def test_truncation_everywhere(self, snap):
        """Cutting the file at any point must raise SnapshotError."""
        blob = snap.read_bytes()
        for cut in (0, 4, len(MAGIC) + 2, len(blob) // 2, len(blob) - 1):
            snap.write_bytes(blob[:cut])
            with pytest.raises(SnapshotError):
                read_snapshot(snap)

    def test_snapshot_error_is_a_repro_error(self):
        assert issubclass(SnapshotError, ReproError)


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)
    return "unpickled"


class _Tripwire:
    """Unpickling this records that it happened."""

    def __reduce__(self):
        return _record_unpickling, ()


class TestCodeFingerprint:
    """Every container is stamped with the code that wrote it, and a
    read by other code refuses it before anything is unpickled."""

    @pytest.fixture
    def foreign(self, tmp_path, monkeypatch):
        path = tmp_path / "foreign.snap"
        monkeypatch.setattr(container, "code_fingerprint", lambda: "f" * 20)
        write_snapshot(path, HEADER, {"tripwire": _Tripwire()})
        monkeypatch.undo()
        UNPICKLED.clear()
        return path

    def test_fingerprint_is_stamped_not_supplied(self, snap, tmp_path):
        assert read_header(snap)["code_fingerprint"] == code_fingerprint()
        with pytest.raises(SnapshotError, match="reserved"):
            write_snapshot(
                tmp_path / "bad.snap", {"code_fingerprint": "x"}, PAYLOAD
            )

    def test_foreign_fingerprint_refused_before_unpickling(self, foreign):
        assert read_header(foreign)["code_fingerprint"] == "f" * 20
        for read in (read_snapshot, verify_snapshot):
            with pytest.raises(SnapshotError) as error:
                read(foreign)
            assert "f" * 20 in str(error.value)
            assert code_fingerprint() in str(error.value)
        assert UNPICKLED == []

    def test_verify_checks_the_trailer(self, snap):
        blob = snap.read_bytes()
        snap.write_bytes(blob[:-8])
        assert read_header(snap)["cycle"] == 42
        with pytest.raises(SnapshotError, match="digest mismatch"):
            verify_snapshot(snap)

    def test_own_fingerprint_unpickles(self, tmp_path):
        path = tmp_path / "own.snap"
        write_snapshot(path, HEADER, {"tripwire": _Tripwire()})
        UNPICKLED.clear()
        assert verify_snapshot(path)["cycle"] == 42
        assert UNPICKLED == []
        assert read_snapshot(path)[1] == {"tripwire": "unpickled"}
        assert UNPICKLED == [True]
