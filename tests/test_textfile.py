import os
import threading

import pytest

from specmatch.textfile import write_text

CHUNKS = ["first line\n", "", "second line\n", "x" * 5000 + "\n"]
TEXT = "".join(CHUNKS)


def test_new_file_holds_the_chunks(tmp_path):
    path = tmp_path / "new.txt"
    write_text(str(path), iter(CHUNKS))
    assert path.read_text() == TEXT


def test_longer_file_rewritten_shorter_leaves_no_tail(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n" * 10_000)
    write_text(str(path), CHUNKS)
    assert path.read_text() == TEXT
    assert path.stat().st_size == len(TEXT)


def test_symlink_is_kept_and_its_target_updated(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old\n" * 10_000)
    link.symlink_to(target)
    write_text(str(link), CHUNKS)
    assert link.is_symlink()
    assert target.read_text() == TEXT


def test_hard_link_sees_the_new_content(tmp_path):
    path, other = tmp_path / "out.txt", tmp_path / "other.txt"
    path.write_text("old\n" * 10_000)
    os.link(path, other)
    inode = path.stat().st_ino
    write_text(str(path), CHUNKS)
    assert path.stat().st_ino == inode
    assert other.read_text() == TEXT


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_fifo_gets_no_truncate(tmp_path):
    # ftruncate fails on a pipe (EINVAL), so the write succeeds only if the
    # writer leaves a target that is not a regular file uncut
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    # a daemon, so a writer that replaced the pipe cannot hang the suite
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    try:
        write_text(str(fifo), CHUNKS)
    finally:
        reader.join(timeout=10)
    assert received == [TEXT]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_file_mode_matches_open_w(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_text(str(tmp_path / "ours.txt"), CHUNKS)
        with open(tmp_path / "theirs.txt", "w") as fh:
            fh.write(TEXT)
    finally:
        os.umask(old)
    assert (tmp_path / "ours.txt").stat().st_mode == (tmp_path / "theirs.txt").stat().st_mode
