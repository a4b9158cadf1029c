"""The package's text files: one reader and one writer for every file of
lines, merge tables and stdin included, and the JSON writer.

A file is read as strict UTF-8, one line at a time without its newline; one
that is not UTF-8 is refused, naming it (``<stdin>`` for stdin). Only ``\n``
ends a line: a ``\r`` directly before it is dropped with it, so a CRLF file
reads as its LF twin, and any other ``\r`` is text, so a lone ``\r`` never
splits one line of a parallel file into two. A file is written to
``<path>.tmp``, its parent directory created if missing, and renamed into
place when complete, so a write cut short leaves the path as it was.
"""

import contextlib
import io
import json
import os
import sys


class TextFileError(ValueError):
    pass


def _decoded_lines(fh, name):
    try:
        for line in fh:
            yield line[:-2] if line.endswith("\r\n") else line.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise TextFileError("%s is not UTF-8 text: %s" % (name, exc)) from None


def iter_lines(path):
    """Yield the lines of a UTF-8 text file, without their newlines. A file
    that is not UTF-8 is refused, naming it."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        yield from _decoded_lines(fh, path)


def iter_stdin_lines():
    """Yield the lines of stdin as ``iter_lines`` does, decoding its bytes
    as strict UTF-8. The decoder is detached when done, so ``sys.stdin``
    stays open."""
    fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="\n")
    try:
        yield from _decoded_lines(fh, "<stdin>")
    finally:
        fh.detach()


def read_lines(path) -> list:
    """The lines of a UTF-8 text file, without their newlines."""
    return list(iter_lines(path))


@contextlib.contextmanager
def atomic_open(path):
    """A UTF-8 text file open for writing at ``path + ".tmp"``, renamed to
    ``path`` when the block completes and removed when it raises, so
    ``path`` is never torn and may be read while the block writes."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_columns(paths, rows):
    """Write item k of each row as one line of ``paths[k]``, all files at
    once and each atomically (``atomic_open``), creating parent directories.
    ``rows`` is consumed one row at a time."""
    for path in paths:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(atomic_open(path)) for path in paths]
        for row in rows:
            for fh, line in zip(files, row):
                fh.write(line + "\n")


def write_lines(path, lines):
    """Write one line per item of ``lines`` to ``path`` (``write_columns``)."""
    write_columns([path], zip(lines))


def write_json(path, obj):
    """Write ``obj`` as indented JSON with sorted keys (``write_lines``)."""
    write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])
