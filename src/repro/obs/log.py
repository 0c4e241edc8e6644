"""Structured CLI logging with verbosity control.

A deliberately small logger for the command-line layer — stdlib
``logging`` routes every level through one stream, while the CLI needs
the split that keeps its contract with scripts and tests intact:

* **result** lines (tables, rates — the command's actual output) always
  go to stdout;
* **info** lines (progress, "wrote N records to PATH") go to stdout but
  are suppressed by ``--quiet``;
* **debug** lines go to stderr, shown only under ``--verbose``, and
  carry a ``[component]`` prefix for grep-ability;
* **warning/error** lines always go to stderr with a level prefix.

Verbosity is process-global (set once by ``repro.cli.main`` from
``-q``/``-v``); loggers are cheap named views onto it.
"""

from __future__ import annotations

import sys
from typing import Any, TextIO

DEBUG = 10
INFO = 20
QUIET = 30

_level = INFO


def configure(verbose: bool = False, quiet: bool = False) -> None:
    """Set the process-wide verbosity from the CLI flags.

    ``quiet`` wins over ``verbose`` when both are given — scripted
    callers that force ``-q`` expect silence regardless of defaults.
    """
    global _level
    if quiet:
        _level = QUIET
    elif verbose:
        _level = DEBUG
    else:
        _level = INFO


class Logger:
    """A named view onto the process-wide verbosity."""

    def __init__(self, name: str):
        self.name = name

    def _write(self, stream: TextIO, text: str) -> None:
        # A downstream `| head` closing the pipe is a normal way to
        # consume CLI output, not an error worth a traceback.
        try:
            stream.write(text + "\n")
        except BrokenPipeError:
            pass

    def debug(self, msg: str, *args: Any) -> None:
        """Diagnostic detail; stderr, only under ``--verbose``."""
        if _level <= DEBUG:
            self._write(sys.stderr, f"[{self.name}] {msg % args if args else msg}")

    def info(self, msg: str, *args: Any) -> None:
        """Progress/context; stdout, suppressed by ``--quiet``."""
        if _level <= INFO:
            self._write(sys.stdout, msg % args if args else msg)

    def result(self, msg: str, *args: Any) -> None:
        """The command's actual output; always on stdout."""
        self._write(sys.stdout, msg % args if args else msg)

    def warning(self, msg: str, *args: Any) -> None:
        """Always on stderr, ``warning:`` prefix."""
        self._write(sys.stderr,
                    f"warning: {msg % args if args else msg}")

    def error(self, msg: str, *args: Any) -> None:
        """Always on stderr, ``error:`` prefix."""
        self._write(sys.stderr, f"error: {msg % args if args else msg}")


def get_logger(name: str) -> Logger:
    """A logger named after its component (module or subcommand)."""
    return Logger(name)
