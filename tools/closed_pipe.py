"""Quiet exit for the tools when the reader of their output goes away.

A tool whose output is cut off (`tool.py | head -1`) meets a closed pipe
at its next write: Python raises BrokenPipeError there, or at the flush
at exit, and prints a traceback.  Wrapping a tool's `main` in
`exits_on_closed_pipe` stops the tool at that write instead: `main`
returns 1, and stdout is pointed at devnull so that the flush at exit
raises nothing more.  The wrapper flushes stdout before `main` returns,
so output still buffered at the end meets the pipe inside it too.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Callable


def exits_on_closed_pipe(main: Callable[..., int]) -> Callable[..., int]:
    """`main`, returning 1 without a traceback once stdout's reader has gone."""

    @functools.wraps(main)
    def run(*args, **kwargs) -> int:
        try:
            status = main(*args, **kwargs)
            sys.stdout.flush()
            return status
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1

    return run
