"""The set-up helper: a child interpreter that runs functions on request.

The parent (``harness.Helper``) writes pickled ``(function, arguments)``
pairs to this process's stdin and reads a pickled ``(ok, value)`` back for
each; when stdin ends, so does this process. A plain subprocess that its
parent waits for, not a ``multiprocessing`` pool: the spawn context also
starts a resource tracker, and that one outlives the process that started it.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback


def main() -> None:
    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)   # whatever a function prints must not land among replies
    while True:
        try:
            fn, args = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = (True, fn(*args))
        except Exception:  # noqa: BLE001 - reported to, and raised in, the parent
            reply = (False, traceback.format_exc())
        pickle.dump(reply, replies)
        replies.flush()


if __name__ == "__main__":
    main()
