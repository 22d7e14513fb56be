"""A pool of forked worker processes that share the codec's work.

`share(run, requests)` runs `run(requests[0])` in this process and
`run(requests[w])` on worker w, where `run` turns a request into a reply.
A worker is a fork of this process, made by the first call that needs it
and reused by every later one, so a call pays only the round trips of
its request and reply.  They travel over pipes as pickles, the numpy
arrays they hold out of band (`_send`).

The codec imports this module only once a call uses the pool, so that
importing the package compiles none of it.

No worker outlives its owner.  `close_pool` stops and reaps every worker
and runs at exit; a worker ignores SIGINT and exits once its request pipe
ends; and a child this process forks closes its copies of the pool's
pipes (`_forget_pool`), so that neither a later worker nor a user's fork
keeps a worker alive.  A worker that dies is named by its exit status
and replaced by the next call, and one that still holds a request when
`share` raises is killed and reaped, so that no reply is left unread.
"""

from __future__ import annotations

import atexit
import gc
import os
import pickle
import signal
import struct


def _send(fd: int, message) -> None:
    """Pickle `message` onto a pipe.  The numpy arrays it holds travel out
    of band, as raw bytes after the pickle, which saves two copies of
    each; a header counts the parts and gives their sizes."""
    buffers = []
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL, buffer_callback=buffers.append)
    parts = [memoryview(data), *(buffer.raw() for buffer in buffers)]
    head = struct.pack(f"<{1 + len(parts)}Q", len(parts), *(p.nbytes for p in parts))
    parts.insert(0, memoryview(head))
    while parts:
        sent = os.writev(fd, parts)
        while parts and sent >= parts[0].nbytes:
            sent -= parts.pop(0).nbytes
        if sent:
            parts[0] = parts[0][sent:]


def _read(fd: int, size: int) -> bytearray | None:
    """`size` bytes from a pipe, or None if it ended first."""
    out = bytearray(size)
    view, got = memoryview(out), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if n == 0:
            return None
        got += n
    return out


def _receive(fd: int):
    """The next message `_send` framed on pipe `fd`, or None if the pipe
    ended first."""
    head = _read(fd, 8)
    sizes = None if head is None else _read(fd, 8 * struct.unpack("<Q", head)[0])
    if sizes is None:
        return None
    parts = [_read(fd, size) for size in struct.unpack(f"<{len(sizes) // 8}Q", sizes)]
    if None in parts:
        return None
    return pickle.loads(parts[0], buffers=parts[1:])


def _serve(run, requests: int, replies: int) -> None:
    """A worker: answer each request on pipe `requests` with `run(request)`
    on pipe `replies`, and exit once the request pipe ends.  SIGINT is the
    owner's to handle."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        while (request := _receive(requests)) is not None:
            _send(replies, run(request))
        code = 0
    finally:
        os._exit(code)


class _Worker:
    """A worker as its owner sees it: its pid, the pipe it reads requests
    from and the pipe it answers on."""

    def __init__(self, run) -> None:
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        # Collections skip frozen objects, so neither process's collector
        # writes to, and so copies, the pages the two share after the fork.
        # The owner thaws its objects, unless it had frozen some itself.
        thaw, pid = not gc.get_freeze_count(), -1
        gc.freeze()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (req_r, req_w, rep_r, rep_w):
                os.close(fd)
            raise
        finally:
            if thaw and pid != 0:
                gc.unfreeze()
        if pid == 0:
            os.close(req_w)
            os.close(rep_r)
            _serve(run, req_r, rep_w)
        os.close(req_r)
        os.close(rep_w)
        self.pid = pid
        self.requests: int | None = req_w
        self.replies: int | None = rep_r

    def ask(self, request) -> None:
        try:
            _send(self.requests, request)
        except BrokenPipeError:
            self.died()

    def answer(self):
        reply = _receive(self.replies)
        if reply is None:
            self.died()
        return reply

    def died(self):
        """Drop from the pool and reap a worker whose pipe ended, and raise
        RuntimeError naming its exit status."""
        _POOL.remove(self)
        raise RuntimeError(f"codec worker {self.pid} exited with status {self.reap()}")

    def exited(self) -> bool:
        """Whether the worker has exited; one that has is reaped."""
        try:
            if os.waitpid(self.pid, os.WNOHANG) == (0, 0):
                return False
        except ChildProcessError:  # reaped elsewhere
            pass
        self.close()
        return True

    def reap(self, kill: bool = False) -> int | None:
        """Close the pipes, SIGKILL the worker if `kill`, and reap it;
        returns its exit status, or None if it was reaped elsewhere."""
        self.close()
        try:
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        except (ProcessLookupError, ChildProcessError):
            return None

    def close(self) -> None:
        """Close this process's ends of the worker's pipes: the worker
        exits once no process holds its request pipe."""
        for fd in (self.requests, self.replies):
            if fd is not None:
                os.close(fd)
        self.requests = self.replies = None


#: The workers this process forked and owns.
_POOL: list[_Worker] = []


def _workers(run, count: int) -> list[_Worker]:
    """The first `count` workers, forking any that are missing to serve
    `run`.  A worker found exited is reaped and replaced."""
    _POOL[:] = [worker for worker in _POOL if not worker.exited()]
    while len(_POOL) < count:
        _POOL.append(_Worker(run))
    return _POOL[:count]


def close_pool() -> None:
    """Stop and reap every worker.  The next call that needs the pool
    forks new ones; this also runs at exit."""
    workers, _POOL[:] = list(_POOL), []
    for worker in workers:
        worker.close()
    for worker in workers:
        worker.reap()


def _forget_pool() -> None:
    """In a forked child: close the inherited pipes of the parent's
    workers, so that the child keeps none of them alive."""
    for worker in _POOL:
        worker.close()
    _POOL.clear()


atexit.register(close_pool)
os.register_at_fork(after_in_child=_forget_pool)


def share(run, requests: list) -> list:
    """`run(request)` of each request, in order: request 0 runs here and
    request w on worker w.  Every call passes the same `run`, which the
    workers were forked to serve.  Raises what the run here raised, else
    RuntimeError naming the exit status of a worker that died; either way
    a worker still holding its request is killed and reaped."""
    held = []
    try:
        for worker, request in zip(_workers(run, len(requests) - 1), requests[1:]):
            held.append(worker)
            worker.ask(request)
        replies = [run(requests[0])]
        while held:
            replies.append(held[0].answer())
            held.pop(0)
    finally:
        for worker in held:
            if worker in _POOL:
                _POOL.remove(worker)
                worker.reap(kill=True)
    return replies
