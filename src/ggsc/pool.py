"""A pool of forked worker processes that share the codec's work.

`share(calls, shares)` runs calls, each a (function, args) pair, and
returns their results in call order: share 0 of them runs in this
process and share w on worker w, each through `_run`.  A worker is a
fork of this process, made by the first call that needs it and reused
by every later one, so a call pays only the round trips of its request
and reply.  They travel over pipes as pickles, the functions by
reference and the numpy arrays out of band (`_send`).  For the length
of a call, each process that serves it runs on a CPU of its own where
it can (`share`).

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


def _read(fd: int, size: int) -> bytearray:
    """`size` bytes from a pipe; EOFError if it ends first."""
    out = bytearray(size)
    view, got = memoryview(out), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if n == 0:
            raise EOFError(f"pipe {fd} ended")
        got += n
    return out


def _receive(fd: int):
    """The next message `_send` framed on pipe `fd`; EOFError if the pipe
    ends first, so that the end is never taken for a message of None."""
    count = struct.unpack("<Q", _read(fd, 8))[0]
    sizes = struct.unpack(f"<{count}Q", _read(fd, 8 * count))
    parts = [_read(fd, size) for size in sizes]
    return pickle.loads(parts[0], buffers=parts[1:])


def _run(calls) -> dict[int, tuple[bool, object]]:
    """Outcomes of `calls` (index, function, args), run in order up to the
    first that raises: a later call of the share cannot hold the first
    error."""
    out = {}
    for i, fn, args in calls:
        try:
            out[i] = (True, fn(*args))
        except Exception as exc:  # noqa: BLE001 - raised by `share`
            out[i] = (False, exc)
            break
    return out


def _serve(requests: int, replies: int) -> None:
    """A worker: answer each request on pipe `requests` with `_run(request)`
    on pipe `replies`, and exit once the request pipe ends.  SIGINT is the
    owner's to handle."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        while True:
            try:
                request = _receive(requests)
            except EOFError:
                break
            _send(replies, _run(request))
        code = 0
    finally:
        os._exit(code)


class _Worker:
    """A worker as its owner sees it: its pid, the pipe it reads requests
    from and the pipe it answers on."""

    def __init__(self) -> None:
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
            _serve(req_r, rep_w)
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
        try:
            return _receive(self.replies)
        except EOFError:
            self.died()

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


def _workers(count: int) -> list[_Worker]:
    """The first `count` workers, forking any that are missing.  A worker
    found exited is reaped and replaced."""
    _POOL[:] = [worker for worker in _POOL if not worker.exited()]
    while len(_POOL) < count:
        _POOL.append(_Worker())
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


def _pin(pid: int, cpus) -> None:
    """Best effort: keep process `pid` (0: this one) on `cpus`.  Where the
    call fails, as for a worker that just died or in a sandbox that
    forbids it, placement stays with the scheduler."""
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass


def share(calls: list[tuple], shares: list[list[int]]) -> list:
    """Results of `calls` (function, args), in call order.  `shares` lists
    call indices: share 0 runs here and share w on worker w.  Raises what
    escapes `_run` here (an interrupt), else RuntimeError naming the exit
    status of a worker that died, else the exception of the first call in
    call order that raised; a worker still holding its request when this
    raises is killed and reaped.

    For the call, this process runs on the first CPU of its affinity set
    and worker w on CPU w, round robin: a scheduler that does not balance
    load (a cpuset without `sched_load_balance`) would otherwise keep a
    worker on the CPU its owner forked it on.  The owner's own set comes
    back however the call ends.  Without `os.sched_setaffinity`, placement
    stays with the scheduler."""
    requests = [[(i, *calls[i]) for i in indices] for indices in shares]
    held = []
    own = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    try:
        workers = _workers(len(requests) - 1)
        if own:
            cpus = sorted(own)
            for w, pid in enumerate([0, *(worker.pid for worker in workers)]):
                _pin(pid, (cpus[w % len(cpus)],))
        for worker, request in zip(workers, requests[1:]):
            held.append(worker)
            worker.ask(request)
        outcomes = _run(requests[0])
        while held:
            outcomes.update(held[0].answer())
            held.pop(0)
    finally:
        for worker in held:
            if worker in _POOL:
                _POOL.remove(worker)
                worker.reap(kill=True)
        if own:
            _pin(0, own)
    results = []
    for i in range(len(calls)):
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results
