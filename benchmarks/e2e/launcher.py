"""Forks the measured commands from a process that stays tiny.

Linux starts a child's ``ru_maxrss`` at the resident size of the process
that forked it (``exec`` folds the old address space's high-water mark into
the new process's accounting), so a 60 MB driver would report 60 MB for a
24 MB command.  The driver therefore starts this script once (``python -S
-E``, about 10 MB, importing nothing else) and asks it to fork, exec and
reap every measured command; wall time, CPU of the whole process tree and
peak RSS all come from the one ``wait4`` here.

Protocol, one JSON object per line: the request ``{"argv", "env", "cwd",
"stdout", "stderr"}`` on stdin; on stdout first ``{"pid"}`` (the child
leads its own session, so the driver can kill the group on a timeout) and,
once it has ended, ``{"status", "wall_s", "cpu_s", "maxrss_kb",
"started_at"}``.  End of input ends the launcher.
"""

import json
import os
import sys
import time


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        out = os.open(request["stdout"], flags, 0o644)
        err = os.open(request["stderr"], flags, 0o644)
        started_at = time.time()
        started = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.setsid()
                os.chdir(request["cwd"])
                os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
                os.dup2(out, 1)
                os.dup2(err, 2)
                os.execve(request["argv"][0], request["argv"], request["env"])
            finally:
                os._exit(127)
        os.close(out)
        os.close(err)
        print(json.dumps({"pid": pid}), flush=True)
        _pid, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - started
        print(json.dumps({
            "status": status,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "started_at": started_at,
        }), flush=True)


if __name__ == "__main__":
    serve()
