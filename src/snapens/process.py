"""The process entry of the `snapens` command, and the import, BLAS and
malloc settings it makes.

`python -m snapens` and the installed `snapens` script both run `entry`. It
is the one place that changes process-wide state. It runs `cli.main`'s steps
(parse, load, run); before the load it keeps OpenSSL's hash module out of
the process, which nothing in snapens uses, and, where that pays
(`precompile_pays`), has the command's modules compiled in a forked child
while it imports numpy (`precompile`); before the run it sets numpy's
bundled OpenBLAS to one thread, so a wide net's bytes do not depend on how
many CPUs are usable, sets glibc's malloc to keep freed memory for the rest
of the command, so arrays allocated again and again are not faulted in
afresh each time, and freezes the heap of the imported modules
(`gc.freeze`), so neither the collections of the run nor the interpreter's
exit walk it. `cli.main` and every library function
change none of these settings, since tests and library callers run them
in-process; there the imports, the BLAS thread count, the allocator and the
collector are the caller's business, and `block_openssl_hashes`,
`set_blas_threads` and `set_malloc_policy` are the calls this entry makes.

It also holds the one way snapens forks (`fork`: start a child, read back
what it sends, reap it) and the one rule for how many CPUs it uses
(`usable_cpus`), for the entry's precompile and `pool`'s workers alike.
"""
from __future__ import annotations

import gc
import os
import sys

# The modules `hashlib` builds its algorithms from when it cannot import
# `_hashlib` (OpenSSL's): Python 3.12 merged `_sha256` and `_sha512` into
# `_sha2`. A build may leave any of them out (some ship BLAKE2 alone), and
# `hashlib` then logs an error at import for each algorithm it lacks.
BUILTIN_HASHES = ("_blake2", "_md5", "_sha1", "_sha3") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
)

# glibc's mallopt parameters (malloc.h) and the values `set_malloc_policy`
# gives them. By default glibc maps each block of 128 KiB or more afresh and
# unmaps it when freed, and returns freed memory at the top of its heap to
# the kernel, so a buffer a command allocates again and again (a snapshot's
# 2 MB parameters, `interpolate`'s mixing buffers, `forward`'s 512 KB
# blocks) is faulted in again, page by page, each time. Blocks up to 4 MiB
# come from the heap instead, and freed heap memory stays until exit. On a
# 2-vCPU host (glibc 2.36, numpy 2.4.6) a wide-idx `interpolate` process
# then took 8,878 minor faults against 20,054. Larger blocks are still
# mapped: numpy asks for huge pages on arrays of 4 MiB and more, and on the
# heap those raised the wide `train` peak memory by 0.5-1.7 MB at an 8 MiB
# threshold, against 0.2-0.4 MB at 4 MiB and 0.5-0.6 MB at 8 MiB with
# numpy's hint off (5 runs each).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 1 << 30


def _openblas_function(name, restype, argtypes=()):
    """The function `name` of numpy's bundled OpenBLAS (the `numpy.libs`
    folder of a numpy wheel), or None where no library there exports it, as
    with another BLAS or a numpy built against a system one."""
    import ctypes
    from pathlib import Path

    import numpy as np

    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        try:
            function = getattr(ctypes.CDLL(str(lib)), name)
        except (OSError, AttributeError):
            continue
        function.restype, function.argtypes = restype, argtypes
        return function
    return None


def blas_core_type() -> str:
    """The core type the bundled OpenBLAS runs its kernels for (`SkylakeX`,
    `Haswell`, ...), or "unknown" without such a library or its symbol.
    Golden digests hold per core type, so their failure messages name it."""
    import ctypes

    corename = _openblas_function("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return corename().decode() if corename else "unknown"


def set_blas_threads(count: int) -> bool:
    """Let the bundled OpenBLAS run `count` threads, overriding
    `OPENBLAS_NUM_THREADS`. Returns False, having done nothing, where that
    library or its `scipy_openblas_set_num_threads64_` is missing; the BLAS
    in use then keeps its own thread count."""
    import ctypes

    set_threads = _openblas_function("scipy_openblas_set_num_threads64_", None, (ctypes.c_int,))
    if set_threads is None:
        return False
    set_threads(count)
    return True


def set_malloc_policy() -> bool:
    """Serve blocks up to `MMAP_THRESHOLD` bytes from the heap and return
    freed heap memory to the kernel only past `TRIM_THRESHOLD`, through the
    C library's `mallopt`. Returns False, having done nothing, where the C
    library has no `mallopt` (not glibc), or where it refuses either value."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.restype, mallopt.argtypes = ctypes.c_int, (ctypes.c_int, ctypes.c_int)
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) & mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def block_openssl_hashes() -> None:
    """Make every later `import _hashlib` fail, where this Python has each of
    `BUILTIN_HASHES` and `_hashlib` is not loaded yet. `hashlib` then builds
    its algorithms from those modules, `blake2b` (the config digest and
    `trainer.derive_seed`) among them, whose digests the BLAKE2 spec fixes,
    and `hmac` takes its pure-Python path, which snapens never calls. So the
    process does not map OpenSSL's libcrypto (3.4 MB resident), which
    `trainer`'s `hashlib` and `numpy.random`'s `secrets` would load."""
    import importlib.util

    if all(importlib.util.find_spec(name) for name in BUILTIN_HASHES):
        sys.modules.setdefault("_hashlib", None)


def usable_cpus() -> list:
    """The CPUs this process may run on, in order, which `fork` may pin a
    child to; none on a platform other than Linux, where nothing forks."""
    return sorted(os.sched_getaffinity(0)) if sys.platform == "linux" else []


def fork(items, cpu=None):
    """Fork a child that pickles each object of the iterable `items()` into a
    pipe, pinned to `cpu` unless it is None. Return join, which reads the
    objects back in order, reaps the child and returns (the objects, its
    exit code); or None, having started nothing, where the pipe or the fork
    fails.

    The child reuses the imported modules and loaded inputs, where a spawned
    one would import numpy again (about 180 ms). snapens starts no threads
    of its own, and OpenBLAS stops its threads around a fork. The child ends
    with os._exit, so the parent's atexit hooks and buffers never run twice;
    an unexpected exception prints its traceback and exits 1. It is pinned
    because a child starts on its parent's CPU, and a 2-vCPU host's
    scheduler left both there for a whole 70 ms share. The calling process
    is never pinned: the BLAS threads it starts later would inherit the pin.
    A refused pin is ignored.
    """
    import pickle  # numpy, imported after a precompile fork, would import it anyway

    fds = ()
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            if cpu is not None:
                try:
                    os.sched_setaffinity(0, {cpu})
                except OSError:
                    pass
            with open(write_fd, "wb") as pipe:
                for item in items():
                    pickle.dump(item, pipe)
                    pipe.flush()
            status = 0
        except Exception:
            import traceback

            traceback.print_exc()
        finally:  # never return into the parent's stack, whatever was raised
            try:
                sys.stderr.flush()
            finally:
                os._exit(status)
    os.close(write_fd)

    def join():
        sent = []
        try:
            with open(read_fd, "rb") as pipe:
                while True:
                    try:
                        sent.append(pickle.load(pipe))
                    except (EOFError, pickle.UnpicklingError):
                        break
        finally:
            _, status = os.waitpid(pid, 0)
        return sent, os.waitstatus_to_exitcode(status)

    return join


def precompile_pays() -> bool:
    """Whether the entry has a forked child compile the command's modules
    (`precompile`): only where bytecode is neither written nor cached for
    `cli`, the one case it was measured in, and two CPUs are usable."""
    import importlib.util

    cached = importlib.util.cache_from_source(os.path.join(os.path.dirname(__file__), "cli.py"))
    return sys.dont_write_bytecode and len(usable_cpus()) >= 2 and not os.path.exists(cached)


def entry(argv=None) -> int:
    """Run the command line `argv` (default `sys.argv[1:]`) as this process's
    work. It parses with `cmdline` alone, after freezing the heap of its
    imports: `--help` and a usage error raise SystemExit there, with neither
    `cli` nor numpy loaded. Then, with `_hashlib` kept out
    (`block_openssl_hashes`) and, where `precompile_pays`, the command's
    modules compiled in a forked child while it imports numpy
    (`precompile.install`), it imports `cli` and the command's own modules,
    freezes their heap, with one BLAS thread and the malloc policy of
    `set_malloc_policy`, and runs the command."""
    from . import cmdline

    gc.freeze()
    args = cmdline.parse(argv)
    block_openssl_hashes()
    if precompile_pays():
        from . import precompile

        precompile.install(args.command)
    from . import cli

    cli.load(args.command)
    set_blas_threads(1)
    set_malloc_policy()
    gc.freeze()
    return cli.run(args)
