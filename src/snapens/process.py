"""The process entry of the `snapens` command, and the BLAS settings it makes.

`python -m snapens` and the installed `snapens` script both run `entry`. It
is the one place that changes process-wide state. It runs `cli.main`'s steps
(parse, load, run) and, before the run, sets numpy's bundled OpenBLAS to one
thread, so a wide net's bytes do not depend on how many CPUs are usable, and
freezes the heap of the imported modules (`gc.freeze`), so neither the
collections of the run nor the interpreter's exit walk it. `cli.main` and
every library function change neither setting, since tests and library
callers run them in-process; there the BLAS thread count and the collector
are the caller's business, and `set_blas_threads` is the call this entry
makes.
"""
from __future__ import annotations

import gc


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


def entry(argv=None) -> int:
    """Run the command line `argv` (default `sys.argv[1:]`) as this process's
    work. It parses with `cmdline` alone, after freezing the heap of its
    imports: `--help` and a usage error raise SystemExit there, with neither
    `cli` nor numpy loaded. Then it imports `cli` and the command's own
    modules, freezes their heap, with one BLAS thread, and runs the command."""
    from . import cmdline

    gc.freeze()
    args = cmdline.parse(argv)
    from . import cli

    cli.load(args.command)
    set_blas_threads(1)
    gc.freeze()
    return cli.run(args)
