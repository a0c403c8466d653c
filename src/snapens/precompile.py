"""Compile a command's snapens modules in a forked child while the process
entry imports numpy, and import them from the child's code objects. Only the
entry imports this module, where `process.precompile_pays`. No bytecode is
written."""
from __future__ import annotations

import marshal
import os
import sys
from importlib.machinery import SourceFileLoader
from importlib.util import spec_from_file_location

from .process import fork


def _compile(command) -> bytes:
    """The marshalled {name: (path, st_mtime_ns, st_size, code)} of the
    snapens modules not loaded yet that `command` imports: `cli`, its
    `cmdline.COMMANDS` modules, `pool` (a split `interpolate` imports it
    late) and each module these name at their top level."""
    from .cmdline import COMMANDS

    folder, table = os.path.dirname(__file__), {}
    modules = {name[:-3] for name in os.listdir(folder) if name.endswith(".py")}
    names = ["cli", "pool", *COMMANDS[command][1]]
    while names:
        name = names.pop()
        fullname, path = f"{__package__}.{name}", os.path.join(folder, f"{name}.py")
        if fullname not in table and fullname not in sys.modules:
            stat = os.stat(path)
            with open(path, "rb") as fh:
                code = compile(fh.read(), path, "exec", dont_inherit=True)
            table[fullname] = (path, stat.st_mtime_ns, stat.st_size, code)
            names += modules.intersection(code.co_names)
    return marshal.dumps(table)


class _Precompiled(SourceFileLoader):
    """A `sys.meta_path` finder that imports each module of `table` (a
    `_compile` table) once from its code, while its source keeps the
    st_mtime_ns and st_size recorded (CPython's rule for a `.pyc`)."""

    table: dict = {}

    @classmethod
    def find_spec(cls, fullname, path=None, target=None):
        entry = cls.table.pop(fullname, None)
        if entry is None:
            return None
        path, mtime_ns, size, code = entry
        try:
            stat = os.stat(path)
        except OSError:
            return None
        if (stat.st_mtime_ns, stat.st_size) != (mtime_ns, size):
            return None
        loader = cls(fullname, path)
        loader.code = code
        return spec_from_file_location(fullname, path, loader=loader)

    def get_code(self, fullname):
        code, self.code = self.code, None  # kept nowhere, as an import keeps none of the code it compiles
        return code


def install(command) -> None:
    """Import numpy while a forked child (`process.fork`, unpinned) compiles
    `command`'s modules, then serve them (`_Precompiled`). Where the fork
    fails, the child exits nonzero or its payload is short, every import
    stays as it was."""
    # one payload, compiled whole before it is sent: a child blocked on the
    # full 64 KiB pipe would compile no further
    join = fork(lambda: [_compile(command)])
    if join is None:
        return
    try:
        import numpy  # noqa: F401
    finally:
        sent, code = join()
    try:
        _Precompiled.table = marshal.loads(sent[0]) if sent and not code else {}
    except (EOFError, ValueError):
        return
    if _Precompiled.table:
        sys.meta_path.insert(0, _Precompiled)
