"""The hot kernels the domains call.

Domains call them as ``kernels.<name>``, looked up on every call, so a
wrapper set on ``kernels`` sees every call.  Every kernel is
idastra._kernels_py's, save synthetic_expand where the compiled one in
_ckernels.c loads; backend_name() then reports "c", and otherwise
"python".

The compiled kernel is built on first import, from the C source beside
this file, with the interpreter's own compiler command and headers (read
from sysconfig; a CC in the environment replaces the compiler, as
setuptools lets it), into
__pycache__/_ckernels.<crc32 of the source><EXT_SUFFIX>.  An import that
finds that file reads the source and loads it, and builds nothing; an
edited source has another name, so it is never served an old build.  A
build writes a temporary file and renames it into place, so a process
never loads a half-written one, and then removes older builds for this
interpreter.  With no compiler or no Python.h, a failed build or a cache
directory it cannot write, the package keeps the Python kernel.
"""

import contextlib
import os
import zlib
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 ModuleSpec)
from types import ModuleType

from idastra import _kernels_py

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "_ckernels.c")
_PREFIX = "_ckernels."


def build_path(source):
    """Where the build of the C source at `source` is cached."""
    with open(source, "rb") as fh:
        crc = zlib.crc32(fh.read())
    return os.path.join(os.path.dirname(source), "__pycache__",
                        f"{_PREFIX}{crc:08x}{EXTENSION_SUFFIXES[0]}")


def load_compiled(source=SOURCE):
    """The module built from `source`, built first if its cache holds no
    build; None where it cannot be built or loaded."""
    try:
        target = build_path(source)
        if not os.path.exists(target) and not _build(source, target):
            return None
        loader = ExtensionFileLoader("idastra._ckernels", target)
        spec = ModuleSpec(loader.name, loader, origin=target)
        module = loader.create_module(spec)
        loader.exec_module(module)
        return module
    except (OSError, ImportError):
        return None


def _compile_command():
    """The interpreter's command for compiling and linking an extension
    from one C file, without its file arguments; None without one."""
    import shlex
    import sysconfig
    cc, ldshared, cflags, ccshared = (sysconfig.get_config_var(name) or ""
                                      for name in ("CC", "LDSHARED",
                                                   "CFLAGS", "CCSHARED"))
    if not cc or not ldshared:
        return None
    if os.environ.get("CC") and ldshared.startswith(cc):
        ldshared = os.environ["CC"] + ldshared[len(cc):]
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        return None
    return shlex.split(f"{ldshared} {cflags} {ccshared}") + [f"-I{include}"]


def _build(source, target):
    """Compile `source` into `target`; whether it was built."""
    import subprocess
    import tempfile
    command = _compile_command()
    if command is None:
        return False
    cache = os.path.dirname(target)
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=_PREFIX, suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        done = subprocess.run(command + [source, "-o", tmp],
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=300,
                              check=False)
        if done.returncode != 0:
            return False
        os.replace(tmp, target)
    except subprocess.TimeoutExpired:
        return False
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    suffix = EXTENSION_SUFFIXES[0]
    for name in os.listdir(cache):
        old = os.path.join(cache, name)
        if name.startswith(_PREFIX) and name.endswith(suffix) \
                and old != target:
            with contextlib.suppress(FileNotFoundError):
                os.remove(old)
    return True


compiled = load_compiled()

# a module, since the interpreter looks up a module's attributes faster
# than another object's (about twice as fast on CPython 3.11)
kernels = ModuleType(f"{__name__}.kernels")
vars(kernels).update(
    puzzle_expand=_kernels_py.puzzle_expand,
    manhattan=_kernels_py.manhattan,
    path_hash=_kernels_py.path_hash,
    synthetic_expand=(compiled or _kernels_py).synthetic_expand)


def backend_name():
    """The kernels' implementation: "c" where the compiled
    synthetic_expand loaded, else "python"."""
    return "python" if compiled is None else "c"
