"""Every ``repro`` module imports on its own.

An import cycle only bites when a module on it is imported before the
others, so the suite's own import order can hide one.  A fresh
interpreter imports each module first in turn, dropping every ``repro``
module from ``sys.modules`` in between (third-party imports stay
cached).  Importing a module first runs its packages' ``__init__``
first, so a module that its package's ``__init__`` already loads is
covered by importing that package first; only the others are imported
again on their own.
"""

import os
import subprocess
import sys

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

_SCRIPT = r"""
import importlib
import os
import sys
import traceback

src = sys.argv[1]
failed = []


def first(name):
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed.append(name + "\n" + traceback.format_exc())
    return set(sys.modules)


checked = 0
for folder, dirs, files in os.walk(os.path.join(src, "repro")):
    dirs[:] = sorted(d for d in dirs if d != "__pycache__")
    package = os.path.relpath(folder, src).replace(os.sep, ".")
    with_package = first(package)
    checked += 1
    for name in sorted(files):
        module = package + "." + name[:-3]
        if not name.endswith(".py") or name in ("__init__.py", "__main__.py"):
            continue
        checked += 1
        if module not in with_package:
            first(module)
print(checked)
print("\n".join(failed))
sys.exit(1 if failed else 0)
"""


def test_every_module_imports_first():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, SRC],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert int(proc.stdout.split()[0]) > 100, "the walk lost most of the tree"
