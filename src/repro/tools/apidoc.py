"""API-reference generator: walk the package, emit Markdown.

Produces ``docs/API.md`` from the live package — every public module,
class, and function with its signature and docstring summary — so the
reference can never drift from the code.  Run with::

    python -m repro.tools.apidoc [output-path]
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from typing import ForwardRef, List, Optional

__all__ = ["generate_api_docs", "PACKAGES"]

PACKAGES = [
    "repro.phy",
    "repro.gateway",
    "repro.node",
    "repro.sim",
    "repro.faults",
    "repro.netserver",
    "repro.lorawan",
    "repro.baselines",
    "repro.core",
    "repro.analysis",
    "repro.experiments",
    "repro.obs",
    "repro.tools",
]


def _summary(obj) -> str:
    """The first paragraph of ``obj``'s docstring, on one line."""
    lines: List[str] = []
    for line in (inspect.getdoc(obj) or "").strip().splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def _signature(obj) -> str:
    """``obj``'s signature, string annotations quoted.

    Under ``from __future__ import annotations`` a NamedTuple's fields
    carry ``ForwardRef`` annotations; they print as their strings, as a
    dataclass's do.
    """
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(...)"
    params = [
        p.replace(annotation=p.annotation.__forward_arg__)
        if isinstance(p.annotation, ForwardRef)
        else p
        for p in sig.parameters.values()
    ]
    return str(sig.replace(parameters=params))


def _document_module(module) -> List[str]:
    lines: List[str] = []
    lines.append(f"### `{module.__name__}`")
    lines.append("")
    summary = _summary(module)
    if summary:
        lines.append(summary)
        lines.append("")
    public = getattr(module, "__all__", None)
    if public is None:
        public = [n for n in vars(module) if not n.startswith("_")]
    for name in public:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.getmodule(obj) is not None and (
            inspect.getmodule(obj).__name__ != module.__name__
        ):
            continue  # re-export: documented at its home module
        if inspect.isclass(obj):
            lines.append(f"* **class `{name}{_signature(obj)}`** — {_summary(obj)}")
            for mname, meth in inspect.getmembers(obj, inspect.isfunction):
                if mname.startswith("_"):
                    continue
                lines.append(
                    f"    * `.{mname}{_signature(meth)}` — {_summary(meth)}"
                )
        elif inspect.isfunction(obj):
            lines.append(f"* **`{name}{_signature(obj)}`** — {_summary(obj)}")
        elif not inspect.ismodule(obj):
            lines.append(f"* **`{name}`** — constant")
    lines.append("")
    return lines


def generate_api_docs(packages: Optional[List[str]] = None) -> str:
    """Render the Markdown API reference for the given packages."""
    out: List[str] = [
        "# API reference",
        "",
        "Generated from the live package by `python -m repro.tools.apidoc`.",
        "",
    ]
    for pkg_name in packages or PACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(f"## `{pkg_name}`")
        out.append("")
        summary = _summary(pkg)
        if summary:
            out.append(summary)
            out.append("")
        module_names = [pkg_name]
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                if not info.name.startswith("_"):
                    module_names.append(f"{pkg_name}.{info.name}")
        for mod_name in module_names[1:]:
            module = importlib.import_module(mod_name)
            out.extend(_document_module(module))
    return "\n".join(out) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: write the reference to the given path."""
    args = list(sys.argv[1:] if argv is None else argv)
    path = args[0] if args else "docs/API.md"
    import os

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(generate_api_docs())
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
