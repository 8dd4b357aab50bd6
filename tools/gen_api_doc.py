#!/usr/bin/env python
"""Generate docs/API.md: the public API inventory with doc summaries.

Walks every ``repro`` module, lists the symbols each module exports via
``__all__`` and the first line of their docstrings.  Run after changing
public APIs::

    python tools/gen_api_doc.py

``--check`` writes nothing: it exits 1 (and prints the diff) when
docs/API.md differs from what it would write — the CI drift check.
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import inspect
import os
import pkgutil
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro  # noqa: E402


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.splitlines()[0].strip()


def walk_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - diagnostics only
            print(f"skipping {info.name}: {exc}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if docs/API.md is out of date instead of writing it",
    )
    args = parser.parse_args()
    lines = [
        "# API reference (generated)",
        "",
        "Public symbols per module (`__all__`), with docstring summaries.",
        "Regenerate with `python tools/gen_api_doc.py`.",
        "",
    ]
    for name, module in walk_modules():
        exported = getattr(module, "__all__", None)
        if not exported:
            continue
        lines.append(f"## `{name}`")
        lines.append("")
        lines.append(first_line(module))
        lines.append("")
        for symbol in exported:
            obj = getattr(module, symbol, None)
            if obj is None:
                continue
            if inspect.isclass(obj):
                desc = f"(class) — {first_line(obj)}"
            elif inspect.isfunction(obj) or inspect.ismethod(obj):
                desc = f"(function) — {first_line(obj)}"
            elif isinstance(obj, (int, float, str, bytes, tuple, frozenset)):
                desc = f"(constant, `{type(obj).__name__}`)"
            elif callable(obj):
                desc = f"(callable) — {first_line(obj)}"
            else:
                desc = f"(instance of `{type(obj).__name__}`) — {first_line(obj)}"
            lines.append(f"* **`{symbol}`** {desc}")
        lines.append("")
    out = os.path.normpath(
        os.path.join(os.path.dirname(__file__), "..", "docs", "API.md")
    )
    text = "\n".join(lines) + "\n"
    if args.check:
        try:
            with open(out) as handle:
                current = handle.read()
        except FileNotFoundError:
            current = ""
        if current == text:
            print(f"{out} is up to date")
            return 0
        sys.stdout.writelines(difflib.unified_diff(
            current.splitlines(keepends=True), text.splitlines(keepends=True),
            fromfile=out, tofile="generated",
        ))
        print(f"{out} is out of date: run python tools/gen_api_doc.py",
              file=sys.stderr)
        return 1
    with open(out, "w") as handle:
        handle.write(text)
    print(f"wrote {out} ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
