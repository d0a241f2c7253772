"""Every name a module exports through ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil

import huaops

MODULES = [importlib.import_module(f"huaops.{info.name}")
           for info in pkgutil.iter_modules(huaops.__path__)]


def test_every_exported_name_exists():
    exporting = [m for m in [huaops, *MODULES] if hasattr(m, "__all__")]
    assert huaops.reduce in exporting  # the check must not pass vacuously
    missing = [f"{m.__name__}.{name}" for m in exporting for name in m.__all__
               if not hasattr(m, name)]
    assert missing == []
