"""Names a package exports but loads only on first use (PEP 562).

``import repro`` loads the *run path* — every module that
:meth:`~repro.system.Machine.run` and
:meth:`~repro.system.Machine.profile` can reach — and nothing else.  A
package that also exports names from off-path modules (campaigns, the
sweep runner, RAS) lists them in a table of
``name -> (module, attribute)`` and installs the pair this module
returns as its ``__getattr__`` and ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "run_campaign": ("repro.ras.campaign", "run_campaign"),
    })

The first access imports the home module and caches the object in the
package namespace, so later lookups are ordinary attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, tuple[str, str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Return ``(__getattr__, __dir__)`` for ``package`` over ``table``."""

    def __getattr__(name: str) -> Any:
        try:
            module, attribute = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), attribute)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
