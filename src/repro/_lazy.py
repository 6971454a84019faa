"""PEP 562 lazy package facades.

A facade package maps each public name to the submodule that defines it.
Importing the package loads none of them: a name's submodule is imported
the first time the name is read, and the value is then bound on the
package, so later reads are plain attribute lookups.  Submodules resolve
as attributes the same way.  The daemon imports a few modules of several
facade packages; this keeps it from paying for the rest.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_facade(package: str, exports: Mapping[str, str],
                ) -> "tuple[Callable[[str], Any], Callable[[], list[str]]]":
    """The module-level ``__getattr__`` and ``__dir__`` of a facade.

    :param package: the facade package's ``__name__``.
    :param exports: public name -> the submodule defining it, relative to
        ``package`` (``"stack"`` for ``package + ".stack"``).
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is not None:
            value = getattr(import_module(f"{package}.{module}"), name)
        elif name.startswith("__"):
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}") from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
