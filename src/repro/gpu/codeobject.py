"""Kernel code objects: the unit of loading.

MIOpen ships one compiled code object (``.co``, an ELF image of SASS/GCN
instructions) per solution; a solution's kernels are symbols inside that
image.  ``hipModuleLoad`` loads the whole image; ``hipModuleGetFunction``
resolves one symbol.  Two layers picking the *same* solution therefore
share one load -- the physical fact PASK's reuse exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["KernelSymbol", "CodeObjectFile"]


@dataclass(frozen=True)
class KernelSymbol:
    """One GPU kernel entry point inside a code object."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("kernel symbol needs a non-empty name")


@dataclass(frozen=True)
class CodeObjectFile:
    """An ELF-like compiled binary holding one or more kernel symbols."""

    name: str
    size_bytes: int
    symbols: Tuple[KernelSymbol, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("code object needs a non-empty name")
        if self.size_bytes <= 0:
            raise ValueError(f"code object {self.name!r} has size {self.size_bytes}")
        if not self.symbols:
            raise ValueError(f"code object {self.name!r} has no symbols")
        seen = set()
        for symbol in self.symbols:
            if symbol.name in seen:
                raise ValueError(
                    f"duplicate symbol {symbol.name!r} in {self.name!r}")
            seen.add(symbol.name)
        # Not a field: outside repr, equality and hashing.
        object.__setattr__(self, "_symbol_names", frozenset(seen))

    def has_symbol(self, name: str) -> bool:
        """Whether this image exports a kernel called ``name``."""
        return name in self._symbol_names

    @staticmethod
    def single_kernel(name: str, size_bytes: int) -> "CodeObjectFile":
        """Convenience: a code object exporting exactly one same-named kernel."""
        return CodeObjectFile(name, size_bytes, (KernelSymbol(name),))
