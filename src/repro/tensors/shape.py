"""Tensor shape descriptors."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Tuple

from repro.checks import check_dims, dims_ok
from repro.tensors.dtype import DataType
from repro.tensors.layout import Layout

__all__ = ["TensorDesc"]


@dataclass(frozen=True)
class TensorDesc:
    """An immutable tensor descriptor: dims + dtype + layout.

    Matches what the serving framework passes to the primitive library when
    constructing a problem (image sizes, filter sizes, data types...).
    """

    dims: Tuple[int, ...]
    dtype: DataType = DataType.FP32
    layout: Layout = Layout.NCHW

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValueError("tensor must have at least one dimension")
        if not dims_ok(self.dims):
            check_dims(self, ("dims",))

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.dims)

    @property
    def numel(self) -> int:
        """Total number of elements."""
        return reduce(mul, self.dims, 1)

    @property
    def size_bytes(self) -> int:
        """Total storage in bytes."""
        return self.numel * self.dtype.size_bytes

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(d) for d in self.dims)
        return f"{dims}:{self.dtype.label}:{self.layout.value}"
