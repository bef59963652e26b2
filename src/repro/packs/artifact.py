"""Content-addressed kernel packs.

A :class:`KernelPack` is the distributable form of a warm instance's
loaded-code-object registry: the module set a
:class:`~repro.gpu.runtime.RuntimeSnapshot` captured, plus the device
calibration constants the snapshot's timings were derived under.  Its
identity is a deterministic blake2b digest over that content — two
instances that loaded the same modules on the same calibration produce
the *same* pack, which is what makes the artifact cacheable across a
fleet (local disk, peer instances, origin registry) without any
coordination.

Packs are pure metadata here: the simulation never moves real bytes,
so the pack records the byte count and module inventory the transfer
cost model (:mod:`repro.packs.store`) needs, and the digest every
fetch hop re-verifies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

from repro.core.schemes import Scheme
from repro.gpu.device import DeviceSpec
from repro.gpu.runtime import RuntimeSnapshot

__all__ = ["KernelPack", "pack_digest", "pack_from_snapshot", "pack_for"]

_DIGEST_SIZE = 16  # 128-bit content address, plenty for a simulation


@dataclass(frozen=True)
class KernelPack:
    """One content-addressed warm-state artifact.

    ``modules`` is the sorted ``(name, size_bytes, symbol_count)``
    inventory; ``constants`` the sorted calibration constants of the
    device the snapshot was taken on.  ``digest`` is the blake2b
    content address over both (see :func:`pack_digest`).
    """

    digest: str
    size_bytes: int
    modules: Tuple[Tuple[str, int, int], ...]
    constants: Tuple[Tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("pack size must be non-negative")
        if not self.digest:
            raise ValueError("pack needs a digest")

    def __len__(self) -> int:
        return len(self.modules)


def _calibration_constants(device: DeviceSpec) -> Tuple[Tuple[str, float],
                                                        ...]:
    """The host-runtime cost constants a pack's timings depend on.

    A pack restored onto a device calibrated differently would replay
    the wrong cost model, so the constants are part of the content
    address: recalibrating a device changes every pack digest, exactly
    like changing a module does.
    """
    return (
        ("code_io_bandwidth_mbps", device.code_io_bandwidth_mbps),
        ("code_load_base_s", device.code_load_base_s),
        ("kernel_launch_overhead_s", device.kernel_launch_overhead_s),
        ("mem_protect_s", device.mem_protect_s),
        ("reactive_load_penalty", device.reactive_load_penalty),
        ("symbol_resolve_s", device.symbol_resolve_s),
    )


def pack_digest(modules: Tuple[Tuple[str, int, int], ...],
                constants: Tuple[Tuple[str, float], ...]) -> str:
    """Deterministic blake2b content address of a pack.

    The encoding is canonical: module and constant tuples are sorted by
    the caller, floats are encoded via ``repr`` (which round-trips
    bit-for-bit), and fields are length-delimited by the tuple
    structure itself — so equal content always hashes equal and any
    difference (a module, a byte, a constant) changes the digest.
    """
    hasher = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    for name, size, symbols in modules:
        hasher.update(f"m:{name}:{size}:{symbols};".encode())
    for name, value in constants:
        hasher.update(f"c:{name}:{value!r};".encode())
    return hasher.hexdigest()


def pack_from_snapshot(snapshot: RuntimeSnapshot,
                       device: DeviceSpec) -> KernelPack:
    """Derive the content-addressed pack of a runtime snapshot."""
    modules = tuple(sorted(
        (co.name, co.size_bytes, len(symbols))
        for co, symbols in snapshot.entries))
    constants = _calibration_constants(device)
    return KernelPack(digest=pack_digest(modules, constants),
                      size_bytes=snapshot.size_bytes,
                      modules=modules,
                      constants=constants)


def pack_for(server, model: str, scheme: Scheme,
             batch: int = 1) -> KernelPack:
    """The kernel pack a warm ``(scheme, model, batch)`` instance on
    ``server`` would publish, derived from ``HipRuntime.snapshot()``
    via :meth:`~repro.serving.server.InferenceServer.capture_snapshot`.

    Building a pack replays one cold serve plus a snapshot, so it is
    kept in the server's
    :meth:`~repro.serving.server.InferenceServer.model_memo` and paid
    once per server.  Packs are derived fault-free (fetch faults are
    injected at the store layer), so sharing one across fault plans is
    sound.
    """
    memo = server.model_memo(model)
    key = ("pack", scheme, batch)
    if key not in memo:
        _, snapshot = server.capture_snapshot(model, scheme, batch)
        if snapshot is None:  # pragma: no cover - fault-free capture
            raise RuntimeError("fault-free snapshot capture failed")
        memo[key] = pack_from_snapshot(snapshot, server.device)
    return memo[key]
