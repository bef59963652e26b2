"""Unit tests for device specs and the loading cost model."""

import dataclasses

import pytest

from repro.gpu import (
    A100,
    CodeObjectFile,
    DeviceSpec,
    KernelSymbol,
    MI100,
    RX6900XT,
    get_device,
    list_devices,
    load_time,
    symbol_resolve_time,
)


def test_registry_contains_three_devices():
    assert list_devices() == ["6900XT", "A100", "MI100"]
    assert get_device("MI100") is MI100
    assert get_device("A100") is A100
    assert get_device("6900XT") is RX6900XT


def test_unknown_device_raises_with_hint():
    with pytest.raises(KeyError, match="known devices"):
        get_device("H100")


def test_device_rejects_nonpositive_constants():
    with pytest.raises(ValueError):
        dataclasses.replace(MI100, fp32_tflops=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("field", ["fp32_tflops", "code_load_base_s",
                                   "code_io_bandwidth_mbps",
                                   "reactive_load_penalty"])
def test_device_rejects_bad_constants(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(MI100, **{field: value})


def test_derived_units():
    assert MI100.fp32_flops == pytest.approx(23.1e12)
    assert MI100.mem_bandwidth == pytest.approx(1228.8e9)
    assert MI100.code_io_bandwidth == pytest.approx(150e6)


def test_consumer_card_loads_slower_than_datacenter():
    co = CodeObjectFile.single_kernel("k", 1 << 20)
    assert load_time(co, RX6900XT) > load_time(co, MI100) > load_time(co, A100)


def test_load_time_grows_with_size():
    small = CodeObjectFile.single_kernel("s", 100_000)
    large = CodeObjectFile.single_kernel("l", 5_000_000)
    assert load_time(large, MI100) > load_time(small, MI100)


def test_load_time_magnitude_is_milliseconds():
    # A typical ~150 KB MIOpen .co image should take around a millisecond.
    co = CodeObjectFile.single_kernel("k", 150_000)
    t = load_time(co, MI100)
    assert 0.0005 < t < 0.01


def test_reactive_load_penalty():
    co = CodeObjectFile.single_kernel("k", 150_000)
    assert load_time(co, MI100, reactive=True) == pytest.approx(
        load_time(co, MI100) * MI100.reactive_load_penalty)


def test_symbol_resolve_time_is_submillisecond():
    assert 0 < symbol_resolve_time(MI100) < 1e-3


class TestCodeObjectFile:
    def test_single_kernel_helper(self):
        co = CodeObjectFile.single_kernel("conv_k", 1024)
        assert co.name == "conv_k"
        assert co.symbols == (KernelSymbol("conv_k"),)
        assert co.has_symbol("conv_k")
        assert not co.has_symbol("other")

    def test_multi_symbol(self):
        co = CodeObjectFile("sol", 2048, (KernelSymbol("a"), KernelSymbol("b")))
        assert co.has_symbol("a") and co.has_symbol("b")

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            CodeObjectFile("", 10, (KernelSymbol("a"),))
        with pytest.raises(ValueError):
            CodeObjectFile("x", 0, (KernelSymbol("a"),))
        with pytest.raises(ValueError):
            CodeObjectFile("x", 10, ())
        with pytest.raises(ValueError):
            CodeObjectFile("x", 10, (KernelSymbol("a"), KernelSymbol("a")))
        with pytest.raises(ValueError):
            KernelSymbol("")

    def test_frozen_and_hashable(self):
        co = CodeObjectFile.single_kernel("k", 10)
        hash(co)
        with pytest.raises(dataclasses.FrozenInstanceError):
            co.size_bytes = 20
