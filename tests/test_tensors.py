"""Unit tests for tensor descriptors, dtypes and layouts."""

import pytest

from repro.tensors import DataType, Layout, TensorDesc, layout_transform_time


class TestDataType:
    def test_sizes(self):
        assert DataType.FP32.size_bytes == 4
        assert DataType.FP16.size_bytes == 2
        assert DataType.BF16.size_bytes == 2
        assert DataType.INT8.size_bytes == 1
        assert DataType.INT32.size_bytes == 4

    def test_low_precision_flag(self):
        assert DataType.FP16.is_low_precision
        assert DataType.INT8.is_low_precision
        assert not DataType.FP32.is_low_precision
        assert not DataType.INT32.is_low_precision

    def test_labels_unique(self):
        labels = {d.label for d in DataType}
        assert len(labels) == len(list(DataType))


class TestLayoutTransform:
    def test_transform_time_positive_and_linear(self):
        t1 = layout_transform_time(1 << 20, 1000.0)
        t2 = layout_transform_time(2 << 20, 1000.0)
        assert t1 > 0
        assert t2 == pytest.approx(2 * t1)

    def test_transform_time_zero_bytes(self):
        assert layout_transform_time(0, 1000.0) == 0.0

    def test_transform_time_rejects_bad_input(self):
        with pytest.raises(ValueError):
            layout_transform_time(-1, 1000.0)
        with pytest.raises(ValueError):
            layout_transform_time(1024, 0.0)


class TestTensorDesc:
    def test_numel_and_bytes(self):
        t = TensorDesc((2, 3, 4, 5), DataType.FP32)
        assert t.numel == 120
        assert t.size_bytes == 480
        assert t.rank == 4

    def test_default_dtype_layout(self):
        t = TensorDesc((1, 3, 224, 224))
        assert t.dtype is DataType.FP32
        assert t.layout is Layout.NCHW

    def test_rejects_empty_and_nonpositive_dims(self):
        with pytest.raises(ValueError):
            TensorDesc(())
        with pytest.raises(ValueError):
            TensorDesc((1, 0, 3))
        with pytest.raises(ValueError):
            TensorDesc((1, -2))

    def test_hashable_and_equal(self):
        a = TensorDesc((1, 3, 8, 8))
        b = TensorDesc((1, 3, 8, 8))
        assert a == b
        assert hash(a) == hash(b)

    def test_str_format(self):
        t = TensorDesc((1, 3, 8, 8), DataType.FP16, Layout.NHWC)
        assert str(t) == "1x3x8x8:fp16:NHWC"
