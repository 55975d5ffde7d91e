"""Cost model of the GEMM-form BConv and IP kernels (Algorithms 2 and 4).

The functional kernels, ``ModulusStack.bconv_matmul`` and ``lazy_mul_sum``,
are checked against Python-int oracles in ``tests/math``.
"""

import pytest

from repro.core.bconv_matmul import bconv_cost
from repro.core.ip_matmul import ip_cost


class TestCostBuilders:
    def test_bconv_gemm_reduces_traffic(self):
        """The data-layout optimisation reduces global traffic (Fig. 15)."""
        orig = bconv_cost(4, 8, 128, 2**16, 36, style="elementwise")
        opt = bconv_cost(4, 8, 128, 2**16, 36, style="gemm")
        assert opt.bytes_read + opt.bytes_written < orig.bytes_read + orig.bytes_written

    def test_ip_gemm_reduces_traffic(self):
        orig = ip_cost(9, 8, 8, 128, 2**16, 48, style="elementwise")
        opt = ip_cost(9, 8, 8, 128, 2**16, 48, style="gemm")
        assert opt.bytes_read + opt.bytes_written < orig.bytes_read + orig.bytes_written

    def test_ip_elementwise_launches_per_modmul(self):
        """Algorithm 3 is built from separate ModMUL kernel launches."""
        cost = ip_cost(9, 8, 8, 128, 2**16, 48, style="elementwise")
        assert cost.launches == 9 * 8

    def test_fused_single_launch(self):
        cost = bconv_cost(4, 8, 128, 2**16, 36, style="gemm", fused=True)
        assert cost.launches == 1
        staged = bconv_cost(4, 8, 128, 2**16, 36, style="gemm", fused=False)
        assert staged.launches > 1

    def test_unknown_styles_rejected(self):
        with pytest.raises(ValueError):
            bconv_cost(4, 8, 1, 16, 36, style="magic")
        with pytest.raises(ValueError):
            ip_cost(2, 2, 2, 1, 16, 36, style="magic")
        with pytest.raises(ValueError):
            bconv_cost(4, 8, 1, 16, 36, component="npu")
        with pytest.raises(ValueError):
            ip_cost(2, 2, 2, 1, 16, 36, component="npu")

    def test_pair_factor(self):
        two = ip_cost(3, 4, 2, 8, 16, 36, style="gemm", pair_factor=2)
        one = ip_cost(3, 4, 2, 8, 16, 36, style="gemm", pair_factor=1)
        assert two.tcu_fp64_flops == pytest.approx(2 * one.tcu_fp64_flops)
