"""Cost model of the radix-16 (ten-step) NTT: factors, MAC counts, cost.

The functional multi-step GEMM NTT is tested in ``tests/math/test_ntt_stack.py``.
"""

import pytest

from repro.core.radix16_ntt import ntt_cost, ntt_gemm_macs, radix16_factors
from repro.gpu.device import A100


class TestFactorisation:
    def test_2_16(self):
        assert radix16_factors(1 << 16) == [16, 16, 16, 16]

    def test_partial_last_stage(self):
        assert radix16_factors(1 << 10) == [16, 16, 4]

    def test_small(self):
        assert radix16_factors(8) == [8]

    def test_invalid(self):
        with pytest.raises(ValueError):
            radix16_factors(12)
        with pytest.raises(ValueError):
            radix16_factors(0)


class TestGemmMacCounts:
    def test_paper_complexity_claim(self):
        """Section 4.4: radix-16 GEMM MACs are 1/8 of four-step at N=2^16."""
        n = 1 << 16
        four_step = ntt_gemm_macs(n, [256, 256])
        radix16 = ntt_gemm_macs(n, radix16_factors(n))
        assert four_step == 2**25
        assert radix16 == 2**22
        assert four_step / radix16 == 8


class TestNttCost:
    def test_radix16_beats_four_step_on_tcu(self):
        r16 = ntt_cost(1 << 16, 128, 36, style="radix16", component="tcu_fp64")
        fs = ntt_cost(1 << 16, 128, 36, style="four_step", component="tcu_fp64")
        assert r16.time_s(A100) < fs.time_s(A100)

    def test_fp64_beats_int8_at_36bit(self):
        fp64 = ntt_cost(1 << 16, 128, 36, style="radix16", component="tcu_fp64")
        int8 = ntt_cost(1 << 16, 128, 36, style="radix16", component="tcu_int8")
        assert fp64.time_s(A100) < int8.time_s(A100)

    def test_butterfly_runs_on_cuda_only(self):
        cost = ntt_cost(1 << 16, 128, 36, style="butterfly")
        assert cost.tcu_fp64_flops == 0 and cost.tcu_int8_ops == 0
        assert cost.cuda_flops > 0

    def test_inverse_flag_names_kernel(self):
        assert ntt_cost(256, 1, 36, inverse=True).name == "intt"
        assert ntt_cost(256, 1, 36).name == "ntt"

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            ntt_cost(256, 1, 36, style="warp")

    def test_unknown_component(self):
        with pytest.raises(ValueError):
            ntt_cost(256, 1, 36, component="npu")
