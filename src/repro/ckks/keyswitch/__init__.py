"""Key-switching back-ends: Hybrid (Han-Ki) and KLSS (Kim-Lee-Seo-Song).

Both back-ends run through the GEMM-form engine in :mod:`.plan` (Neo
Algorithms 2 and 4), checked bit for bit against the per-digit pipeline
of :mod:`repro.ckks.reference`.
"""

from . import hybrid, klss, plan

__all__ = ["hybrid", "klss", "plan"]
