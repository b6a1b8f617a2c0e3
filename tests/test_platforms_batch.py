"""Scalar <-> batch equivalence for the trace-engine microarchitecture path.

The batch engine (:mod:`repro.platforms.trace_engine`) must be
*counter-exact*: every integer perf counter and structure statistic agrees
bit-for-bit with the per-access oracle (:mod:`tests.oracles.platforms`,
which drives the core's per-access executor), and cycles agree bit-for-bit
whenever ``base_cpi`` is integral (integer-valued float sums below 2**53 are
exact in any accumulation order).  Microarchitectural state written back
after a batch run must be indistinguishable to any subsequent scalar run.
"""

import numpy as np
import pytest

from repro.platforms import trace_engine
from repro.platforms.branch import GsharePredictor
from repro.platforms.cache import SetAssociativeCache
from repro.platforms.cpu import CorePenalties, InOrderCore
from repro.platforms.tlb import Tlb
from repro.platforms.workload import (
    OpKind,
    Trace,
    autopilot_trace,
    interleave,
    slam_trace,
)
from tests.oracles import platforms as oracle


def random_trace(rng, length, name="rand", address_span=1 << 22,
                 page_span=None):
    """A seeded random trace mixing all op kinds over a bounded footprint."""
    kinds = rng.integers(0, 4, size=length).astype(np.uint8)
    addresses = rng.integers(0, address_span, size=length, dtype=np.int64)
    pcs = (rng.integers(0, 4096, size=length, dtype=np.int64) << 2)
    taken = rng.random(length) < 0.6
    return Trace(name=name, kinds=kinds, addresses=addresses, pcs=pcs,
                 taken=taken)


def make_core(l1_kib=4, llc_kib=64, l1_assoc=2, llc_assoc=4, prefetch=True,
              tlb_entries=16, table_bits=8, history_bits=6,
              base_cpi=1.0, flush=True):
    llc = SetAssociativeCache(size_bytes=llc_kib * 1024, line_bytes=64,
                              associativity=llc_assoc, name="LLC")
    l1 = SetAssociativeCache(size_bytes=l1_kib * 1024, line_bytes=64,
                             associativity=l1_assoc, next_level=llc,
                             name="L1D", prefetch_next_line=prefetch)
    return InOrderCore(
        penalties=CorePenalties(base_cpi=base_cpi),
        l1=l1,
        llc=llc,
        tlb=Tlb(entries=tlb_entries),
        predictor=GsharePredictor(table_bits=table_bits,
                                  history_bits=history_bits),
        flush_on_context_switch=flush,
    )


COUNTER_FIELDS = ("instructions", "llc_accesses", "llc_misses", "branches",
                  "branch_misses", "tlb_accesses", "tlb_misses")


def assert_counters_equal(batch, scalar, cycles_exact=True):
    assert set(batch) == set(scalar)
    for context in batch:
        b, s = batch[context], scalar[context]
        for field in COUNTER_FIELDS:
            assert getattr(b, field) == getattr(s, field), (context, field)
        if cycles_exact:
            assert b.cycles == s.cycles, context
        else:
            assert b.cycles == pytest.approx(s.cycles, rel=1e-12)


def assert_structures_equal(core_a, core_b):
    for name in ("l1", "llc"):
        sa = getattr(core_a, name).stats
        sb = getattr(core_b, name).stats
        assert (sa.accesses, sa.misses) == (sb.accesses, sb.misses), name
    assert (core_a.tlb.stats.accesses, core_a.tlb.stats.misses) == \
           (core_b.tlb.stats.accesses, core_b.tlb.stats.misses)
    assert (core_a.predictor.stats.branches,
            core_a.predictor.stats.mispredictions) == \
           (core_b.predictor.stats.branches,
            core_b.predictor.stats.mispredictions)


def run_both(make, segments, cycles_exact=True):
    """Run identical segments through fresh scalar and batch cores."""
    core_scalar, core_batch = make(), make()
    scalar = oracle.run_segments(core_scalar, list(segments))
    batch = core_batch.run_segments(list(segments))
    assert_counters_equal(batch, scalar, cycles_exact=cycles_exact)
    assert_structures_equal(core_batch, core_scalar)
    return core_batch, core_scalar


class TestCoRunEquivalence:
    def test_interleaved_co_run_exact(self):
        auto = autopilot_trace(12_000, seed=6)
        slam = slam_trace(48_000, seed=7)
        segments = interleave(auto, slam, 1_500, 6_000)
        run_both(make_core, segments)

    def test_single_context_exact(self):
        trace = slam_trace(30_000, seed=3)
        core_scalar, core_batch = make_core(), make_core()
        scalar = oracle.run_trace(core_scalar, "slam", trace)
        batch = core_batch.run_trace("slam", trace)
        for field in COUNTER_FIELDS:
            assert getattr(batch, field) == getattr(scalar, field)
        assert batch.cycles == scalar.cycles

    def test_fractional_base_cpi_close(self):
        # Non-integral base CPI accumulates in a different order in the
        # batch path, so cycles are approx-equal rather than bit-equal.
        auto = autopilot_trace(8_000, seed=5)
        slam = slam_trace(16_000, seed=8)
        segments = interleave(auto, slam, 1_000, 2_000)
        run_both(lambda: make_core(base_cpi=1.3), segments,
                 cycles_exact=False)


class TestRandomizedConfigs:
    @pytest.mark.parametrize("config", [
        dict(),                                   # baseline small core
        dict(l1_assoc=1),                         # direct-mapped L1
        dict(l1_kib=1, llc_kib=8, tlb_entries=4), # tiny, thrashing
        dict(prefetch=False),                     # no next-line prefetch
        dict(history_bits=0),                     # PC-indexed predictor
        dict(flush=False),                        # no context-switch flush
    ])
    def test_random_traces_exact(self, config):
        rng = np.random.default_rng(11)
        a = random_trace(rng, 6_000, name="A")
        b = random_trace(rng, 9_000, name="B", address_span=1 << 18)
        segments = interleave(a, b, 700, 1_300)
        run_both(lambda: make_core(**config), segments)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seed_sweep_exact(self, seed):
        rng = np.random.default_rng(seed)
        a = random_trace(rng, 4_000, name="A", address_span=1 << 16)
        b = random_trace(rng, 4_000, name="B")
        run_both(make_core, interleave(a, b, 500, 900))


class TestStateWriteback:
    def test_batch_then_scalar_continuation(self):
        """State written back after a batch run must be bit-equivalent:
        a further scalar run lands on identical counters either way."""
        rng = np.random.default_rng(23)
        warm = random_trace(rng, 10_000, name="warm")
        probe = random_trace(rng, 5_000, name="probe")
        core_batch, core_scalar = make_core(), make_core()
        core_batch.run_trace("ctx", warm)
        oracle.run_trace(core_scalar, "ctx", warm)
        after_batch = oracle.run_trace(core_batch, "ctx", probe)
        after_scalar = oracle.run_trace(core_scalar, "ctx", probe)
        for field in COUNTER_FIELDS:
            assert getattr(after_batch, field) == getattr(after_scalar, field)
        assert after_batch.cycles == after_scalar.cycles
        assert_structures_equal(core_batch, core_scalar)

    def test_context_switch_flush_continuation(self):
        rng = np.random.default_rng(29)
        a = random_trace(rng, 3_000, name="A")
        b = random_trace(rng, 3_000, name="B")
        core_batch, core_scalar = make_core(), make_core()
        core_batch.run_segments(interleave(a, b, 400, 600))
        oracle.run_segments(core_scalar, interleave(a, b, 400, 600))
        # Switching back to "A" after the batch run must flush identically.
        probe = random_trace(rng, 2_000, name="probe")
        pb = oracle.run_trace(core_batch, "A", probe)
        ps = oracle.run_trace(core_scalar, "A", probe)
        assert pb.cycles == ps.cycles
        assert pb.tlb_misses == ps.tlb_misses
        assert pb.branch_misses == ps.branch_misses


class TestDispatchAndFallbacks:
    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError, match="no segments"):
            make_core().run_segments([])

    def test_non_pow2_geometry_falls_back_scalar(self):
        """set_count=3 is unsupported by the batch kernels; the dispatch
        must run scalar transparently and stay exact."""
        def make():
            llc = SetAssociativeCache(size_bytes=3 * 4 * 64, line_bytes=64,
                                      associativity=4, name="LLC")
            l1 = SetAssociativeCache(size_bytes=3 * 2 * 64, line_bytes=64,
                                     associativity=2, next_level=llc,
                                     name="L1D")
            return InOrderCore(l1=l1, llc=llc, tlb=Tlb(entries=8),
                               predictor=GsharePredictor(table_bits=6,
                                                         history_bits=4))
        assert not trace_engine.supports_batch(make())
        rng = np.random.default_rng(31)
        trace = random_trace(rng, 4_000, address_span=1 << 14)
        run_both(make, [("ctx", trace)])

    def test_negative_address_raises_both_engines(self):
        kinds = np.array([OpKind.LOAD, OpKind.LOAD], dtype=np.uint8)
        addresses = np.array([64, -8], dtype=np.int64)
        zeros = np.zeros(2, dtype=np.int64)
        trace = Trace(name="bad", kinds=kinds, addresses=addresses,
                      pcs=zeros, taken=np.zeros(2, dtype=bool))
        for run_trace in (InOrderCore.run_trace, oracle.run_trace):
            with pytest.raises(ValueError, match="negative"):
                run_trace(make_core(), "ctx", trace)

    def test_supports_batch_default_core(self):
        assert trace_engine.supports_batch(InOrderCore())
        assert trace_engine.supports_batch(make_core())
