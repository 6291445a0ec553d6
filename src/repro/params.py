"""Calibration constants for the UniFabric simulator.

Every timing number in the simulator traces back to this module, which
in turn traces back to the paper (Table 2 and the quantitative claims in
sections 3 and 4).  Times are in nanoseconds unless the name says
otherwise; sizes are in bytes.

The CPU memory-level-parallelism (MLP) figures are *fitted* so that the
simulated throughput of a single core reproduces the MOPS column of
Table 2 given the latency column (throughput = MLP / latency).  The fit
is documented row by row in EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses

CACHELINE_BYTES = 64

# --------------------------------------------------------------------------
# Table 2: cacheline (64B) read/write performance on the Omega testbed.
# Latencies are the paper's numbers; MLP values are fitted.
# --------------------------------------------------------------------------

L1_READ_NS = 5.4
L1_WRITE_NS = 5.4
L2_READ_NS = 13.6
L2_WRITE_NS = 12.5
LOCAL_MEM_READ_NS = 111.7
LOCAL_MEM_WRITE_NS = 119.3
REMOTE_MEM_READ_NS = 1575.3
REMOTE_MEM_WRITE_NS = 1613.3

# Paper MOPS targets (Table 2), used by benchmarks for comparison only.
PAPER_MOPS = {
    ("l1", "read"): 357.4,
    ("l1", "write"): 355.4,
    ("l2", "read"): 143.4,
    ("l2", "write"): 154.5,
    ("local", "read"): 29.4,
    ("local", "write"): 16.9,
    ("remote", "read"): 2.5,
    ("remote", "write"): 2.5,
}

# Fitted memory-level parallelism per hierarchy level: the number of
# 64B operations a single core keeps in flight at that level.
# MLP = paper_MOPS * latency_ns / 1000.
MLP = {
    ("l1", "read"): 357.4 * L1_READ_NS / 1e3,       # ~1.93
    ("l1", "write"): 355.4 * L1_WRITE_NS / 1e3,      # ~1.92
    ("l2", "read"): 143.4 * L2_READ_NS / 1e3,        # ~1.95
    ("l2", "write"): 154.5 * L2_WRITE_NS / 1e3,      # ~1.93
    ("local", "read"): 29.4 * LOCAL_MEM_READ_NS / 1e3,    # ~3.28
    ("local", "write"): 16.9 * LOCAL_MEM_WRITE_NS / 1e3,  # ~2.02
    ("remote", "read"): 2.5 * REMOTE_MEM_READ_NS / 1e3,   # ~3.94
    ("remote", "write"): 2.5 * REMOTE_MEM_WRITE_NS / 1e3,  # ~4.03
}

# --------------------------------------------------------------------------
# CXL Flex Bus physical layer (section 2.1).
# --------------------------------------------------------------------------

LINK_GT_PER_S = 64.0           # max 64 GT/s per lane
FLIT_BYTES_SMALL = 68          # 68B flit mode
FLIT_BYTES_LARGE = 256         # 256B flit mode
LANE_WIDTHS = (4, 8, 16)       # x4 / x8 / x16 bifurcation
PHYS_ENCODING_OVERHEAD = 0.0   # PAM4/FLIT mode: negligible line coding tax

# --------------------------------------------------------------------------
# Switch / link-layer targets (sections 3 and 4).
# --------------------------------------------------------------------------

SWITCH_PORT_LATENCY_NS = 90.0       # "<100ns non-blocking switch latency"
SWITCH_PORT_BANDWIDTH_GBPS = 512.0  # FabreX per-port figure
LINK_PROPAGATION_NS = 5.0           # cable + SerDes per hop, one way
UNLOADED_FLIT_RTT_TARGET_NS = 200.0  # 64B flit end-to-end RTT, unloaded
PCIE_INTERFERENCE_TARGET_NS = 600.0  # added one-way latency, concurrent 64B

# Link-layer credit-based flow control defaults.
DEFAULT_LINK_CREDITS = 32            # per-VC flit credits at each hop
CREDIT_UPDATE_INTERVAL_NS = 50.0     # piggyback/update cadence
CREDIT_RAMP_FACTOR = 2.0             # exponential ramp-up multiplier
CREDIT_RAMP_INTERVAL_NS = 500.0      # vanilla CFC re-allocation period
CONTROL_LANE_FRACTION = 0.02         # DP#4 dedicated-lane bandwidth share

# --------------------------------------------------------------------------
# Adapter / device processing overheads.
# --------------------------------------------------------------------------

FHA_PROCESSING_NS = 20.0    # host adapter: channel request -> flit
FEA_PROCESSING_NS = 25.0    # endpoint adapter: flit -> device primitive
FAM_ACCESS_NS = 80.0        # generic device service time (tests/benches)

# FAM media latency, calibrated so that the full simulated path
# (LLC miss -> FHA -> link -> switch -> link -> FEA -> media and back)
# reproduces Table 2's remote read/write latencies (~1575/1613 ns).
# The calibration residual is documented in EXPERIMENTS.md.
FAM_MEDIA_READ_NS = 1279.4
FAM_MEDIA_WRITE_NS = 1317.4
DMA_SETUP_NS = 350.0        # comm-fabric baseline: descriptor + doorbell
DMA_INTERRUPT_NS = 600.0    # comm-fabric baseline: completion interrupt
NIC_STACK_NS = 1200.0       # comm-fabric baseline: per-message stack tax

# --------------------------------------------------------------------------
# Cache geometry defaults (host hierarchy).
# --------------------------------------------------------------------------

L1_SIZE_BYTES = 32 * 1024
L1_ASSOC = 8
L2_SIZE_BYTES = 1024 * 1024
L2_ASSOC = 16
LLC_SIZE_BYTES = 32 * 1024 * 1024
LLC_ASSOC = 16
LLC_HIT_NS = 40.0
VICTIM_BUFFER_ENTRIES = 8

# --------------------------------------------------------------------------
# DRAM device model.
# --------------------------------------------------------------------------

DRAM_BANKS = 16
DRAM_ROW_BYTES = 8 * 1024
DRAM_ROW_HIT_NS = 15.0
DRAM_ROW_MISS_NS = 45.0
DRAM_BUS_NS_PER_CACHELINE = 3.2

# --------------------------------------------------------------------------
# Observer defaults (repro.telemetry).  They live here, not in the
# observer modules, because experiment parameter schemas use them as
# defaults and an unobserved run must not import an observer.
# --------------------------------------------------------------------------

# Timeline sampler cadence: fine enough to resolve credit rebalance
# periods (1-10 us) without dominating small runs.
SAMPLER_INTERVAL_NS = 1_000.0
# Health tumbling-window width: one credit rebalance period, so windowed
# stall shares line up with the control-plane cadence they drive.
HEALTH_WINDOW_NS = 2_000.0


@dataclasses.dataclass(frozen=True)
class LinkParams:
    """Parameters of one fabric link (one direction)."""

    lanes: int = 16
    gt_per_s: float = LINK_GT_PER_S
    flit_bytes: int = FLIT_BYTES_SMALL
    propagation_ns: float = LINK_PROPAGATION_NS
    credits: int = DEFAULT_LINK_CREDITS

    @property
    def bytes_per_ns(self) -> float:
        """Raw payload bandwidth of the link in bytes per nanosecond."""
        # GT/s per lane == gigabits per second per lane for PAM-less NRZ
        # at FLIT mode granularity; we fold encoding overhead into the
        # constant rather than modelling 128b/130b explicitly.
        bits_per_ns = self.lanes * self.gt_per_s
        return bits_per_ns / 8.0 * (1.0 - PHYS_ENCODING_OVERHEAD)

    def serialization_ns(self, nbytes: int) -> float:
        """Time to push ``nbytes`` onto the wire."""
        return nbytes / self.bytes_per_ns


def flit_count(payload_bytes: int, flit_bytes: int = FLIT_BYTES_SMALL) -> int:
    """Number of flits needed to carry ``payload_bytes`` of payload.

    A 68B flit carries one 64B cacheline plus header/CRC; a 256B flit
    carries 3 cachelines worth of slots plus header.  We model payload
    capacity as flit size minus a 4-byte header per 64 bytes of payload.
    """
    if payload_bytes <= 0:
        return 1
    if flit_bytes == FLIT_BYTES_SMALL:
        payload_per_flit = CACHELINE_BYTES
    else:
        payload_per_flit = 3 * CACHELINE_BYTES
    return -(-payload_bytes // payload_per_flit)
