"""System configuration.

:class:`SystemConfig` captures the machine described in the paper's Table III
(a 32-core, 8x4 tiled SoC with four memory controllers) plus the scaled
variants this reproduction actually runs (see DESIGN.md §4: a pure-Python
model cannot execute 32 cores x 100M instructions, so experiments default to
8-16 cores, 1-2 channels, and proportionally shorter epochs).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.dram.timing import DramTiming, PagePolicy

__all__ = ["SystemConfig"]


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Full machine description consumed by :class:`repro.sim.system.System`."""

    # cores and tiles
    cores: int = 8
    mesh_cols: int = 4
    mesh_rows: int = 2

    # cache line
    line_bytes: int = 64

    # private L2 (the PABST throttle point)
    l2_size_kb: int = 256
    l2_assoc: int = 8
    l2_latency: int = 12
    l2_mshrs: int = 16

    # shared, sliced, way-partitioned L3
    l3_slice_kb: int = 1024
    l3_assoc: int = 16
    l3_latency: int = 30

    # interconnect (latency only; see DESIGN.md)
    noc_hop_cycles: int = 3
    noc_base_cycles: int = 4

    # memory controllers
    num_mcs: int = 2
    banks_per_mc: int = 16
    row_bytes: int = 2048
    frontend_read_queue: int = 32
    frontend_write_queue: int = 32
    write_high_watermark: int = 24
    write_low_watermark: int = 8
    page_policy: str = PagePolicy.CLOSED
    dram: DramTiming = field(default_factory=DramTiming.ddr4_2400)

    # QoS control quantum (the SAT setpoint, half the read queue, is fixed
    # by Section III-C1; see repro.core.saturation)
    epoch_cycles: int = 2000

    # How lines interleave across memory controllers: "hash" is the
    # uniform address hash the paper assumes; "low-bits" maps by low line
    # bits, letting strided workloads concentrate on one controller (used
    # to evaluate the per-controller-governor alternative of III-C1).
    mc_interleave: str = "hash"

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.cores > self.mesh_cols * self.mesh_rows:
            raise ValueError(
                f"{self.cores} cores do not fit a "
                f"{self.mesh_cols}x{self.mesh_rows} mesh"
            )
        if self.num_mcs <= 0:
            raise ValueError("num_mcs must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a positive power of two")
        if self.page_policy not in PagePolicy.ALL:
            raise ValueError(f"unknown page policy {self.page_policy!r}")
        if self.write_low_watermark >= self.write_high_watermark:
            raise ValueError("write_low_watermark must be < write_high_watermark")
        if self.write_high_watermark > self.frontend_write_queue:
            raise ValueError("write_high_watermark exceeds the write queue")
        if self.epoch_cycles <= 0:
            raise ValueError("epoch_cycles must be positive")
        if self.mc_interleave not in ("hash", "low-bits"):
            raise ValueError(f"unknown mc_interleave {self.mc_interleave!r}")
        for name in ("l2_assoc", "l3_assoc", "l2_mshrs", "banks_per_mc"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------
    @property
    def peak_bandwidth(self) -> float:
        """System peak in bytes/cycle across all channels."""
        return self.num_mcs * self.dram.peak_bandwidth(self.line_bytes)

    @property
    def l2_sets(self) -> int:
        return (self.l2_size_kb * 1024) // (self.line_bytes * self.l2_assoc)

    @property
    def l3_slice_sets(self) -> int:
        return (self.l3_slice_kb * 1024) // (self.line_bytes * self.l3_assoc)

    @property
    def lines_per_row(self) -> int:
        return max(1, self.row_bytes // self.line_bytes)

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def paper_32core(cls) -> "SystemConfig":
        """The full Table III machine: 32 cores, 8x4 mesh, 4 channels.

        The paper's epoch is 10us = 20,000 cycles at 2 GHz.
        """
        return cls(
            cores=32,
            mesh_cols=8,
            mesh_rows=4,
            num_mcs=4,
            epoch_cycles=20_000,
        )

    @classmethod
    def default_experiment(cls, cores: int = 8, num_mcs: int = 2) -> "SystemConfig":
        """Scaled configuration used by the reproduction's experiments.

        Caches shrink along with run lengths so that working sets wrap and
        writeback traffic reaches steady state within the simulated window
        (paper runs are ~10^8 instructions; ours are ~10^5-10^6 cycles).
        """
        cols = max(2, (cores + 1) // 2)
        rows = (cores + cols - 1) // cols
        return cls(
            cores=cores,
            mesh_cols=cols,
            mesh_rows=rows,
            num_mcs=num_mcs,
            l2_size_kb=64,
            l3_slice_kb=128,
            # Sized so one 16-MSHR streaming class plus a latency-sensitive
            # class fits in the controllers, while two streaming classes
            # oversubscribe them -- the regime boundary Fig. 1 explores.
            frontend_read_queue=48,
            epoch_cycles=2000,
        )

    @classmethod
    def soc_256core(cls) -> "SystemConfig":
        """Scale-out stress machine: 256 cores, 16x16 mesh, 32 channels.

        A machine big enough that one engine's event loop is the
        bottleneck, used by the ``soc256`` scale-out experiment.
        ``noc_base_cycles`` is 16, so every tile<->MC hop costs at
        least 16 cycles.  Caches stay small so traffic is memory-bound:
        most simulated work lands on the memory controllers.
        """
        return cls(
            cores=256,
            mesh_cols=16,
            mesh_rows=16,
            num_mcs=32,
            l2_size_kb=64,
            l3_slice_kb=128,
            noc_base_cycles=16,
            frontend_read_queue=48,
            epoch_cycles=2000,
        )

    @classmethod
    def small_test(cls) -> "SystemConfig":
        """Tiny machine for fast unit tests."""
        return cls(
            cores=2,
            mesh_cols=2,
            mesh_rows=1,
            num_mcs=1,
            l2_size_kb=16,
            l3_slice_kb=32,
            banks_per_mc=4,
            frontend_read_queue=8,
            frontend_write_queue=8,
            write_high_watermark=6,
            write_low_watermark=2,
            epoch_cycles=500,
        )

    def with_dram(self, dram: DramTiming) -> "SystemConfig":
        """Copy of this config with different DRAM timings (Fig. 11 baseline)."""
        return replace(self, dram=dram)

    def scaled_cores(self, cores: int) -> "SystemConfig":
        """Copy with a different core count on an adequate mesh."""
        cols = max(2, (cores + 1) // 2)
        rows = (cores + cols - 1) // cols
        return replace(self, cores=cores, mesh_cols=cols, mesh_rows=rows)
