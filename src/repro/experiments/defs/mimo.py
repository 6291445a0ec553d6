"""CS: the section 5 case study — MIMO baseband over UniFabric.

The real uplink DSP (numpy) runs once for FLOP counts and a bit-exactness
check; the three deployments then replay those costs on the simulated
rack.
"""

from __future__ import annotations

from typing import Any, Dict

from ...infra import ClusterSpec, FaaSpec, build_cluster
from ...sim import SimRng, run_proc
from ..format import print_table
from ..registry import Param, experiment

__all__ = ["stage_bytes", "kernel_flops", "run_deployment"]


def stage_bytes(config) -> Dict[str, tuple]:
    """(input_bytes, output_bytes) per kernel."""
    s, a, u, d = (config.subcarriers, config.antennas, config.users,
                  config.data_symbols)
    frame = config.frame_bytes
    h = s * a * u * 16
    eq = s * u * d * 16
    coded_bytes = (2 * s * u * d) // 8
    return {
        "fft": (frame, frame),
        "channel_estimate": (s * a * u * 16, h),
        "equalize": (frame + h, eq),
        "demodulate": (eq, coded_bytes),
        "decode": (coded_bytes, coded_bytes // 3),
    }


def kernel_flops(config) -> Dict[str, float]:
    """Run the real DSP once; returns per-kernel FLOPs (and checks BER)."""
    import numpy as np

    from ...workloads.mimo import (
        MimoChannel,
        UplinkPipeline,
        make_frame,
    )
    channel = MimoChannel(config)
    pipeline = UplinkPipeline(config)
    rng = SimRng(0).numpy_generator()
    payload = rng.integers(0, 2,
                           size=config.bits_per_frame // 3).astype(np.int8)
    frame = make_frame(config, channel, payload, pipeline.pilot)
    decoded, flops = pipeline.process(frame)
    assert np.array_equal(decoded[:payload.size], payload), \
        "uplink DSP must decode bit-exactly at this SNR"
    return flops


def run_deployment(ctx, mode: str, config, flops: Dict[str, float],
                   frames: int = 8, faa_speedup: float = 4.0,
                   chunk: int = 4096) -> float:
    """Total time to process ``frames`` frames; returns per-frame ns."""
    from ...core import ETrans, MovementOrchestrator
    from ...workloads.mimo import KERNEL_ORDER, flops_to_ns
    env = ctx.env(mode)
    cluster = build_cluster(env, ClusterSpec(
        hosts=1, faas=[FaaSpec(name="faa0")]))
    host = cluster.host(0)
    engine = MovementOrchestrator(env).attach_host(host)
    remote_base = host.remote_base("fam0")
    local_base = 8 << 20
    sizes = stage_bytes(config)
    speedup = faa_speedup if mode == "unifabric" else 1.0

    def touch(base, nbytes, is_write):
        offset = 0
        while offset < nbytes:
            piece = min(chunk, nbytes - offset)
            yield from host.mem.access(base + offset, is_write, piece)
            offset += piece

    def process_frame(data_base):
        scratch = data_base + (2 << 20)
        for kernel in KERNEL_ORDER:
            in_bytes, out_bytes = sizes[kernel]
            yield from touch(data_base, in_bytes, False)
            yield env.timeout(flops_to_ns(flops[kernel], speedup))
            yield from touch(scratch, out_bytes, True)

    def go():
        start = env.now
        for frame_index in range(frames):
            frame_offset = frame_index * (4 << 20)
            if mode == "all-local":
                yield from process_frame(local_base + frame_offset)
            elif mode == "naive-remote":
                yield from process_frame(remote_base + frame_offset)
            else:
                # Stage the incoming frame locally via an elastic
                # transaction, then compute against local memory.
                trans = ETrans(
                    src_list=[(remote_base + frame_offset,
                               config.frame_bytes)],
                    dst_list=[(local_base + frame_offset,
                               config.frame_bytes)],
                    attributes={"priority": 0})
                handle = engine.submit(trans)
                yield handle.wait()
                yield from process_frame(local_base + frame_offset)
        return (env.now - start) / frames

    return run_proc(env, go(), horizon=500_000_000_000)


def render_case_study_mimo(summary: Dict[str, Any],
                           run_params: Dict[str, Any]) -> None:
    results = summary["modes"]
    local = results["all-local"]
    rows = [[mode, value / 1e3, local / value]
            for mode, value in results.items()]
    print_table(
        f"CS: MIMO uplink per-frame time ({run_params['frames']} "
        f"frames, {run_params['antennas']} ant x "
        f"{run_params['users']} users x "
        f"{run_params['subcarriers']} subcarriers)",
        ["deployment", "us/frame", "vs all-local"], rows)


@experiment(
    "case_study_mimo",
    "CS: MIMO uplink — all-local vs naive-remote vs unifabric",
    params={"frames": Param(int, 8, "frames processed"),
            "faa_speedup": Param(float, 4.0, "FAA kernel speedup"),
            "chunk": Param(int, 4096, "memory-touch chunk bytes"),
            "antennas": Param(int, 16, "base-station antennas"),
            "users": Param(int, 4, "spatial streams"),
            "subcarriers": Param(int, 64, "OFDM subcarriers"),
            "data_symbols": Param(int, 4, "data symbols per frame"),
            "snr_db": Param(float, 25.0, "channel SNR")},
    render=render_case_study_mimo,
    invariants=(
        ("cs_naive_remote_is_the_worst",
         lambda s, _p: s["modes"]["naive-remote"]
         > max(s["modes"]["all-local"], s["modes"]["unifabric"])),
        # Staging + FAA speedup: within 1.5x of the monolithic
        # appliance (and usually ahead thanks to the accelerator).
        ("cs_unifabric_close_to_or_better_than_local",
         lambda s, _p: s["modes"]["unifabric"]
         < 1.5 * s["modes"]["all-local"]),
    ))
def run_case_study_mimo(ctx) -> Dict[str, Any]:
    from ...workloads.mimo import MimoConfig
    config = MimoConfig(antennas=ctx.antennas, users=ctx.users,
                        subcarriers=ctx.subcarriers,
                        data_symbols=ctx.data_symbols,
                        snr_db=ctx.snr_db)
    flops = kernel_flops(config)
    return {"modes": {mode: run_deployment(ctx, mode, config, flops,
                                           ctx.frames, ctx.faa_speedup,
                                           ctx.chunk)
                      for mode in ("all-local", "naive-remote",
                                   "unifabric")}}
