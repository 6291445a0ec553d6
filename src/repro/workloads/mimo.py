"""Software massive-MIMO baseband processing (the section 5 case study).

An Agora-style engine: converts time-domain samples from radios into
user bits and back.  The DSP is real (numpy): FFT, least-squares
channel estimation from pilots, zero-forcing equalization, QPSK
(de)modulation, and a rate-1/3 repetition code.  Each kernel also
reports an estimated FLOP count so the simulated deployment can charge
compute time on hosts or FAAs.

``UplinkPipeline.process`` is pure computation (unit-testable end to
end: transmitted bits == decoded bits at reasonable SNR).  The
simulation-facing side (the ``case_study_mimo`` experiment) places
frames in the unified heap and runs kernels as idempotent tasks /
scalable functions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from ..sim.rng import SimRng

__all__ = ["MimoConfig", "MimoChannel", "UplinkPipeline",
           "DownlinkPipeline", "downlink_received_bits",
           "DOWNLINK_KERNEL_ORDER",
           "qpsk_modulate", "qpsk_demodulate",
           "repetition_encode", "repetition_decode",
           "KERNEL_ORDER", "flops_to_ns", "record_kernel_flops"]

#: kernels in uplink order (the paper's figure: FFT -> equalization ->
#: demodulation -> decoding)
KERNEL_ORDER = ("fft", "channel_estimate", "equalize", "demodulate",
                "decode")

#: effective compute throughput assumed for a software kernel,
#: in floating-point ops per nanosecond (one AVX-ish core ~8 GFLOP/s).
FLOPS_PER_NS = 8.0


def flops_to_ns(flops: float, speedup: float = 1.0) -> float:
    """Convert a kernel's FLOP estimate to modelled compute time."""
    return flops / (FLOPS_PER_NS * speedup)


def record_kernel_flops(registry, flops: Dict[str, float],
                        prefix: str = "workload.mimo",
                        time: float = None) -> None:
    """Fold one frame's per-kernel FLOP estimates into telemetry.

    The pipelines themselves are pure computation with no simulation
    environment, so the simulation-facing caller (which knows both the
    registry and the sim time the frame completed) records the counts.
    """
    for kernel, count in flops.items():
        registry.histogram(f"{prefix}.{kernel}.flops").observe(
            count, time=time)


@dataclasses.dataclass(frozen=True)
class MimoConfig:
    """Geometry of one cell."""

    antennas: int = 16
    users: int = 4
    subcarriers: int = 64
    data_symbols: int = 4
    snr_db: float = 25.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.antennas < self.users:
            raise ValueError("need at least as many antennas as users")
        if self.subcarriers & (self.subcarriers - 1):
            raise ValueError("subcarriers must be a power of two")

    @property
    def bits_per_frame(self) -> int:
        # QPSK: 2 bits per symbol per user per subcarrier.
        return 2 * self.users * self.subcarriers * self.data_symbols

    @property
    def frame_bytes(self) -> int:
        """Complex64 time-domain samples for one frame (all symbols)."""
        symbols = self.data_symbols + self.users  # + pilot block
        return self.antennas * self.subcarriers * symbols * 8


# --------------------------------------------------------------------------
# Modulation and coding
# --------------------------------------------------------------------------

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)


def qpsk_modulate(bits: np.ndarray) -> np.ndarray:
    """Map bit pairs to unit-power QPSK symbols."""
    if bits.size % 2:
        raise ValueError("bit count must be even for QPSK")
    pairs = bits.reshape(-1, 2)
    index = pairs[:, 0] * 2 + pairs[:, 1]
    return _QPSK[index]


def qpsk_demodulate(symbols: np.ndarray) -> np.ndarray:
    """Hard-decision QPSK demap."""
    bits = np.empty(symbols.size * 2, dtype=np.int8)
    bits[0::2] = (symbols.real < 0).astype(np.int8)
    bits[1::2] = (symbols.imag < 0).astype(np.int8)
    return bits


def repetition_encode(bits: np.ndarray, rate: int = 3) -> np.ndarray:
    """Rate-1/``rate`` repetition code."""
    return np.repeat(bits, rate)


def repetition_decode(coded: np.ndarray, rate: int = 3) -> np.ndarray:
    """Majority-vote decode."""
    if coded.size % rate:
        raise ValueError("coded length not a multiple of the rate")
    votes = coded.reshape(-1, rate).sum(axis=1)
    return (votes * 2 > rate).astype(np.int8)


# --------------------------------------------------------------------------
# The channel
# --------------------------------------------------------------------------

class MimoChannel:
    """A block-fading frequency-selective channel with AWGN."""

    def __init__(self, config: MimoConfig) -> None:
        self.config = config
        # Seeded through the repro.sim.rng stream (fcc-check FCC001).
        # SimRng(s).numpy_generator() == np.random.default_rng(s), so
        # channel realizations are bit-identical to the pre-migration
        # ones and every pinned expectation stays valid.
        rng = SimRng(config.seed).numpy_generator()
        shape = (config.subcarriers, config.antennas, config.users)
        self.h = (rng.standard_normal(shape)
                  + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        self._rng = rng

    def transmit(self, user_symbols: np.ndarray) -> np.ndarray:
        """Propagate (subcarriers, users, symbols) -> antenna samples."""
        config = self.config
        received = np.einsum("sau,sut->sat", self.h, user_symbols)
        noise_power = 10 ** (-config.snr_db / 10)
        noise = (self._rng.standard_normal(received.shape)
                 + 1j * self._rng.standard_normal(received.shape))
        received = received + np.sqrt(noise_power / 2) * noise
        return received


# --------------------------------------------------------------------------
# The uplink pipeline
# --------------------------------------------------------------------------

class UplinkPipeline:
    """FFT -> channel estimation -> ZF equalization -> demod -> decode.

    Every stage returns ``(result, flops)``; ``process`` runs them all
    and collects per-kernel FLOP estimates for the deployment model.
    """

    def __init__(self, config: MimoConfig) -> None:
        self.config = config
        # Time-orthogonal pilots: pilot symbol k carries only user k,
        # with a known per-subcarrier QPSK value.
        rng = SimRng(config.seed + 1).numpy_generator()
        pilot_bits = rng.integers(
            0, 2, size=(2 * config.users * config.subcarriers))
        self.pilot = qpsk_modulate(pilot_bits.astype(np.int8)).reshape(
            config.subcarriers, config.users)

    # -- stages ------------------------------------------------------------

    def fft(self, time_samples: np.ndarray) -> Tuple[np.ndarray, float]:
        """Time -> frequency per antenna per symbol."""
        config = self.config
        freq = np.fft.fft(time_samples, axis=0) / config.subcarriers
        n = config.subcarriers
        count = time_samples.size // n
        flops = 5.0 * n * np.log2(n) * count
        return freq, flops

    def channel_estimate(self, rx_pilot_block: np.ndarray
                         ) -> Tuple[np.ndarray, float]:
        """Per-user LS estimate from the time-orthogonal pilot block.

        ``rx_pilot_block`` has shape (subcarriers, antennas, users):
        pilot symbol k observed only user k, so column k of H is
        Y[:, :, k] / pilot[:, k].
        """
        config = self.config
        h_hat = rx_pilot_block / self.pilot[:, None, :]
        flops = 8.0 * config.subcarriers * config.antennas * config.users
        return h_hat, flops

    def equalize(self, freq_data: np.ndarray, h: np.ndarray
                 ) -> Tuple[np.ndarray, float]:
        """Zero-forcing: x_hat = pinv(H) y per subcarrier."""
        config = self.config
        out = np.empty((config.subcarriers, config.users,
                        freq_data.shape[2]), dtype=complex)
        for s in range(config.subcarriers):
            w = np.linalg.pinv(h[s])
            out[s] = w @ freq_data[s]
        a, u = config.antennas, config.users
        flops = config.subcarriers * (8.0 * a * u * u + 2 * u ** 3
                                      + 8.0 * u * a * freq_data.shape[2])
        return out, flops

    def demodulate(self, symbols: np.ndarray) -> Tuple[np.ndarray, float]:
        bits = qpsk_demodulate(symbols.transpose(1, 2, 0).ravel())
        return bits, 2.0 * symbols.size

    def decode(self, coded_bits: np.ndarray,
               rate: int = 3) -> Tuple[np.ndarray, float]:
        usable = (coded_bits.size // rate) * rate
        decoded = repetition_decode(coded_bits[:usable], rate)
        return decoded, float(coded_bits.size)

    # -- end to end ---------------------------------------------------------------

    def process(self, time_samples: np.ndarray
                ) -> Tuple[np.ndarray, Dict[str, float]]:
        """Run the whole uplink; returns (bits, flops-per-kernel).

        ``time_samples`` has shape (subcarriers, antennas, symbols)
        with the pilot block in the first ``users`` symbols.
        """
        flops: Dict[str, float] = {}
        users = self.config.users
        freq, flops["fft"] = self.fft(time_samples)
        h_hat, flops["channel_estimate"] = \
            self.channel_estimate(freq[:, :, :users])
        equalized, flops["equalize"] = self.equalize(freq[:, :, users:],
                                                     h_hat)
        coded_bits, flops["demodulate"] = self.demodulate(equalized)
        bits, flops["decode"] = self.decode(coded_bits)
        return bits, flops


def make_frame(config: MimoConfig, channel: MimoChannel,
               payload_bits: np.ndarray, pilot: np.ndarray
               ) -> np.ndarray:
    """Build the received time-domain frame for ``payload_bits``.

    Returns (subcarriers, antennas, 1 + data_symbols) time samples.
    """
    config_symbols = config.data_symbols
    coded = repetition_encode(payload_bits)
    # Pad to fill the frame.
    capacity = 2 * config.users * config.subcarriers * config_symbols
    if coded.size > capacity:
        raise ValueError("payload too large for the frame")
    padded = np.zeros(capacity, dtype=np.int8)
    padded[:coded.size] = coded
    symbols = qpsk_modulate(padded).reshape(
        config.users, config_symbols, config.subcarriers)
    # (subcarriers, users, symbols) with the pilot block in front:
    # pilot symbol k carries only user k.
    data = symbols.transpose(2, 0, 1)
    pilot_block = np.zeros((config.subcarriers, config.users,
                            config.users), dtype=complex)
    for k in range(config.users):
        pilot_block[:, k, k] = pilot[:, k]
    tx = np.concatenate([pilot_block, data], axis=2)
    received_freq = channel.transmit(tx)
    # Back to time domain (the radios hand us time samples).
    time_samples = np.fft.ifft(received_freq, axis=0) \
        * config.subcarriers
    return time_samples


# --------------------------------------------------------------------------
# The downlink pipeline
# --------------------------------------------------------------------------

class DownlinkPipeline:
    """encode -> modulate -> ZF precode -> IFFT (bits to radio samples).

    The reverse direction the paper's case study mentions ("multiple
    uplink/downlink handling pipelines").  With TDD reciprocity the
    downlink channel is the transpose of the uplink one; zero-forcing
    precoding pre-cancels it so each user receives its own symbol
    stream directly.
    """

    def __init__(self, config: MimoConfig) -> None:
        self.config = config

    def encode(self, bits: np.ndarray,
               rate: int = 3) -> Tuple[np.ndarray, float]:
        return repetition_encode(bits, rate), float(bits.size * rate)

    def modulate(self, coded_bits: np.ndarray
                 ) -> Tuple[np.ndarray, float]:
        """Pack coded bits into (subcarriers, users, symbols)."""
        config = self.config
        capacity = 2 * config.users * config.subcarriers \
            * config.data_symbols
        if coded_bits.size > capacity:
            raise ValueError("too many bits for the frame")
        padded = np.zeros(capacity, dtype=np.int8)
        padded[:coded_bits.size] = coded_bits
        symbols = qpsk_modulate(padded).reshape(
            config.users, config.data_symbols, config.subcarriers)
        return symbols.transpose(2, 0, 1), 2.0 * capacity

    def precode(self, user_symbols: np.ndarray, h_uplink: np.ndarray
                ) -> Tuple[np.ndarray, float]:
        """Zero-forcing: antennas transmit x = pinv(H^T) s."""
        config = self.config
        out = np.empty((config.subcarriers, config.antennas,
                        user_symbols.shape[2]), dtype=complex)
        for s in range(config.subcarriers):
            w = np.linalg.pinv(h_uplink[s].T)
            out[s] = w @ user_symbols[s]
        a, u = config.antennas, config.users
        flops = config.subcarriers * (8.0 * a * u * u + 2 * u ** 3
                                      + 8.0 * a * u
                                      * user_symbols.shape[2])
        return out, flops

    def ifft(self, freq_samples: np.ndarray) -> Tuple[np.ndarray, float]:
        config = self.config
        time_samples = np.fft.ifft(freq_samples, axis=0) \
            * config.subcarriers
        n = config.subcarriers
        count = freq_samples.size // n
        return time_samples, 5.0 * n * np.log2(n) * count

    def process(self, bits: np.ndarray
                ) -> Tuple[np.ndarray, Dict[str, float]]:
        """bits -> antenna time samples; returns (samples, flops)."""
        flops: Dict[str, float] = {}
        coded, flops["encode"] = self.encode(bits)
        symbols, flops["modulate"] = self.modulate(coded)
        # Reciprocity: reuse the uplink channel estimate.  Here we use
        # the true channel (a calibrated system); estimation error is
        # an uplink concern tested there.
        channel = MimoChannel(self.config)
        precoded, flops["precode"] = self.precode(symbols, channel.h)
        samples, flops["ifft"] = self.ifft(precoded)
        return samples, flops


def downlink_received_bits(config: MimoConfig,
                           antenna_time_samples: np.ndarray,
                           snr_db: float = None) -> np.ndarray:
    """What each user's receiver demodulates (reciprocal channel)."""
    channel = MimoChannel(config)
    freq = np.fft.fft(antenna_time_samples, axis=0) / config.subcarriers
    # y[s, u, t] = sum_a H[s, a, u] * x[s, a, t]  (reciprocity: H^T)
    received = np.einsum("sau,sat->sut", channel.h, freq)
    if snr_db is not None:
        rng = SimRng(config.seed + 7).numpy_generator()
        noise_power = 10 ** (-snr_db / 10)
        received = received + np.sqrt(noise_power / 2) * (
            rng.standard_normal(received.shape)
            + 1j * rng.standard_normal(received.shape))
    bits = qpsk_demodulate(received.transpose(1, 2, 0).ravel())
    return bits


DOWNLINK_KERNEL_ORDER = ("encode", "modulate", "precode", "ifft")
