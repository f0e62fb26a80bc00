"""Bit-exact model of a multiplier-less approximate JPEG encoder.

The encode datapath uses shift-add DCT kernels and power-of-2
quantization, with optional sample truncation and block-skip perforation
knobs, an operation-census energy proxy, and a greedy quality/energy
tuner. See the individual modules for details.
"""

from .energy import (
    CorpusImageError,
    EnergyModel,
    EnergyStats,
    QECurve,
    QEPoint,
    default_activity_model,
    energy_saved,
    estimate_image_energy,
    extract_qe_curve,
)
from .entropy import CorruptStreamError, compression_ratio
from .metrics import homogeneity, pearson, psnr, sad_pct, ssim
from .pipeline import EncodeConfig, decode, encode, reconstruct
from .raster import PnmError, RasterImage, parse_pnm, write_pnm
from .tuner import TunerInput, TunerResult, exhaustive_oracle, tune

__all__ = [
    "CorpusImageError",
    "CorruptStreamError",
    "EncodeConfig",
    "EnergyModel",
    "EnergyStats",
    "PnmError",
    "QECurve",
    "QEPoint",
    "RasterImage",
    "TunerInput",
    "TunerResult",
    "compression_ratio",
    "decode",
    "default_activity_model",
    "encode",
    "energy_saved",
    "estimate_image_energy",
    "exhaustive_oracle",
    "extract_qe_curve",
    "homogeneity",
    "parse_pnm",
    "pearson",
    "psnr",
    "reconstruct",
    "sad_pct",
    "ssim",
    "tune",
    "write_pnm",
]
