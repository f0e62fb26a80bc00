"""Command-line interface.

Subcommands: encode, decode, metrics, sweep, tune, report. Exit codes:
0 on success, 1 on usage errors, 2 on data errors (unreadable/malformed
inputs). All commands are deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import metrics as met
from .energy import (
    QECurve,
    default_activity_model,
    energy_saved,
    estimate_image_energy,
    extract_qe_curve,
)
from .entropy import CorruptStreamError, compression_ratio
from .knobs import SKIP_LEVELS, TRUNC_LEVELS
from .pipeline import EncodeConfig, decode, encode
from .quant import QUALITY_LEVELS
from .raster import PnmError, RasterImage, parse_pnm, write_pnm
from .tuner import TunerInput, TunerResult, tune

USAGE_EXIT = 1
DATA_EXIT = 2


class DataError(Exception):
    """Unreadable or malformed input data."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _read_image(path: str) -> RasterImage:
    try:
        return parse_pnm(Path(path).read_bytes())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except PnmError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _write(path: str, data) -> None:
    try:
        if isinstance(data, bytes):
            Path(path).write_bytes(data)
        else:
            Path(path).write_text(data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _corpus_images(directory: str) -> list[tuple[str, RasterImage]]:
    d = Path(directory)
    if not d.is_dir():
        raise DataError(f"{directory} is not a directory")
    names = sorted(
        p.name for p in d.iterdir() if p.suffix.lower() in (".pgm", ".ppm", ".pnm")
    )
    if not names:
        raise DataError(f"no PNM images in {directory}")
    return [(n, _read_image(str(d / n))) for n in names]


def _skip_level(text: str) -> int | None:
    if text == "off":
        return None
    try:
        value = int(text)
    except ValueError:
        value = None
    if value not in SKIP_LEVELS:
        raise argparse.ArgumentTypeError("skip level must be 'off' or 0..6")
    return value


def _quality_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value not in QUALITY_LEVELS:
        raise argparse.ArgumentTypeError("quality must be an integer in [1, 99]")
    return value


def _load_qmatrix(path: str) -> tuple[tuple[int, ...], ...]:
    try:
        entries = [int(tok) for tok in Path(path).read_text().split()]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: quantization file must hold 64 integers") from exc
    if len(entries) != 64:
        raise DataError(f"{path}: expected 64 entries, found {len(entries)}")
    try:
        return EncodeConfig(qmatrix=[entries[r : r + 8] for r in range(0, 64, 8)]).qmatrix
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _config_from_args(args) -> EncodeConfig:
    return EncodeConfig(
        quality=args.quality,
        quant_mode=args.quant,
        trunc_level=args.truncate,
        skip_level=args.skip,
        dc_exact=args.dc_exact,
        qmatrix=_load_qmatrix(args.qmatrix) if args.qmatrix else None,
    )


def _cmd_encode(args) -> int:
    img = _read_image(args.input)
    data, _stats = encode(img, _config_from_args(args))
    _write(args.output, data)
    return 0


def _cmd_decode(args) -> int:
    data = _read_bytes(args.input)
    try:
        img = decode(data, decode_matrix=args.decode_quant)
    except CorruptStreamError as exc:
        raise DataError(f"{args.input}: {exc}") from exc
    _write(args.output, write_pnm(img))
    return 0


def _cmd_metrics(args) -> int:
    ref = _read_image(args.ref)
    test = _read_image(args.test)
    try:
        report = {
            "sad_pct": met.sad_pct(ref, test),
            "psnr": met.psnr(ref, test),
            "ssim": met.ssim(ref, test),
            "homogeneity": met.homogeneity(ref),
            "compression_ratio": None,
        }
    except met.MetricError as exc:
        raise DataError(str(exc)) from exc
    _write(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    images = [img for _, img in _corpus_images(args.corpus)]
    base = EncodeConfig(quality=args.quality, quant_mode=args.quant)
    curve, _ = extract_qe_curve(args.knob, images, base)
    _write(args.out, curve.to_csv())
    return 0


def _read_curve(path: str, kind: str) -> QECurve:
    try:
        curve = QECurve.from_csv(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if curve.kind != kind:
        raise DataError(f"{path}: expected a {kind} curve, found {curve.kind}")
    return curve


def _cmd_tune(args) -> int:
    loop = _read_curve(args.loop_curve, "loop")
    trunc = _read_curve(args.trunc_curve, "trunc")
    try:
        result = tune(TunerInput(loop, trunc, args.bound))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    _write(args.out, result.to_json() + "\n")
    return 0


def _cmd_report(args) -> int:
    try:
        cfg_json = TunerResult.from_json(Path(args.config).read_text())
    except OSError as exc:
        raise DataError(f"cannot read {args.config}: {exc}") from exc
    except (ValueError, KeyError) as exc:
        raise DataError(f"{args.config}: {exc}") from exc
    cfg = EncodeConfig(
        quality=args.quality,
        quant_mode=args.quant,
        trunc_level=cfg_json.j,
        skip_level=cfg_json.i,
    )
    model = default_activity_model()
    rows = []
    for name, img in _corpus_images(args.corpus):
        data, stats = encode(img, cfg)
        out = decode(data)
        rows.append(
            [
                name,
                cfg_json.i,
                cfg_json.j,
                repr(met.sad_pct(img, out)),
                repr(met.psnr(img, out)),
                repr(met.ssim(img, out)),
                repr(met.homogeneity(img)),
                repr(compression_ratio(img.width, img.height, img.channels, data)),
                repr(estimate_image_energy(model, stats)),
                repr(energy_saved(model, stats)),
            ]
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "filename", "skip_level", "trunc_level", "sad_pct", "psnr", "ssim",
            "homogeneity", "compression_ratio", "relative_energy", "energy_saved",
        ]
    )
    writer.writerows(rows)
    _write(args.out, buf.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ajpeg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="compress a PNM image")
    enc.add_argument("--input", required=True)
    enc.add_argument("--output", required=True)
    enc.add_argument("--quality", type=_quality_arg, default=50)
    enc.add_argument("--quant", choices=["shift", "div"], default="shift")
    enc.add_argument("--truncate", type=int, choices=TRUNC_LEVELS, default=0)
    enc.add_argument("--skip", type=_skip_level, default=None, metavar="off|0..6")
    enc.add_argument("--dc-exact", action="store_true")
    enc.add_argument("--qmatrix", help="file with 64 divisor entries")
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="decompress a container to PNM")
    dec.add_argument("--input", required=True)
    dec.add_argument("--output", required=True)
    dec.add_argument(
        "--decode-quant", choices=["matched", "standard"], default="matched"
    )
    dec.set_defaults(func=_cmd_decode)

    mtr = sub.add_parser("metrics", help="compare two images")
    mtr.add_argument("--ref", required=True)
    mtr.add_argument("--test", required=True)
    mtr.add_argument("--out", required=True)
    mtr.set_defaults(func=_cmd_metrics)

    swp = sub.add_parser("sweep", help="extract a knob quality/energy curve")
    swp.add_argument("--corpus", required=True)
    swp.add_argument("--knob", choices=["loop", "trunc"], required=True)
    swp.add_argument("--quality", type=_quality_arg, default=50)
    swp.add_argument("--quant", choices=["shift", "div"], default="shift")
    swp.add_argument("--out", required=True)
    swp.set_defaults(func=_cmd_sweep)

    tun = sub.add_parser("tune", help="pick knob levels under a quality bound")
    tun.add_argument("--loop-curve", required=True)
    tun.add_argument("--trunc-curve", required=True)
    tun.add_argument("--bound", type=float, required=True)
    tun.add_argument("--out", required=True)
    tun.set_defaults(func=_cmd_tune)

    rpt = sub.add_parser("report", help="run a tuned config over a corpus")
    rpt.add_argument("--corpus", required=True)
    rpt.add_argument("--config", required=True)
    rpt.add_argument("--quality", type=_quality_arg, default=50)
    rpt.add_argument("--quant", choices=["shift", "div"], default="shift")
    rpt.add_argument("--out", required=True)
    rpt.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"ajpeg: {exc}", file=sys.stderr)
        return DATA_EXIT
    except ValueError as exc:
        print(f"ajpeg: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
