"""Command-line interface.

Subcommands: encode, decode, metrics, sweep, tune, report. Exit codes:
0 on success, 1 on usage errors, 2 on data errors (unreadable/malformed
inputs). All commands are deterministic for identical inputs.

The codec flags of encode, sweep and report are EncodeConfig fields, and
EncodeConfig alone checks them: each command's config is built once
(_config) right after parsing, so a rejected flag or flag combination is a
usage error before any image is read. Only a --qmatrix file, whose table
is part of the config, is read first. Every input file is read through
_read, so a file that cannot be read or parsed is a data error that names
it; sweep and report name a corpus image the codec or the metrics reject
the same way.

metrics writes strict JSON (RFC 8259, no NaN or Infinity): the PSNR of
identical images, which is infinite, is written as null.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import metrics as met
from .energy import (
    KNOBS,
    CorpusImageError,
    QECurve,
    default_activity_model,
    energy_saved,
    estimate_image_energy,
    extract_qe_curve,
)
from .entropy import MAX_PIXELS, compression_ratio
from .pipeline import DECODE_MATRICES, EncodeConfig, decode, encode
from .raster import RasterImage, parse_pnm, write_pnm
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


def _read(path: str, parse):
    """parse applied to the bytes of the file at path. A file that cannot be
    read, or that parse rejects with ValueError, is a DataError naming path."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(data)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


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
    return [(n, _read(str(d / n), parse_pnm)) for n in names]


def _off_or_level(text: str) -> int | None:
    return None if text == "off" else int(text)


def _positive_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _qmatrix(data: bytes) -> tuple[tuple[int, ...], ...]:
    """The table of a file of whitespace-separated divisors, 8 to a row."""
    entries = [int(tok) for tok in data.split()]
    rows = [entries[r : r + 8] for r in range(0, len(entries), 8)]
    return EncodeConfig(qmatrix=rows).qmatrix


def _config(args) -> EncodeConfig:
    """The EncodeConfig of the codec flags given in args; a flag not given
    keeps the field's default. A --qmatrix file is read once the other
    flags are checked."""
    given = {f.name: getattr(args, f.name) for f in fields(EncodeConfig) if f.name in args}
    path = given.pop("qmatrix", None)
    cfg = EncodeConfig(**given)
    return cfg if path is None else replace(cfg, qmatrix=_read(path, _qmatrix))


def _scores(ref: RasterImage, test: RasterImage, data: bytes | None = None) -> dict:
    """The comparison scores of test against ref, in the order both metrics
    and report write them; the compression ratio is that of the container
    data, or None without one."""
    ratio = None if data is None else compression_ratio(ref.width, ref.height, ref.channels, data)
    return {
        "sad_pct": met.sad_pct(ref, test),
        "psnr": met.psnr(ref, test),
        "ssim": met.ssim(ref, test),
        "homogeneity": met.homogeneity(ref),
        "compression_ratio": ratio,
    }


def _cmd_encode(args) -> int:
    data, _stats = encode(_read(args.input, parse_pnm), args.codec)
    _write(args.output, data)
    return 0


def _cmd_decode(args) -> int:
    def decoded(data: bytes):
        return decode(data, decode_matrix=args.decode_quant, max_pixels=args.max_pixels)

    _write(args.output, write_pnm(_read(args.input, decoded)))
    return 0


def _cmd_metrics(args) -> int:
    report = _scores(_read(args.ref, parse_pnm), _read(args.test, parse_pnm))
    if report["psnr"] == math.inf:  # identical images
        report["psnr"] = None
    _write(args.out, json.dumps(report, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    named = _corpus_images(args.corpus)
    try:
        curve, _ = extract_qe_curve(args.knob, [img for _, img in named], args.codec)
    except CorpusImageError as exc:
        name = named[exc.index][0]
        raise DataError(f"{Path(args.corpus) / name}: {exc.__cause__}") from exc
    _write(args.out, curve.to_csv())
    return 0


def _cmd_tune(args) -> int:
    def curve(path: str) -> QECurve:
        return _read(path, lambda data: QECurve.from_csv(data.decode()))

    # TunerInput checks that the curves are of the loop and trunc knobs
    result = tune(TunerInput(curve(args.loop_curve), curve(args.trunc_curve), args.bound))
    _write(args.out, result.to_json() + "\n")
    return 0


def _cmd_report(args) -> int:
    def tuned(data: bytes) -> EncodeConfig:
        result = TunerResult.from_json(data.decode())
        return replace(args.codec, skip_level=result.i, trunc_level=result.j)

    cfg = _read(args.config, tuned)
    model = default_activity_model()
    rows = []
    for name, img in _corpus_images(args.corpus):
        try:
            data, stats = encode(img, cfg)
            scores = _scores(img, decode(data), data).values()
        except ValueError as exc:
            raise DataError(f"{Path(args.corpus) / name}: {exc}") from exc
        energy = (estimate_image_energy(model, stats), energy_saved(model, stats))
        rows.append([name, cfg.skip_level, cfg.trunc_level, *map(repr, [*scores, *energy])])
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

    # The codec flags: each is stored under its EncodeConfig field, and one
    # that is not given is left out, so that the field keeps its default.
    codec = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    codec.add_argument("--quality", type=int)
    codec.add_argument("--quant", dest="quant_mode")
    codec.set_defaults(codec=None)  # main builds it from the flags

    enc = sub.add_parser(
        "encode", parents=[codec], argument_default=argparse.SUPPRESS,
        help="compress a PNM image",
    )
    enc.add_argument("--input", required=True)
    enc.add_argument("--output", required=True)
    enc.add_argument("--truncate", dest="trunc_level", type=int)
    enc.add_argument("--skip", dest="skip_level", type=_off_or_level, help="a level, or off")
    enc.add_argument("--dc-exact", action="store_true")
    enc.add_argument("--qmatrix", help="file with 64 divisor entries")
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="decompress a container to PNM")
    dec.add_argument("--input", required=True)
    dec.add_argument("--output", required=True)
    dec.add_argument("--decode-quant", choices=DECODE_MATRICES, default="matched")
    dec.add_argument(
        "--max-pixels", type=_positive_arg, default=MAX_PIXELS,
        help="refuse (exit 2) a container whose header asks for more pixels",
    )
    dec.set_defaults(func=_cmd_decode)

    mtr = sub.add_parser("metrics", help="compare two images")
    mtr.add_argument("--ref", required=True)
    mtr.add_argument("--test", required=True)
    mtr.add_argument("--out", required=True)
    mtr.set_defaults(func=_cmd_metrics)

    swp = sub.add_parser("sweep", parents=[codec], help="extract a knob quality/energy curve")
    swp.add_argument("--corpus", required=True)
    swp.add_argument("--knob", choices=KNOBS, required=True)
    swp.add_argument("--out", required=True)
    swp.set_defaults(func=_cmd_sweep)

    tun = sub.add_parser("tune", help="pick knob levels under a quality bound")
    tun.add_argument("--loop-curve", required=True)
    tun.add_argument("--trunc-curve", required=True)
    tun.add_argument("--bound", type=float, required=True)
    tun.add_argument("--out", required=True)
    tun.set_defaults(func=_cmd_tune)

    rpt = sub.add_parser("report", parents=[codec], help="run a tuned config over a corpus")
    rpt.add_argument("--corpus", required=True)
    rpt.add_argument("--config", required=True)
    rpt.add_argument("--out", required=True)
    rpt.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "codec" in args:  # encode, sweep and report
            try:
                args.codec = _config(args)
            except ValueError as exc:
                parser.error(str(exc))
        return args.func(args)
    except (DataError, ValueError) as exc:
        print(f"ajpeg: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
