"""CLI subcommands, file plumbing, and exit codes."""

import json

import numpy as np
import pytest

from ajpeg.cli import main
from ajpeg.energy import QECurve
from ajpeg.pipeline import EncodeConfig, reconstruct
from ajpeg.raster import RasterImage, parse_pnm, write_pnm
from ajpeg.tuner import TunerResult


def _image(seed=0, h=16, w=16):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    px = 120 + 40 * np.sin(xx / 5.0) + rng.integers(-8, 9, size=(h, w))
    return RasterImage(np.clip(px, 0, 255).astype(np.uint8))


@pytest.fixture
def pgm(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(write_pnm(_image()))
    return path


def test_encode_decode_round_trip(tmp_path, pgm):
    out = tmp_path / "img.ajpg"
    back = tmp_path / "back.pgm"
    assert main(["encode", "--input", str(pgm), "--output", str(out),
                 "--quality", "80", "--skip", "2", "--truncate", "1"]) == 0
    assert main(["decode", "--input", str(out), "--output", str(back)]) == 0
    decoded = parse_pnm(back.read_bytes())
    want, _ = reconstruct(_image(), EncodeConfig(quality=80, skip_level=2, trunc_level=1))
    assert decoded == want


def test_decode_standard_matrix_flag(tmp_path, pgm):
    out = tmp_path / "img.ajpg"
    main(["encode", "--input", str(pgm), "--output", str(out), "--quality", "90"])
    matched = tmp_path / "m.pgm"
    standard = tmp_path / "s.pgm"
    assert main(["decode", "--input", str(out), "--output", str(matched)]) == 0
    assert main(["decode", "--input", str(out), "--output", str(standard),
                 "--decode-quant", "standard"]) == 0
    assert parse_pnm(matched.read_bytes()) != parse_pnm(standard.read_bytes())


def test_encode_with_qmatrix_file(tmp_path, pgm):
    qfile = tmp_path / "q.txt"
    qfile.write_text(" ".join(["16"] * 64))
    out = tmp_path / "img.ajpg"
    assert main(["encode", "--input", str(pgm), "--output", str(out),
                 "--qmatrix", str(qfile)]) == 0
    back = tmp_path / "back.pgm"
    assert main(["decode", "--input", str(out), "--output", str(back)]) == 0
    want, _ = reconstruct(_image(), EncodeConfig(qmatrix=np.full((8, 8), 16)))
    assert parse_pnm(back.read_bytes()) == want


def test_metrics_report_file(tmp_path, pgm):
    test_img = tmp_path / "test.pgm"
    test_img.write_bytes(write_pnm(_image(seed=1)))
    out = tmp_path / "metrics.json"
    assert main(["metrics", "--ref", str(pgm), "--test", str(test_img),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"sad_pct", "psnr", "ssim", "homogeneity",
                           "compression_ratio"}
    assert report["compression_ratio"] is None
    assert 0 < report["ssim"] <= 1.0
    assert report["psnr"] > 0


def test_metrics_of_identical_images_are_strict_json(tmp_path, pgm):
    # an infinite PSNR is written as null, not as Infinity, which RFC 8259
    # parsers reject
    out = tmp_path / "metrics.json"
    assert main(["metrics", "--ref", str(pgm), "--test", str(pgm), "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["psnr"] is None
    assert report["sad_pct"] == 0 and report["ssim"] == 1.0


def _corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for k in range(2):
        (d / f"im{k}.pgm").write_bytes(write_pnm(_image(seed=k)))
    return d


def test_sweep_emits_curve_csv(tmp_path):
    d = _corpus_dir(tmp_path)
    for knob, levels in (("loop", 7), ("trunc", 5)):
        out = tmp_path / f"{knob}.csv"
        assert main(["sweep", "--corpus", str(d), "--knob", knob,
                     "--out", str(out)]) == 0
        curve = QECurve.from_csv(out.read_text())
        assert curve.kind == knob
        assert len(curve.points) == levels


def test_tune_and_report(tmp_path):
    d = _corpus_dir(tmp_path)
    loop_csv = tmp_path / "loop.csv"
    trunc_csv = tmp_path / "trunc.csv"
    main(["sweep", "--corpus", str(d), "--knob", "loop", "--out", str(loop_csv)])
    main(["sweep", "--corpus", str(d), "--knob", "trunc", "--out", str(trunc_csv)])
    cfg_json = tmp_path / "cfg.json"
    assert main(["tune", "--loop-curve", str(loop_csv), "--trunc-curve",
                 str(trunc_csv), "--bound", "0.05", "--out", str(cfg_json)]) == 0
    result = TunerResult.from_json(cfg_json.read_text())
    assert result.predicted_quality <= 0.05

    report = tmp_path / "report.csv"
    assert main(["report", "--corpus", str(d), "--config", str(cfg_json),
                 "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0].startswith("filename,skip_level,trunc_level,sad_pct")
    assert len(lines) == 3  # header + two images
    assert lines[1].split(",")[1] == str(result.i)
    assert lines[1].split(",")[2] == str(result.j)


@pytest.mark.parametrize("row", ["loop,9,0.1,0.5", "loop,1,nan,0.5", "loop,1,0.1,nan"])
def test_tune_rejects_a_curve_outside_its_knob(tmp_path, capsys, row):
    # a level the knob lacks, or a value that is not finite, is a data error
    # naming the CSV, not a tuned config that report then refuses
    loop_csv = tmp_path / "loop.csv"
    loop_csv.write_text("kind,level,quality_degradation,relative_energy\nloop,0,0.0,1.0\n" + row + "\n")
    trunc_csv = tmp_path / "trunc.csv"
    trunc_csv.write_text("kind,level,quality_degradation,relative_energy\ntrunc,0,0.0,1.0\n")
    out = tmp_path / "cfg.json"
    assert main(["tune", "--loop-curve", str(loop_csv), "--trunc-curve", str(trunc_csv),
                 "--bound", "0.2", "--out", str(out)]) == 2
    assert str(loop_csv) in capsys.readouterr().err
    assert not out.exists()


_TUNED = '"j": 1, "predicted_quality": 0.01, "predicted_energy": 0.8'


@pytest.mark.parametrize(
    "text",
    [
        '{"i": null, ' + _TUNED + "}",
        "[{" + '"i": 2, ' + _TUNED + "}]",
        '{"i": 1.5, ' + _TUNED + "}",
        '{"i": true, ' + _TUNED + "}",
        "{" + _TUNED + "}",
        '{"i": 2, "j": 1}',
        "not json",
        '{"i": 9, ' + _TUNED + "}",
    ],
    ids=["null-level", "array", "fractional-level", "boolean-level", "missing-i",
         "missing-predictions", "not-json", "skip-level-out-of-range"],
)
def test_report_rejects_malformed_config(tmp_path, capsys, text):
    # a malformed tuner result is a data error, never a traceback or a
    # silently truncated level
    cfg_json = tmp_path / "cfg.json"
    cfg_json.write_text(text)
    out = tmp_path / "report.csv"
    assert main(["report", "--corpus", str(_corpus_dir(tmp_path)), "--config", str(cfg_json),
                 "--out", str(out)]) == 2
    assert str(cfg_json) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "pixels, message",
    [
        (np.full((4, 4), 99, dtype=np.uint8), "smaller than the SSIM window"),
        (np.zeros((16, 16), dtype=np.uint8), "all-zero reference"),
    ],
    ids=["smaller-than-the-ssim-window", "all-black"],
)
def test_report_names_the_image_it_cannot_score(tmp_path, capsys, pixels, message):
    # an image the metrics reject is a data error that names the image
    d = _corpus_dir(tmp_path)
    bad = d / "bad.pgm"
    bad.write_bytes(write_pnm(RasterImage(pixels)))
    cfg_json = tmp_path / "cfg.json"
    cfg_json.write_text('{"i": 2, ' + _TUNED + "}")
    out = tmp_path / "report.csv"
    assert main(["report", "--corpus", str(d), "--config", str(cfg_json), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("knob", ["loop", "trunc"])
@pytest.mark.parametrize("value", [1, 0], ids=["flat-reconstructed-black", "all-black"])
def test_sweep_names_the_image_it_cannot_score(tmp_path, capsys, knob, value):
    # a flat 16x16 image of 1s reconstructs to all zeros, as an all-black
    # one does, and the SAD against an all-zero reference is undefined: a
    # data error that names the image, the third of the sorted corpus
    d = _corpus_dir(tmp_path)
    bad = d / "later.pgm"
    bad.write_bytes(write_pnm(RasterImage(np.full((16, 16), value, dtype=np.uint8))))
    out = tmp_path / "curve.csv"
    assert main(["sweep", "--corpus", str(d), "--knob", knob, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and "all-zero reference" in err
    assert not out.exists()


def test_decode_pixel_budget(tmp_path, pgm, capsys):
    ok = tmp_path / "ok.ajpg"
    back = tmp_path / "back.pgm"
    assert main(["encode", "--input", str(pgm), "--output", str(ok)]) == 0
    assert main(["decode", "--input", str(ok), "--output", str(back), "--max-pixels", "256"]) == 0
    back.unlink()
    assert main(["decode", "--input", str(ok), "--output", str(back), "--max-pixels", "255"]) == 2
    assert "pixel budget" in capsys.readouterr().err
    assert not back.exists()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["compress"],
        ["encode", "--input", "x.pgm"],              # missing --output
        ["encode", "--input", "x", "--output", "y", "--quality", "400"],
        ["encode", "--input", "x", "--output", "y", "--truncate", "9"],
        ["encode", "--input", "x", "--output", "y", "--skip", "9"],
        ["decode", "--input", "x", "--output", "y", "--decode-quant", "odd"],
        ["decode", "--input", "x", "--output", "y", "--max-pixels", "0"],
        ["decode", "--input", "x", "--output", "y", "--max-pixels", "abc"],
        ["sweep", "--corpus", "c", "--knob", "zoom", "--out", "o"],
        ["sweep", "--corpus", "c", "--knob", "loop", "--out", "o", "--quant", "odd"],
        ["report", "--corpus", "c", "--config", "x", "--out", "o", "--quality", "0"],
        # flag combinations that EncodeConfig rejects, found before the
        # missing --input is read
        ["encode", "--input", "x", "--output", "y", "--dc-exact", "--quant", "div"],
        ["encode", "--input", "x", "--output", "y", "--dc-exact", "--qmatrix", "QMATRIX"],
    ],
)
def test_usage_errors_exit_1(tmp_path, argv):
    qmatrix = tmp_path / "q.txt"  # a valid table, read as part of the config
    qmatrix.write_text(" ".join(["16"] * 64))
    argv = [str(qmatrix) if a == "QMATRIX" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_data_errors_exit_2(tmp_path, pgm, capsys):
    missing = str(tmp_path / "nope.pgm")
    out = str(tmp_path / "o")
    assert main(["encode", "--input", missing, "--output", out]) == 2
    assert "ajpeg:" in capsys.readouterr().err

    bad = tmp_path / "bad.ajpg"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert main(["decode", "--input", str(bad), "--output", out]) == 2

    truncated = tmp_path / "trunc.ajpg"
    ok = tmp_path / "ok.ajpg"
    main(["encode", "--input", str(pgm), "--output", str(ok)])
    truncated.write_bytes(ok.read_bytes()[:-3])
    assert main(["decode", "--input", str(truncated), "--output", out]) == 2

    small = tmp_path / "small.pgm"
    small.write_bytes(write_pnm(_image(h=8, w=8)))
    assert main(["metrics", "--ref", str(pgm), "--test", str(small),
                 "--out", out]) == 2

    qbad = tmp_path / "q.txt"
    for entries in ("16 16 16", " ".join(["0"] + ["16"] * 63),
                    " ".join(["99999999999999999999"] + ["16"] * 63)):
        qbad.write_text(entries)
        assert main(["encode", "--input", str(pgm), "--output", out,
                     "--qmatrix", str(qbad)]) == 2

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["sweep", "--corpus", str(empty), "--knob", "loop",
                 "--out", out]) == 2

    capsys.readouterr()
    assert main(["sweep", "--corpus", str(pgm), "--knob", "loop",
                 "--out", out]) == 2
    assert "is not a directory" in capsys.readouterr().err

    unwritable = str(tmp_path / "missing" / "x")
    assert main(["encode", "--input", str(pgm), "--output", unwritable]) == 2
    assert "cannot write" in capsys.readouterr().err

    loop_csv = tmp_path / "loop.csv"
    loop_csv.write_text("garbage\n")
    assert main(["tune", "--loop-curve", str(loop_csv), "--trunc-curve",
                 str(loop_csv), "--bound", "0.1", "--out", out]) == 2
