"""End-to-end tests for the ``ggsc`` command line.

Everything goes through :func:`ggsc.cli.main` with an argv list, so the
exit-code contract (0 ok, 1 runtime failure, 2 usage error) is exercised
exactly as a shell would see it.
"""

import csv
import re

import numpy as np
import pytest

from conftest import cloud_columns, make_cloud, write_ply
from ggsc.cli import _parse_axis, main
from ggsc.codec import VERSION, CodecParams, CodedStream, decode, encode
from ggsc.eval import PSNR_AXES, SWEEP_COLUMNS
from ggsc.gs_core import load_ply, save_ply


@pytest.fixture(scope="module")
def asset(tmp_path_factory):
    """A .ply on disk plus its CLI-encoded .ggsc (max_leaf=60)."""
    root = tmp_path_factory.mktemp("cli_asset")
    cloud = make_cloud(150, seed=3)
    src = root / "scene.ply"
    src.write_bytes(write_ply(cloud_columns(cloud)))
    dst = root / "scene.ggsc"
    assert main(["encode", str(src), str(dst), "--max-leaf", "60"]) == 0
    return cloud, src, dst


def _kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if ":" in line:
            key, _, val = line.partition(":")
            pairs[key.strip()] = val.strip()
    return pairs


class TestUsage:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as ex:
            main(["--version"])
        assert ex.value.code == 0
        assert "ggsc" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as ex:
            main([])
        assert ex.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as ex:
            main(["frobnicate", "x"])
        assert ex.value.code == 2

    def test_non_integer_q_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as ex:
            main(["encode", "in.ply", "out.ggsc", "--q-geo", "abc"])
        assert ex.value.code == 2


class TestEncodeDecode:
    def test_encode_matches_library(self, asset):
        cloud, _, dst = asset
        stream = encode(cloud, CodecParams(max_leaf=60))
        assert dst.read_bytes() == stream.to_bytes()

    def test_encode_report(self, asset, capsys, tmp_path):
        cloud, src, _ = asset
        out = tmp_path / "again.ggsc"
        assert main(["encode", str(src), str(out), "--max-leaf", "60"]) == 0
        text = capsys.readouterr().out
        assert "primitives: 150" in text
        total = int(re.search(r"total: (\d+) bytes", text).group(1))
        assert total == out.stat().st_size

    def test_decode_round_trip(self, asset, tmp_path, capsys):
        cloud, _, dst = asset
        out = tmp_path / "back.ply"
        assert main(["decode", str(dst), str(out)]) == 0
        assert "150 primitives" in capsys.readouterr().out
        expect = decode(CodedStream.from_bytes(dst.read_bytes()))
        assert out.read_bytes() == save_ply(expect)

    def test_geometry_command_round_trip(self, asset, tmp_path, capsys):
        """--geometry-command hands the section to an external coder on
        both sides; decoding without it is a runtime error."""
        cloud, src, _ = asset
        copy = tmp_path / "copy.py"
        copy.write_text("import sys, shutil\nshutil.copy(sys.argv[1], sys.argv[2])\n")
        cmd = f"python3 {copy} {{in}} {{out}}"
        coded, back = tmp_path / "ext.ggsc", tmp_path / "ext.ply"
        assert main(["encode", str(src), str(coded), "--max-leaf", "60",
                     "--geometry-command", cmd]) == 0
        stream = encode(cloud, CodecParams(max_leaf=60), geometry_command=cmd)
        assert coded.read_bytes() == stream.to_bytes()
        assert main(["decode", str(coded), str(back)]) == 1
        assert "--geometry-command" in capsys.readouterr().err
        assert main(["decode", str(coded), str(back),
                     "--geometry-command", cmd]) == 0
        assert back.read_bytes() == save_ply(decode(stream, geometry_command=cmd))

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        rc = main(["encode", str(tmp_path / "nope.ply"), str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ggsc: error:")

    def test_decode_garbage_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ggsc"
        bad.write_bytes(b"\x00" * 64)
        rc = main(["decode", str(bad), str(tmp_path / "o.ply")])
        assert rc == 1
        assert "ggsc: error:" in capsys.readouterr().err

    def test_invalid_param_value_is_runtime_error(self, asset, capsys, tmp_path):
        _, src, _ = asset
        rc = main(["encode", str(src), str(tmp_path / "o.ggsc"),
                   "--q-geo", "0"])
        assert rc == 1
        assert "ggsc: error:" in capsys.readouterr().err


class TestBatch:
    def test_directory_encode_then_decode(self, tmp_path, capsys):
        src_dir = tmp_path / "in"
        src_dir.mkdir()
        counts = {"a": 80, "b": 90}
        for name, n in counts.items():
            cols = cloud_columns(make_cloud(n, seed=n))
            (src_dir / f"{name}.ply").write_bytes(write_ply(cols))
        (src_dir / "notes.txt").write_text("not a ply")

        enc_dir = tmp_path / "enc"
        rc = main(["encode", str(src_dir), str(enc_dir), "--max-leaf", "50"])
        assert rc == 0
        assert "encoded 2 assets" in capsys.readouterr().out
        assert sorted(p.name for p in enc_dir.iterdir()) == ["a.ggsc", "b.ggsc"]

        dec_dir = tmp_path / "dec"
        rc = main(["decode", str(enc_dir), str(dec_dir)])
        assert rc == 0
        assert "decoded 2 assets" in capsys.readouterr().out
        for name, n in counts.items():
            cloud = load_ply((dec_dir / f"{name}.ply").read_bytes())
            assert len(cloud) == n

    def test_empty_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "void"
        empty.mkdir()
        assert main(["encode", str(empty), str(tmp_path / "out")]) == 1
        assert "no .ply files" in capsys.readouterr().err


class TestParamFlags:
    def test_q_sh_broadcasts(self, asset, tmp_path, capsys):
        _, src, _ = asset
        out = tmp_path / "b.ggsc"
        rc = main(["encode", str(src), str(out), "--max-leaf", "60",
                   "--q-sh", "7", "--alpha-sh", "0.5"])
        assert rc == 0
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        info = _kv(capsys.readouterr().out)
        assert info["q_sh_y"] == info["q_sh_u"] == info["q_sh_v"] == "7"
        assert float(info["alpha_sh_y"]) == 0.5
        assert float(info["alpha_sh_v"]) == 0.5

    def test_channel_flag_overrides_broadcast(self, asset, tmp_path, capsys):
        _, src, _ = asset
        out = tmp_path / "c.ggsc"
        rc = main(["encode", str(src), str(out), "--max-leaf", "60",
                   "--q-sh", "7", "--q-sh-u", "9"])
        assert rc == 0
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        info = _kv(capsys.readouterr().out)
        assert info["q_sh_u"] == "9"
        assert info["q_sh_y"] == info["q_sh_v"] == "7"


class TestInfo:
    def test_fields_and_accounting(self, asset, capsys):
        _, _, dst = asset
        assert main(["info", str(dst)]) == 0
        info = _kv(capsys.readouterr().out)
        assert info["gs_count"] == "150"
        stored = int.from_bytes(dst.read_bytes()[4:6], "little")
        assert info["version"] == str(stored) == str(VERSION)
        assert info["geom_backend"] == "internal"
        assert info["max_leaf"] == "60"
        assert int(info["file_bytes"]) == dst.stat().st_size
        parts = (int(info["header_bytes"]) + int(info["b1_bytes"])
                 + int(info["b2_bytes"]))
        assert parts == int(info["total_bytes"]) == int(info["file_bytes"])

    def test_info_on_ply_fails(self, asset, capsys):
        _, src, _ = asset
        assert main(["info", str(src)]) == 1
        assert "ggsc: error:" in capsys.readouterr().err


class TestParseAxis:
    def test_int_axis(self):
        assert _parse_axis("q_geo=8,10") == ("q_geo", [8, 10])

    def test_float_axis_with_spaces(self):
        name, vals = _parse_axis("alpha_scale = 0.25, 0.5")
        assert name == "alpha_scale"
        assert vals == [0.25, 0.5]

    @pytest.mark.parametrize("spec", ["q_geo", "bogus=1", "q_geo=", "=1,2",
                                      "sigma_scope=global"])
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError):
            _parse_axis(spec)


class TestSweep:
    def test_grid_csv(self, tmp_path, capsys):
        cols = cloud_columns(make_cloud(120, seed=5))
        src = tmp_path / "s.ply"
        src.write_bytes(write_ply(cols))
        out = tmp_path / "rd.csv"
        rc = main(["sweep", str(src), str(out), "--max-leaf", "40",
                   "--axis", "q_rotation=4,8",
                   "--axis", "alpha_rotation=0.5,1.0"])
        assert rc == 0
        assert "swept 4 parameter points" in capsys.readouterr().out

        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert header == list(SWEEP_COLUMNS)
        assert len(data) == 4
        status = header.index("status")
        assert all(row[status] == "ok" for row in data)
        qr = header.index("q_rotation")
        ar = header.index("alpha_rotation")
        combos = {(row[qr], row[ar]) for row in data}
        assert combos == {("4", "0.5"), ("4", "1.0"),
                          ("8", "0.5"), ("8", "1.0")}

    def test_no_axis_gives_single_point(self, tmp_path, capsys):
        cols = cloud_columns(make_cloud(60, seed=6))
        src = tmp_path / "s.ply"
        src.write_bytes(write_ply(cols))
        out = tmp_path / "one.csv"
        assert main(["sweep", str(src), str(out), "--max-leaf", "30"]) == 0
        assert "swept 1 parameter points" in capsys.readouterr().out
        with open(out, newline="") as fh:
            assert len(list(csv.reader(fh))) == 2

    def test_unknown_axis_name(self, tmp_path, capsys):
        src = tmp_path / "s.ply"
        src.write_bytes(write_ply(cloud_columns(make_cloud(10))))
        rc = main(["sweep", str(src), str(tmp_path / "x.csv"),
                   "--axis", "warp_drive=1,2"])
        assert rc == 1
        assert "unknown parameter" in capsys.readouterr().err


class TestCorrelate:
    def test_monotone_pairs(self, tmp_path, capsys):
        x = np.linspace(0.0, 10.0, 30)
        mos = 1.0 + 4.0 / (1.0 + np.exp(-(x - 5.0)))
        lines = ["objective,mos"]
        lines += [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, mos)]
        path = tmp_path / "pairs.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["correlate", str(path)]) == 0
        info = _kv(capsys.readouterr().out)
        assert info["pairs"] == "30"
        assert float(info["plcc"]) > 0.999
        assert float(info["srcc"]) > 0.999
        assert float(info["rmse"]) < 0.05

    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("objective,mos\n1.0\n")
        assert main(["correlate", str(path)]) == 1
        assert "ggsc: error:" in capsys.readouterr().err


class TestPsnr:
    def test_reports_every_axis(self, asset, capsys):
        _, src, dst = asset
        assert main(["psnr", str(src), str(dst)]) == 0
        info = _kv(capsys.readouterr().out)
        for axis in PSNR_AXES:
            assert np.isfinite(float(info[f"psnr_{axis}"]))
        assert np.isfinite(float(info["psnr_d1"]))

    def test_missing_stream(self, asset, tmp_path, capsys):
        _, src, _ = asset
        rc = main(["psnr", str(src), str(tmp_path / "nope.ggsc")])
        assert rc == 1
        assert "ggsc: error:" in capsys.readouterr().err
