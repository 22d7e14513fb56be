"""Command-line interface.

Subcommands:

* ``encode IN OUT``     compress a .ply (or every .ply in a directory),
* ``decode IN OUT``     reconstruct .ply from .ggsc (file or directory),
* ``info STREAM``       print header fields and exact byte accounting,
* ``sweep IN OUT.csv``  rate-distortion sweep over a parameter grid,
* ``correlate CSV``     logistic fit + PLCC/SRCC/RMSE for (objective,
  MOS) pairs.

Exit codes: 0 on success, 1 on runtime failure (bad file, corrupt
stream, codec error), 2 on usage errors (argparse default).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import fields as dc_fields
from dataclasses import replace

from . import __version__, eval as eval_mod
from .codec import (
    CodecParams,
    CodedStream,
    GEOM_EXTERNAL,
    GROUP_NAMES,
    VERSION,
    bitrate_breakdown,
    canonical_order,
    decode,
    encode,
)
from .gs_core import load_ply, save_ply


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("codec parameters")
    group.add_argument("--q-geo", type=int, default=None, metavar="BITS")
    group.add_argument("--q-sh", type=int, default=None, metavar="BITS",
                       help="sets q for all three SH channels")
    group.add_argument("--alpha-sh", type=float, default=None, metavar="A",
                       help="sets alpha for all three SH channels")
    for name in GROUP_NAMES:
        flag = name.replace("_", "-")
        group.add_argument(f"--q-{flag}", type=int, default=None, metavar="BITS")
        group.add_argument(f"--alpha-{flag}", type=float, default=None, metavar="A")
    group.add_argument("--max-leaf", type=int, default=None, metavar="N")


def _params_from_args(args: argparse.Namespace) -> CodecParams:
    overrides: dict = {}
    if args.q_sh is not None:
        overrides.update({f"q_sh_{c}": args.q_sh for c in "yuv"})
    if args.alpha_sh is not None:
        overrides.update({f"alpha_sh_{c}": args.alpha_sh for c in "yuv"})
    for field in dc_fields(CodecParams):
        value = getattr(args, field.name, None)
        if value is not None:
            overrides[field.name] = value
    params = replace(CodecParams(), **overrides)
    params.validate()
    return params


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, blob: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(blob)


def _encode_one(
    src: str, dst: str, params: CodecParams, args: argparse.Namespace
) -> None:
    raw = _read(src)
    cloud = load_ply(raw)
    stream = encode(cloud, params, geometry_command=args.geometry_command)
    blob = stream.to_bytes()
    _write(dst, blob)
    report = bitrate_breakdown(stream)
    assert report.total_bytes == len(blob)
    per_attr = " ".join(
        f"{name}={report.attribute_bytes[name]}" for name in GROUP_NAMES
    )
    print(f"encoded {src} -> {dst}")
    print(f"  primitives: {len(cloud)}")
    print(f"  geometry B1: {report.b1} bytes")
    print(f"  attributes B2: {report.b2} bytes ({per_attr})")
    print(f"  header: {report.header_bytes} bytes")
    ratio = 100.0 * report.total_bytes / len(raw)
    bpp = 8.0 * report.total_bytes / len(cloud)
    print(
        f"  total: {report.total_bytes} bytes "
        f"({ratio:.2f}% of input, {bpp:.2f} bits/primitive)"
    )


def _decode_one(src: str, dst: str, args: argparse.Namespace) -> None:
    stream = CodedStream.from_bytes(_read(src))
    cloud = decode(stream, geometry_command=args.geometry_command)
    _write(dst, save_ply(cloud))
    print(f"decoded {src} -> {dst} ({len(cloud)} primitives)")


def _each_file(args: argparse.Namespace, src_ext: str, dst_ext: str,
               verb: str, one) -> int:
    """Run `one(src, dst)` on args.input -> args.output, or on every
    `src_ext` file of an input directory into an output directory."""
    if os.path.isdir(args.input):
        names = sorted(n for n in os.listdir(args.input) if n.endswith(src_ext))
        if not names:
            raise FileNotFoundError(f"no {src_ext} files in {args.input}")
        os.makedirs(args.output, exist_ok=True)
        for name in names:
            dst = os.path.join(args.output, os.path.splitext(name)[0] + dst_ext)
            one(os.path.join(args.input, name), dst)
        print(f"{verb} {len(names)} assets")
    else:
        one(args.input, args.output)
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    return _each_file(args, ".ply", ".ggsc", "encoded",
                      lambda src, dst: _encode_one(src, dst, params, args))


def _cmd_decode(args: argparse.Namespace) -> int:
    return _each_file(args, ".ggsc", ".ply", "decoded",
                      lambda src, dst: _decode_one(src, dst, args))


def _cmd_info(args: argparse.Namespace) -> int:
    blob = _read(args.stream)
    stream = CodedStream.from_bytes(blob)
    report = bitrate_breakdown(stream)
    backend = "external" if stream.geom_backend == GEOM_EXTERNAL else "internal"
    print(f"file_bytes: {len(blob)}")
    print(f"version: {VERSION}")  # the version from_bytes accepted
    print(f"gs_count: {stream.gs_count}")
    print(f"geom_backend: {backend}")
    print(f"header_bytes: {report.header_bytes}")
    print(f"b1_bytes: {report.b1}")
    for name in GROUP_NAMES:
        print(f"b2_{name}_bytes: {report.attribute_bytes[name]}")
    print(f"b2_bytes: {report.b2}")
    print(f"total_bytes: {report.total_bytes}")
    for field in dc_fields(CodecParams):
        print(f"{field.name}: {getattr(stream.params, field.name)}")
    return 0


def _parse_axis(spec: str) -> tuple[str, list]:
    if "=" not in spec:
        raise ValueError(f"--axis needs NAME=V1,V2,...; got {spec!r}")
    name, _, values = spec.partition("=")
    name = name.strip()
    if name not in {field.name for field in dc_fields(CodecParams)}:
        raise ValueError(f"unknown parameter {name!r} in --axis")
    cast = type(getattr(CodecParams(), name))
    parsed = [cast(v.strip()) for v in values.split(",") if v.strip()]
    if not parsed:
        raise ValueError(f"--axis {name} lists no values")
    return name, parsed


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _params_from_args(args)
    axes = [_parse_axis(spec) for spec in args.axis or []]
    if not axes:
        grid = [base]
    else:
        names = [name for name, _ in axes]
        grid = [
            replace(base, **dict(zip(names, combo)))
            for combo in itertools.product(*(vals for _, vals in axes))
        ]
    cloud = load_ply(_read(args.input))
    points = eval_mod.rd_sweep(cloud, grid)
    with open(args.output, "w", newline="") as fh:
        eval_mod.write_sweep_csv(points, fh)
    failed = sum(1 for pt in points if pt.status != "ok")
    print(f"swept {len(points)} parameter points -> {args.output}")
    if failed:
        print(f"  {failed} points failed (see status column)")
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    with open(args.pairs, "r", newline="") as fh:
        objective, mos = eval_mod.read_pairs_csv(fh.read())
    report = eval_mod.fit_logistic5(objective, mos)
    print(f"pairs: {len(objective)}")
    print(f"plcc: {report.plcc:.6f}")
    print(f"srcc: {report.srcc:.6f}")
    print(f"rmse: {report.rmse:.6f}")
    b = report.logistic_params
    print(
        "logistic: "
        + " ".join(f"b{i + 1}={v:.6g}" for i, v in enumerate(b))
    )
    return 0


def _cmd_psnr(args: argparse.Namespace) -> int:
    ref = load_ply(_read(args.reference))
    stream = CodedStream.from_bytes(_read(args.stream))
    dist = decode(stream)
    aligned = canonical_order(ref, stream.params)
    for axis, stats in eval_mod.attribute_psnr(aligned, dist).items():
        print(f"psnr_{axis}: {stats.psnr_db:.4f}")
    d1 = eval_mod.geometry_psnr_d1(aligned, dist)
    print(f"psnr_d1: {d1.psnr_db:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggsc",
        description="Graph-transform compression for Gaussian Splatting assets.",
    )
    parser.add_argument("--version", action="version", version=f"ggsc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encode", help="compress .ply to .ggsc")
    p_enc.add_argument("input", help=".ply file or directory of .ply files")
    p_enc.add_argument("output", help=".ggsc file or output directory")
    p_enc.add_argument("--geometry-command", metavar="TEMPLATE",
                       help="code geometry with this external command; "
                       "{in} and {out} stand for its file paths")
    _add_param_flags(p_enc)
    p_enc.set_defaults(func=_cmd_encode)

    p_dec = sub.add_parser("decode", help="reconstruct .ply from .ggsc")
    p_dec.add_argument("input", help=".ggsc file or directory")
    p_dec.add_argument("output", help=".ply file or output directory")
    p_dec.add_argument("--geometry-command", metavar="TEMPLATE",
                       help="external geometry decoder for streams coded "
                       "with encode --geometry-command")
    p_dec.set_defaults(func=_cmd_decode)

    p_info = sub.add_parser("info", help="show stream header and sizes")
    p_info.add_argument("stream", help=".ggsc file")
    p_info.set_defaults(func=_cmd_info)

    p_sweep = sub.add_parser("sweep", help="rate-distortion sweep to CSV")
    p_sweep.add_argument("input", help=".ply file")
    p_sweep.add_argument("output", help="output CSV path")
    p_sweep.add_argument(
        "--axis",
        action="append",
        metavar="NAME=V1,V2,...",
        help="parameter axis; repeat for a cartesian grid "
        "(later axes vary fastest)",
    )
    _add_param_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_corr = sub.add_parser(
        "correlate", help="logistic fit and correlation for (objective, MOS) CSV"
    )
    p_corr.add_argument("pairs", help="CSV with header and two columns")
    p_corr.set_defaults(func=_cmd_correlate)

    p_psnr = sub.add_parser(
        "psnr", help="fidelity of a coded stream against its source .ply"
    )
    p_psnr.add_argument("reference", help="original .ply")
    p_psnr.add_argument("stream", help=".ggsc file")
    p_psnr.set_defaults(func=_cmd_psnr)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single CLI error funnel
        print(f"ggsc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
