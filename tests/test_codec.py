"""Container format and end-to-end encode/decode behavior."""

import functools
import gc
import json
import math
import os
import signal
import struct
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ggsc import codec as C
from ggsc.codec import (
    ATTRIBUTE_GROUPS,
    GROUP_NAMES,
    MAX_LEAF,
    CodecError,
    CodecParams,
    VERSION,
    CodedStream,
    bitrate_breakdown,
    canonical_order,
    decode,
    encode,
)
from ggsc.entropy import CorruptPayloadError, SymbolStream, aac_encode
from ggsc.quantizer import QuantGrid, dequantize, quantize
from ggsc import geom_codec, partition, pool, spectral

from conftest import (
    assert_same_spectra,
    bounded_failure,
    child_env,
    make_cloud,
    make_realistic_cloud,
    solved_spectra,
)
from ggsc.gs_core import save_ply
import test_fuzz
from test_golden import CASES as GOLDEN_CASES


SMALL = CodecParams(max_leaf=50)


class TestCodecParams:
    def test_defaults_are_valid(self):
        CodecParams().validate()

    def test_default_values(self):
        p = CodecParams()
        assert p.q_geo == 14
        assert all(p.q_for(n) == 10 for n in GROUP_NAMES)
        assert all(p.alpha_for(n) == 1.0 for n in GROUP_NAMES)
        assert p.max_leaf == 200

    @pytest.mark.parametrize("kwargs", [
        dict(q_geo=0), dict(q_geo=32),
        dict(q_sh_y=0), dict(q_sh_y=17),
        dict(q_rotation=17),
        dict(alpha_opacity=0.0), dict(alpha_scale=1.2),
        dict(max_leaf=0),
        dict(max_leaf=MAX_LEAF + 1), dict(max_leaf=2**32 - 1),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CodecParams(**kwargs).validate()

    def test_non_integer_bit_depth_rejected(self):
        with pytest.raises(ValueError):
            CodecParams(q_geo=8.0).validate()


class TestContainer:
    def _stream(self, **kw):
        cloud = make_cloud(120, seed=0)
        return encode(cloud, CodecParams(max_leaf=40, **kw))

    def test_bytes_round_trip(self):
        stream = self._stream(q_sh_u=7, alpha_scale=0.4)
        blob = stream.to_bytes()
        back = CodedStream.from_bytes(blob)
        assert back.params == stream.params
        assert back.gs_count == stream.gs_count
        assert back.geom_backend == stream.geom_backend
        assert back.geometry_payload == stream.geometry_payload
        for name in GROUP_NAMES:
            assert back.attribute_payloads[name] == stream.attribute_payloads[name]
            got, want = back.attr_grids[name], stream.attr_grids[name]
            np.testing.assert_array_equal(got.mins, want.mins)
            assert (got.scale, got.q) == (want.scale, want.q)
        assert back.to_bytes() == blob

    def test_magic_enforced(self):
        blob = bytearray(self._stream().to_bytes())
        blob[:4] = b"QQSC"
        with pytest.raises(CodecError, match="magic"):
            CodedStream.from_bytes(bytes(blob))

    def test_version_enforced(self):
        """Streams of another format, every earlier one included, are refused."""
        blob = bytearray(self._stream().to_bytes())
        for version in (*range(1, VERSION), 999):
            blob[4:6] = version.to_bytes(2, "little")
            with pytest.raises(CodecError, match="version"):
                CodedStream.from_bytes(bytes(blob))

    def test_version_8_stream_is_refused(self):
        """`VERSION` 8 payloads hold the same levels, as many and as long,
        in another order (each leaf's component-major): decoded as this
        format they would give wrong values without a framing error, so
        the header refuses them."""
        blob = bytearray(self._stream().to_bytes())
        blob[4:6] = (8).to_bytes(2, "little")
        with pytest.raises(CodecError, match="unsupported stream version 8"):
            CodedStream.from_bytes(bytes(blob))

    def test_version_9_stream_is_refused(self):
        """`VERSION` 9 geometry sections repeat the point count and q, and
        carry a remainder bit count, in fields this format does not have:
        the header refuses them rather than misreading those fields."""
        blob = bytearray(self._stream().to_bytes())
        blob[4:6] = (9).to_bytes(2, "little")
        with pytest.raises(CodecError, match="unsupported stream version 9"):
            CodedStream.from_bytes(bytes(blob))

    def test_truncations_raise(self):
        blob = self._stream().to_bytes()
        for keep in (0, 3, 5, 10, 40, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CodecError):
                CodedStream.from_bytes(blob[:keep])

    def test_trailing_bytes_raise(self):
        blob = self._stream().to_bytes()
        with pytest.raises(CodecError, match="trailing"):
            CodedStream.from_bytes(blob + b"\x00")

    def test_bad_flags_raise(self):
        blob = bytearray(self._stream().to_bytes())
        blob[6] = 7  # geometry backend tag
        with pytest.raises(CodecError, match="backend"):
            CodedStream.from_bytes(bytes(blob))

    @pytest.mark.parametrize("max_leaf", [MAX_LEAF + 1, 2**32 - 1])
    def test_oversized_leaf_bound_rejected(self, max_leaf):
        """A header may not ask for leaves past `MAX_LEAF`: one leaf over
        every point would need an (N, N, 3) affinity temporary."""
        stream = self._stream()
        stream.params = replace(stream.params, max_leaf=max_leaf)
        with pytest.raises(CodecError, match="max_leaf"):
            CodedStream.from_bytes(stream.to_bytes())

    def test_zero_primitive_count_rejected(self):
        blob = bytearray(self._stream().to_bytes())
        blob[7:11] = (0).to_bytes(4, "little")  # gs_count field
        with pytest.raises(CodecError, match="zero"):
            CodedStream.from_bytes(bytes(blob))

    def test_grids_round_trip_bit_for_bit(self):
        stream = self._stream(q_sh_u=7, alpha_scale=0.4)
        back = CodedStream.from_bytes(stream.to_bytes())
        pairs = [(back.geom_grid, stream.geom_grid)] + [
            (back.attr_grids[n], stream.attr_grids[n]) for n in GROUP_NAMES]
        for got, want in pairs:
            assert got.mins.tobytes() == want.mins.tobytes()
            assert struct.pack("<d", got.scale) == struct.pack("<d", want.scale)
            assert got.q == want.q

    def test_header_is_248_bytes_below_version_6(self):
        """`VERSION` 6 stored the six attribute grids' 56 minima and 6
        scales as float64; they are float32 now, 4 bytes less each."""
        stream = self._stream()
        version_6 = (4 + 2 + 1 + 4 + 4 + 1  # magic .. q_geo
                     + 6 + 6 * 8  # attribute bit depths and alphas
                     + 4 * 8  # geometry grid
                     + (56 + 6) * 8  # attribute grids
                     + 4 * 7)  # section table
        assert version_6 == 626
        assert C.HEADER_BYTES == version_6 - 248 == 378
        assert len(stream.to_bytes()) == C.HEADER_BYTES + sum(
            map(len, [stream.geometry_payload, *stream.attribute_payloads.values()]))

    @pytest.mark.parametrize("field, value", [("mins", 0.1), ("scale", 0.1),
                                              ("scale", 1e308)])
    def test_to_bytes_refuses_to_round_a_grid(self, field, value):
        """An attribute grid travels as float32; a value it cannot hold
        exactly is an error, not a silently different stream."""
        stream = self._stream()
        grid = stream.attr_grids["sh_u"]
        stream.attr_grids["sh_u"] = replace(grid, **{
            field: np.full(grid.components, value) if field == "mins" else value})
        with pytest.raises(ValueError, match="float32"):
            stream.to_bytes()

    def test_header_size_follows_the_layout(self):
        """The header is one fixed layout, section table included: every
        golden stream is `HEADER_BYTES` plus its payloads, and
        `bitrate_breakdown` still answers for a grid float32 cannot hold
        (the 1e308 `sh_y` scale of `test_grid_overflow_is_a_codec_error`),
        which `to_bytes` refuses."""
        assert C._HEADER.format == "<4sHBIIB6B6d4d17f17f17f2f4f5f7I"
        for case in GOLDEN_CASES:
            blob = case.path.read_bytes()
            stream = CodedStream.from_bytes(blob)
            assert len(blob) == C.HEADER_BYTES + len(stream.geometry_payload) + sum(
                len(stream.attribute_payloads[n]) for n in GROUP_NAMES)
        stream.attr_grids["sh_y"] = replace(stream.attr_grids["sh_y"], scale=1e308)
        with pytest.raises(ValueError, match="float32"):
            stream.to_bytes()
        assert bitrate_breakdown(stream).header_bytes == C.HEADER_BYTES == 378

    def test_header_size_accounts_for_everything(self):
        stream = self._stream()
        report = bitrate_breakdown(stream)
        assert report.total_bytes == len(stream.to_bytes())
        assert report.header_bytes == C.HEADER_BYTES
        assert report.b1 == len(stream.geometry_payload)
        assert report.b2 == sum(
            len(stream.attribute_payloads[n]) for n in GROUP_NAMES
        )
        assert report.total_bytes == report.header_bytes + report.b1 + report.b2

    @pytest.mark.parametrize("entry", [0, len(GROUP_NAMES)], ids=["geometry", "rotation"])
    @pytest.mark.parametrize("delta, message", [(1, "truncated"), (-1, "1 trailing")])
    def test_section_table_entry_off_by_one(self, entry, delta, message):
        """The payloads are cut at the section table's running sums: one
        entry a byte too long overruns the data, a byte too short leaves
        one unread."""
        blob = bytearray(self._stream().to_bytes())
        at = C.HEADER_BYTES - 4 * (1 + len(GROUP_NAMES) - entry)
        (size,) = struct.unpack_from("<I", blob, at)
        struct.pack_into("<I", blob, at, size + delta)
        with pytest.raises(CodecError, match=message):
            CodedStream.from_bytes(bytes(blob))


def _geom_bound(stream):
    grid = stream.geom_grid
    return 0.5 * grid.scale / grid.levels + 1e-12


def _attr_bound(stream, max_leaf_size):
    """Valid reconstruction bound per group: quantization error of up to
    m kept coefficients passes through an orthonormal inverse transform,
    so per-entry error is at most sqrt(m) times the half step."""
    out = {}
    for name in GROUP_NAMES:
        grid = stream.attr_grids[name]
        half = 0.5 * grid.scale / grid.levels
        out[name] = math.sqrt(max_leaf_size) * half + 1e-9
    return out


class TestRoundTrip:
    def test_attributes_within_transform_bound(self):
        cloud = make_cloud(300, seed=1)
        params = CodecParams(max_leaf=40, q_sh_y=16, q_sh_u=16, q_sh_v=16,
                             q_opacity=16, q_scale=16, q_rotation=16)
        stream = encode(cloud, params)
        out = decode(stream)
        ref = canonical_order(cloud, params)

        worst = np.abs(out.centers - ref.centers).max(axis=0)
        np.testing.assert_array_less(worst, _geom_bound(stream) * 1.0001)
        bounds = _attr_bound(stream, 40)
        err_sh = np.abs(out.sh - ref.sh).max()
        # SH bound must absorb the YUV->RGB rotation: worst row absolute
        # sum of the inverse matrix is 1 + 1.7722 + 0.001 < 2.8
        assert err_sh <= 2.8 * max(bounds["sh_y"], bounds["sh_u"], bounds["sh_v"])
        assert np.abs(out.opacity - ref.opacity).max() <= bounds["opacity"]
        assert np.abs(out.scale - ref.scale).max() <= bounds["scale"]
        assert np.abs(out.rotation - ref.rotation).max() <= bounds["rotation"]

    def test_geometry_is_bit_exact_at_lattice_precision(self):
        cloud = make_cloud(250, seed=2)
        params = CodecParams(max_leaf=60)
        stream = encode(cloud, params)
        out = decode(stream)
        ref = canonical_order(cloud, params)
        want = dequantize(quantize(ref.centers, stream.geom_grid), stream.geom_grid)
        np.testing.assert_array_equal(out.centers, want)

    def test_single_primitive(self):
        cloud = make_cloud(1, seed=3)
        stream = encode(cloud, CodecParams())
        out = decode(stream)
        assert len(out) == 1
        bounds = _attr_bound(stream, 1)
        assert np.abs(out.opacity - cloud.opacity).max() <= bounds["opacity"]
        assert np.abs(out.scale - cloud.scale).max() <= bounds["scale"]

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_tiny_clouds(self, n):
        cloud = make_cloud(n, seed=4)
        out = decode(encode(cloud, SMALL))
        assert len(out) == n

    def test_coincident_centers(self):
        """All centers equal: geometry degenerates to a zero-scale grid and
        the leaf graph is complete with unit weights."""
        base = make_cloud(30, seed=5)
        from ggsc.gs_core import GaussianCloud
        cloud = GaussianCloud(
            np.tile([1.0, 2.0, 3.0], (30, 1)), base.sh, base.opacity,
            base.scale, base.rotation,
        )
        stream = encode(cloud, SMALL)
        out = decode(stream)
        np.testing.assert_array_equal(out.centers, cloud.centers)
        bounds = _attr_bound(stream, 30)
        assert np.abs(out.opacity - cloud.opacity).max() <= bounds["opacity"]

    def test_float32_alpha_round_trips(self):
        """A float32 alpha clips as the double the header carries, so the
        parsed stream decodes to the encoder's local decode (at alpha
        0.1 and leaves of 10 the encoder kept one scale coefficient per
        leaf in float32, and its decoder expected two)."""
        params = CodecParams(max_leaf=10, alpha_scale=np.float32(0.1))
        stream, enc = encode(make_cloud(20, seed=3), params, collect_debug=True)
        _, dec = decode(CodedStream.from_bytes(stream.to_bytes()), collect_debug=True)
        for name in GROUP_NAMES:
            np.testing.assert_array_equal(dec.signals[name], enc.signals[name])

    def test_decode_is_deterministic(self):
        cloud = make_cloud(200, seed=6)
        stream = encode(cloud, SMALL)
        blob = stream.to_bytes()
        a = decode(CodedStream.from_bytes(blob))
        b = decode(CodedStream.from_bytes(blob))
        assert a == b

    def test_encode_is_deterministic(self):
        cloud = make_cloud(200, seed=7)
        assert encode(cloud, SMALL).to_bytes() == encode(cloud, SMALL).to_bytes()

    def test_threading_changes_nothing(self):
        cloud = make_cloud(400, seed=8)
        serial = encode(cloud, SMALL, threads=1)
        threaded = encode(cloud, SMALL, threads=4)
        assert serial.to_bytes() == threaded.to_bytes()
        assert decode(serial, threads=4) == decode(serial, threads=1)

    def test_invalid_thread_count(self):
        cloud = make_cloud(5, seed=11)
        with pytest.raises(ValueError):
            encode(cloud, SMALL, threads=0)
        stream = encode(cloud, SMALL)
        with pytest.raises(ValueError):
            decode(stream, threads=0)


class TestMirrorDeterminism:
    def test_decoder_reproduces_encoder_internals(self, monkeypatch):
        """The spectra a plain encode and decode solve in one process agree
        call by call, and so do both sides' `Internals`."""
        cloud = make_cloud(300, seed=12)
        params = CodecParams(max_leaf=45, alpha_sh_y=0.6, alpha_scale=0.3)
        stream, enc = solved_spectra(monkeypatch, encode, cloud, params)
        _, dec = solved_spectra(monkeypatch, decode, stream)
        assert_same_spectra(enc, dec)

        _, edbg = encode(cloud, params, collect_debug=True)
        _, ddbg = decode(stream, collect_debug=True)
        np.testing.assert_array_equal(edbg.recon_centers, ddbg.recon_centers)
        assert len(edbg.part.leaves) == len(ddbg.part.leaves)
        for a, b in zip(edbg.part.leaves, ddbg.part.leaves):
            np.testing.assert_array_equal(a, b)
        for name in GROUP_NAMES:
            assert np.array_equal(edbg.signals[name], ddbg.signals[name])

    def test_local_decode_matches_decoded_cloud(self):
        """The encoder's own reconstruction is exactly what decode emits."""
        cloud = make_cloud(220, seed=13)
        stream, edbg = encode(cloud, SMALL, collect_debug=True)
        out = decode(stream)
        np.testing.assert_array_equal(out.opacity, edbg.signals["opacity"][:, 0])
        np.testing.assert_array_equal(out.scale, edbg.signals["scale"])
        np.testing.assert_array_equal(out.rotation, edbg.signals["rotation"])


class TestTransformMemory:
    def test_one_chunk_of_spectra_alive_at_a_time(self, monkeypatch):
        """A serial encode and decode with one leaf per chunk: whenever a
        chunk is solved, at most two spectra are alive, the one just solved
        and the one its predecessor's transforms may still hold, whatever
        the number of chunks.  The bytes are those of the default chunks."""
        cloud = make_cloud(300, seed=19)
        blob = encode(cloud, SMALL).to_bytes()
        monkeypatch.setattr(C, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(spectral, "BATCH_ENTRIES", 1)
        # spectra are unhashable (their fields are arrays): key each by its solve
        alive, most = weakref.WeakValueDictionary(), []
        solve = spectral.eig_sym

        def tracked(matrix):
            alive[len(most)] = spec = solve(matrix)
            most.append(len(alive))
            return spec

        monkeypatch.setattr(spectral, "eig_sym", tracked)
        stream = encode(cloud, SMALL)
        assert stream.to_bytes() == blob
        decode(stream)
        assert len(most) >= 8  # at least four chunks each way
        assert max(most) <= 2, most


class TestSymbolLayout:
    def test_payload_symbols_are_leaf_major_coefficient_major(self):
        """Rebuild one attribute payload's symbol stream by hand, one leaf
        spectrum at a time: leaf sizes in order of first appearance, each
        size's leaves in partition order, and per leaf its quantized kept
        coefficients in the (k, C) order `gft` returns them."""
        cloud = make_cloud(90, seed=14)
        params = CodecParams(max_leaf=16, alpha_scale=0.5)
        stream, edbg = encode(cloud, params, collect_debug=True)
        leaves = edbg.part.leaves
        sizes = [len(leaf) for leaf in leaves]
        order = sorted(range(len(sizes)), key=lambda j: sizes.index(sizes[j]))
        assert order != sorted(order)  # the sizes interleave

        centers = edbg.recon_centers
        sigma = spectral.kernel_sigma(centers)
        scale = canonical_order(cloud, params).scale
        expected = []
        grid = stream.attr_grids["scale"]
        for j in order:
            spec = spectral.graph_spectrum(centers[leaves[j]], sigma)
            k = spectral.clip_count(params.alpha_scale, sizes[j])
            expected.append(quantize(spectral.gft(spec, scale[leaves[j]])[:k], grid).ravel())
        expected = np.concatenate(expected)
        decoded = C.decode_levels(stream.attribute_payloads["scale"], grid,
                                  params.alpha_scale, Counter(sizes))
        np.testing.assert_array_equal(decoded, expected)


class TestRateBehavior:
    def test_clipping_shrinks_attribute_payload(self):
        cloud = make_cloud(600, seed=15, smooth=True)
        full = encode(cloud, CodecParams(max_leaf=100))
        clipped = encode(cloud, CodecParams(max_leaf=100, alpha_sh_y=0.5))
        b2_full = bitrate_breakdown(full).b2
        b2_clip = bitrate_breakdown(clipped).b2
        assert b2_clip < b2_full

    def test_coarser_quantization_shrinks_payload(self):
        cloud = make_cloud(400, seed=16)
        fine = encode(cloud, CodecParams(max_leaf=80, q_rotation=12))
        coarse = encode(cloud, CodecParams(max_leaf=80, q_rotation=4))
        assert len(coarse.attribute_payloads["rotation"]) < \
            len(fine.attribute_payloads["rotation"])

    def test_alpha_one_keeps_every_coefficient(self):
        cloud = make_cloud(64, seed=17)
        stream = encode(cloud, CodecParams(max_leaf=16))
        # one coefficient per primitive, C=1; any other count raises
        decoded = C.decode_levels(stream.attribute_payloads["opacity"],
                                  stream.attr_grids["opacity"], 1.0, {16: 4})
        assert len(decoded) == 64


class TestCorruptStreams:
    def _stream(self):
        return encode(make_cloud(150, seed=18), SMALL)

    def test_geometry_payload_tamper(self):
        """Corrupting the geometry section's point count contradicts the
        container's."""
        stream = self._stream()
        blob = bytearray(stream.geometry_payload)
        blob[0] ^= 0x01
        stream.geometry_payload = bytes(blob)
        with pytest.raises((CorruptPayloadError, CodecError)):
            decode(stream)

    @pytest.mark.parametrize("claimed, geometry", [(10**7, False), (10**6, True)])
    def test_primitive_count_bounded_by_stream_bytes(self, claimed, geometry):
        """A header claiming more than MAX_PRIMS_PER_BYTE primitives per
        stream byte is refused before any payload is decoded, also when
        the geometry section claims them too over a bucket body of 16 zero
        bytes, which the bucket decoder would run through symbol by
        symbol."""
        stream = encode(make_cloud(30, seed=0), CodecParams(max_leaf=40))
        if geometry:
            stream.geometry_payload = struct.pack("<II", claimed, 16) + bytes(16)
        blob = bytearray(stream.to_bytes())
        blob[7:11] = struct.pack("<I", claimed)  # gs_count field
        assert claimed > C.MAX_PRIMS_PER_BYTE * len(blob)
        with bounded_failure(seconds=0.5, bytes_=1 << 20, error=CodecError):
            decode(CodedStream.from_bytes(bytes(blob)))

    def test_encode_refuses_a_denser_stream(self, monkeypatch):
        """So every stream `encode` writes decodes."""
        monkeypatch.setattr(C, "MAX_PRIMS_PER_BYTE", 0)
        with pytest.raises(CodecError, match="per byte"):
            encode(make_cloud(30, seed=0), SMALL)

    def test_attribute_payload_truncated(self):
        stream = self._stream()
        payload = stream.attribute_payloads["sh_y"]
        stream.attribute_payloads["sh_y"] = payload[: len(payload) // 2]
        with pytest.raises(CorruptPayloadError):
            decode(stream)

    def test_attribute_payload_count_mismatch(self):
        """A valid payload with the wrong symbol count is caught by the
        expected-count cross-check even though it is canonically coded."""
        stream = self._stream()
        grid = stream.attr_grids["opacity"]
        forged = C.encode_levels(np.zeros(17, dtype=np.int64), grid, 1.0, {17: 1})
        stream.attribute_payloads["opacity"] = forged
        with pytest.raises(CorruptPayloadError,
                           match="opacity: payload holds 17 symbols, expected"):
            decode(stream)

    def test_huge_attribute_count_rejected_before_decoding(self):
        """An attribute payload claiming 2^32 - 1 symbols is refused on
        the count the partition implies."""
        stream = encode(make_cloud(40, seed=19), SMALL)
        payload = stream.attribute_payloads["sh_y"]
        stream.attribute_payloads["sh_y"] = struct.pack("<I", 2**32 - 1) + payload[4:]
        with bounded_failure(seconds=1.0, bytes_=16 << 20):
            decode(stream)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("group", ["geometry", "sh_y", "scale"])
    def test_grid_overflow_is_a_codec_error(self, group):
        """Finite grid fields that scale decoded levels past float64 (as a
        flipped exponent bit in the header can) are a container error,
        raised without numpy warnings on the way."""
        stream = self._stream()
        grid = stream.geom_grid if group == "geometry" else stream.attr_grids[group]
        huge = replace(grid, scale=1e308)
        if group != "geometry":
            # Levels are coded as offsets from the grid's zero level,
            # quantize(0), so the old payload need not fit the tampered
            # grid: code every level at the top of its range on it instead.
            _, debug = encode(make_cloud(150, seed=18), SMALL, collect_debug=True)
            sizes = Counter(len(leaf) for leaf in debug.part.leaves)
            count = C._level_count(grid.components, 1.0, sizes)
            stream.attribute_payloads[group] = C.encode_levels(
                np.full(count, huge.levels), huge, 1.0, sizes)
        if group == "geometry":
            stream.geom_grid = huge
        else:
            stream.attr_grids[group] = huge
        with pytest.raises(CodecError, match="outside float64"):
            decode(stream)

    def test_geometry_count_disagrees_with_header(self):
        stream = self._stream()
        small = encode(make_cloud(40, seed=19), SMALL)
        stream.geometry_payload = small.geometry_payload
        with pytest.raises(CorruptPayloadError, match="header says"):
            decode(stream)


class TestClassContexts:
    """An attribute level's class is coded in context band * 4 + degree:
    the band of its coefficient index and its component's SH degree."""

    @staticmethod
    def _expected(comps, k, degree):
        """One leaf's (k, C) contexts."""
        band = np.minimum([i.bit_length() for i in range(k)], C.BANDS - 1)
        return band[:, None] * 4 + np.array([degree(c) for c in range(comps)])[None, :]

    def test_sh_channel_contexts(self):
        grid = QuantGrid(mins=np.zeros(16), scale=1.0, q=8)
        contexts, _ = C._level_layout(grid, 0.5, {40: 2, 24: 1})
        # degree l holds components l^2 .. l^2 + 2l
        sh = lambda c: math.isqrt(c)
        want = [np.broadcast_to(self._expected(16, 20, sh), (2, 20, 16)).ravel(),
                self._expected(16, 12, sh).ravel()]
        np.testing.assert_array_equal(contexts, np.concatenate(want))

    @pytest.mark.parametrize("comps", [1, 3, 4])
    def test_other_groups_are_degree_0(self, comps):
        grid = QuantGrid(mins=np.zeros(comps), scale=1.0, q=8)
        contexts, _ = C._level_layout(grid, 1.0, {20: 3})
        want = np.broadcast_to(self._expected(comps, 20, lambda c: 0), (3, 20, comps))
        np.testing.assert_array_equal(contexts, want.ravel())

    def test_round_trip_reaches_all_24_contexts(self, monkeypatch):
        """At q = 16 and alpha = 1 with leaves past 16 primitives the SH
        channels reach every band at every degree; the decoder mirrors
        the encoder's local decode."""
        seen = set()
        aac_encode = C.entropy.aac_encode

        def spy(stream, contexts=None):
            if contexts is not None:
                seen.update(np.unique(contexts).tolist())
            return aac_encode(stream, contexts)

        monkeypatch.setattr(C.entropy, "aac_encode", spy)
        monkeypatch.setattr(C, "_usable_cpus", lambda: 1)  # the spy sees this process only
        params = CodecParams(max_leaf=40, **{f"q_{n}": 16 for n in GROUP_NAMES})
        stream, enc = encode(make_cloud(120, seed=5), params, collect_debug=True)
        assert min(len(leaf) for leaf in enc.part.leaves) > 16
        assert seen == set(range(24))
        _, dec = decode(CodedStream.from_bytes(stream.to_bytes()), collect_debug=True)
        for name in GROUP_NAMES:
            np.testing.assert_array_equal(dec.signals[name], enc.signals[name])


class TestHostileLevelPayloads:
    """Attribute payloads forged in the class-plus-raw-bits layout
    [count u32][class-bytes length u32][class bytes][raw bits] raise
    `CorruptPayloadError` within bounded time and memory."""

    def _stream(self):
        """The stream and its partition's leaf sizes, in payload order."""
        stream, debug = encode(make_cloud(150, seed=18), SMALL, collect_debug=True)
        return stream, Counter(len(leaf) for leaf in debug.part.leaves)

    def _rejected(self, stream, sizes, group, payload, match):
        """`decode` names the group and the fault; the group's payload
        decoder fails within bounded time and memory."""
        stream.attribute_payloads[group] = payload
        with pytest.raises(CorruptPayloadError, match=f"^{group}: .*{match}"):
            decode(stream)
        with bounded_failure(seconds=0.5, bytes_=1 << 20):
            C.decode_levels(payload, stream.attr_grids[group], 1.0, sizes)

    @staticmethod
    def _sections(payload):
        count, class_len = struct.unpack_from("<II", payload)
        return count, payload[8 : 8 + class_len], payload[8 + class_len :]

    @staticmethod
    def _raw_bit_count(stream, group, sizes):
        grid = stream.attr_grids[group]
        d = (C.decode_levels(stream.attribute_payloads[group], grid, 1.0, sizes)
             - C._level_layout(grid, 1.0, sizes)[1])
        u = np.abs(2 * d + (d < 0))  # the zigzag map
        return int(np.maximum(np.frexp(u)[1] - 1, 0).sum())

    def test_class_length_past_payload_end(self):
        stream, sizes = self._stream()
        payload = stream.attribute_payloads["scale"]
        count, classes, raw = self._sections(payload)
        forged = struct.pack("<II", count, len(payload)) + classes + raw
        self._rejected(stream, sizes, "scale", forged, "past the payload end")

    @pytest.mark.parametrize("change", ["short", "long"])
    def test_raw_section_one_byte_off(self, change):
        stream, sizes = self._stream()
        payload = stream.attribute_payloads["rotation"]
        assert len(self._sections(payload)[2]) > 0
        forged = payload[:-1] if change == "short" else payload + b"\x00"
        self._rejected(stream, sizes, "rotation", forged, "raw section holds")

    def test_nonzero_padding(self):
        stream, sizes = self._stream()
        group = "opacity"
        assert self._raw_bit_count(stream, group, sizes) % 8
        payload = bytearray(stream.attribute_payloads[group])
        payload[-1] |= 1
        self._rejected(stream, sizes, group, bytes(payload), "nonzero padding")

    def test_raw_bits_past_the_level_range(self):
        """Every level in the top class with all raw bits set: u = 2^(q+1) - 1
        lies 2^q below the zero level, under level 0."""
        stream, sizes = self._stream()
        grid = stream.attr_grids["opacity"]
        count = 150
        classes = np.full(count, grid.q + 1)
        bands, _ = C._level_layout(grid, 1.0, sizes)
        coded = aac_encode(SymbolStream(grid.q + 2, classes), bands)
        raw = np.packbits(np.ones(count * grid.q, dtype=np.uint8)).tobytes()
        forged = coded[:4] + struct.pack("<I", len(coded) - 4) + coded[4:] + raw
        self._rejected(stream, sizes, "opacity", forged, r"outside \[0, 1023\]")

    def test_count_of_two_to_the_32_minus_one(self):
        stream, sizes = self._stream()
        payload = stream.attribute_payloads["sh_v"]
        forged = struct.pack("<I", 2**32 - 1) + payload[4:]
        self._rejected(stream, sizes, "sh_v", forged, "payload holds 4294967295 symbols")


class TestExternalGeometryBackend:
    def test_command_round_trip(self, tmp_path):
        copy = tmp_path / "copy.py"
        copy.write_text(
            "import sys, shutil\nshutil.copy(sys.argv[1], sys.argv[2])\n"
        )
        cmd = f"python3 {copy} {{in}} {{out}}"

        cloud = make_cloud(80, seed=20)
        stream = encode(cloud, SMALL, geometry_command=cmd)
        assert stream.geom_backend == C.GEOM_EXTERNAL
        back = CodedStream.from_bytes(stream.to_bytes())
        out = decode(back, geometry_command=cmd)
        ref = canonical_order(cloud, SMALL)
        want = dequantize(quantize(ref.centers, stream.geom_grid),
                          stream.geom_grid)
        np.testing.assert_array_equal(out.centers, want)

    def test_missing_decoder_command_is_reported(self, tmp_path):
        copy = tmp_path / "copy.py"
        copy.write_text(
            "import sys, shutil\nshutil.copy(sys.argv[1], sys.argv[2])\n"
        )
        cmd = f"python3 {copy} {{in}} {{out}}"

        stream = encode(make_cloud(30, seed=21), SMALL, geometry_command=cmd)
        with pytest.raises(CodecError, match="geometry_command"):
            decode(stream)

    def test_blank_command_is_refused(self):
        """An empty or whitespace-only command names no program: encode
        says so instead of failing inside `subprocess` or coding the
        geometry itself."""
        for command in ("   ", ""):
            with pytest.raises(ValueError, match="names no program"):
                encode(make_cloud(30, seed=21), SMALL, geometry_command=command)


class TestCanonicalOrder:
    def test_matches_decoded_row_order(self):
        cloud = make_cloud(130, seed=22)
        params = CodecParams(max_leaf=40)
        stream = encode(cloud, params)
        out = decode(stream)
        ref = canonical_order(cloud, params)
        # row i of the decoded cloud quantizes to row i of the reference
        np.testing.assert_array_equal(
            quantize(out.centers, stream.geom_grid),
            quantize(ref.centers, stream.geom_grid),
        )

    def test_is_a_permutation(self):
        cloud = make_cloud(75, seed=23)
        ref = canonical_order(cloud, CodecParams())
        got = sorted(map(tuple, ref.centers))
        want = sorted(map(tuple, cloud.centers))
        assert got == want

    def test_encode_builds_and_checks_the_lattice_once(self, monkeypatch):
        """The geometry section codes the limbs the sort built, so an
        encode builds the Morton code once and checks the lattice once."""
        calls = Counter()
        for name in ("morton_limbs", "check_lattice"):
            def spy(*args, _name=name, _real=getattr(partition, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(partition, name, spy)
        monkeypatch.setattr(C, "_usable_cpus", lambda: 1)
        encode(make_cloud(130, seed=24), SMALL)
        assert calls == {"morton_limbs": 1, "check_lattice": 1}


def _leaves(sizes: list[int]) -> list[np.ndarray]:
    """Leaves of the given sizes, in partition order, over consecutive rows."""
    bounds = np.cumsum([0, *sizes])
    return [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _run_work(run) -> int:
    return sum(n * C.SPECTRUM_WEIGHT * m * m for m, n in run[1].items())


class TestRuns:
    """`_runs` cuts the leaves in payload order into contiguous runs of
    about equal spectrum work."""

    # sizes 16 and 9 interleaved; payload order is every 16, then every 9
    MIXED = [16, 9, 9, 16, 9, 16, 16, 9, 9, 9, 16, 9, 16]

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 7, 13, 20])
    def test_every_leaf_once_in_payload_order(self, count):
        leaves = _leaves(self.MIXED)
        runs = C._runs(leaves, count)
        payload = [leaf for m in (16, 9) for leaf in leaves if len(leaf) == m]
        assert 1 <= len(runs) <= count
        assert all(len(rows) > 0 for rows, _ in runs)
        at = 0
        for rows, sizes in runs:
            run = payload[at:at + sum(sizes.values())]
            np.testing.assert_array_equal(rows, np.concatenate(run))
            assert list(sizes.items()) == list(Counter(map(len, run)).items())
            at += len(run)
        assert at == len(payload)

    @pytest.mark.parametrize("n", [1, 5, 16, 37])
    @pytest.mark.parametrize("count", [1, 2, 3, 8])
    def test_one_size_cuts_at_n_r_over_count(self, n, count):
        runs = C._runs(_leaves([12] * n), count)
        ends = [n * (r + 1) // count for r in range(count)]
        lengths = [hi - lo for lo, hi in zip([0, *ends], ends) if hi > lo]
        assert [sizes[12] for _, sizes in runs] == lengths

    @pytest.mark.parametrize("count", [2, 3, 4, 5])
    def test_two_sizes_balance_within_one_leaf(self, count):
        """Leaves of 32 and 17 (works 4,096 and 1,156): each run's work
        lies within one leaf's work of an equal share."""
        runs = C._runs(_leaves([32, 17, 17, 32, 17, 32, 17, 17, 32, 17, 17, 17]), count)
        total = sum(map(_run_work, runs))
        assert len(runs) == count
        for run in runs:
            assert abs(count * _run_work(run) - total) < count * C.SPECTRUM_WEIGHT * 32 ** 2

    @pytest.mark.parametrize("sizes", [[20, 20, 20], [13, 12, 13, 12, 13, 12, 13, 12]])
    def test_more_processes_than_leaves_give_a_run_per_leaf(self, sizes):
        runs = C._runs(_leaves(sizes), 10)
        assert len(runs) == len(sizes)
        assert all(sum(run.values()) == 1 for _, run in runs)


def _force_pool(monkeypatch, cpus: int = 3) -> list[int]:
    """Make every encode and decode share its work with the pool, as on
    `cpus` usable CPUs; the returned list collects the pid of every worker
    forked."""
    monkeypatch.setattr(C, "POOL_MIN_WORK", 0)
    return _count_forks(monkeypatch, cpus)


def _count_forks(monkeypatch, cpus: int) -> list[int]:
    """Close the pool and make the codec see `cpus` usable CPUs; the
    returned list collects the pid of every worker forked from then on,
    each with the monkeypatches made before it."""
    pool.close_pool()
    monkeypatch.setattr(C, "_usable_cpus", lambda: cpus)
    forks = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _serial(monkeypatch, case) -> tuple[bytes, bytes]:
    """Stream and decoded PLY bytes of `case` (name, cloud, params) coded
    in this process alone."""
    _, cloud, params = case
    with monkeypatch.context() as patch:
        patch.setattr(C, "_usable_cpus", lambda: 1)
        blob = encode(cloud(), params).to_bytes()
        return blob, save_ply(decode(CodedStream.from_bytes(blob)))


def _pool_pids() -> list[int]:
    return [worker.pid for worker in pool._POOL]


def _affinity() -> set[int] | None:
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def _record_placement(monkeypatch, tmp_path) -> list[dict[int, list[int]]]:
    """From now on, each `pool.share` call appends {pid: sorted CPUs} of
    every process that ran one of its shares, as it held them then.  Call
    before the pool forks: a worker runs the `pool._run` of its fork."""
    log = tmp_path / "placement"
    log.write_text("")
    calls = []
    run, share = pool._run, pool.share

    def placed_run(requests):
        with open(log, "a") as f:
            f.write(json.dumps([os.getpid(), sorted(os.sched_getaffinity(0))]) + "\n")
        return run(requests)

    def recorded_share(*args):
        try:
            return share(*args)
        finally:
            calls.append(dict(json.loads(line) for line in log.read_text().splitlines()))
            log.write_text("")

    monkeypatch.setattr(pool, "_run", placed_run)
    monkeypatch.setattr(pool, "share", recorded_share)
    return calls


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def no_child_left():
    """The test leaves no worker behind, and this process on the CPUs it
    held before."""
    own = _affinity()
    yield
    pool.close_pool()
    now = _affinity()
    if now != own:  # give it back, so that later tests start unpinned
        os.sched_setaffinity(0, own)
    assert now == own
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_child(parent: int, i: int) -> int:
    if os.getpid() != parent:
        raise ValueError(f"job {i} raised in a child")
    return i


def _job_and_pid(i: int) -> tuple[int, int]:
    return i, os.getpid()


def _negated_and_pid(i: int) -> tuple[int, int]:
    return -i, os.getpid()


def _echo(value):
    return value


_MIXED = next((c.name, c.cloud, c.params) for c in GOLDEN_CASES if c.name == "mixed")


@pytest.mark.usefixtures("no_child_left")
class TestForkJoin:
    """Work shared with the worker pool gives the serial path's bytes and
    errors, and leaves no worker behind."""

    CASES = [(c.name, c.cloud, c.params) for c in GOLDEN_CASES] + [
        ("realistic-2000", lambda: make_realistic_cloud(2_000, seed=40),
         CodecParams(max_leaf=32))]

    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_bytes_match_serial(self, monkeypatch, case):
        """Encode and decode on three processes give the serial bytes, and
        the decode reuses the encode's two workers."""
        _, cloud, params = case
        blob, ply = _serial(monkeypatch, case)
        forks = _force_pool(monkeypatch)
        assert encode(cloud(), params).to_bytes() == blob
        assert len(forks) == 2
        assert save_ply(decode(CodedStream.from_bytes(blob))) == ply
        assert _pool_pids() == forks

    def test_decode_weighs_a_symbol_above_encode(self, monkeypatch):
        """96 primitives in sixteen leaves of 6 at the default bit depths
        carry 5,376 attribute levels, and their spectra weigh 16 * 4 * 36 =
        2,304.  On two CPUs the encode (7,776 with its 96 points) stays in
        this process; the decode, whose levels weigh `DECODE_WEIGHT` each
        (18,432 in all), uses one pool worker."""
        assert (C.POOL_MIN_WORK, C.DECODE_WEIGHT, C.SPECTRUM_WEIGHT) == (1 << 14, 3, 4)
        forks = _count_forks(monkeypatch, cpus=2)
        stream = encode(make_realistic_cloud(96, seed=41), CodecParams(max_leaf=8))
        assert forks == []
        decode(stream)
        assert len(forks) == 1

    def test_debug_calls_share_work_like_plain_ones(self, monkeypatch):
        """A `collect_debug` encode and decode above `POOL_MIN_WORK` on two
        CPUs share their work with one worker, as plain calls do, and give
        the stream and `Internals` of one-process debug calls."""
        cloud, params = make_realistic_cloud(400, seed=40), CodecParams(max_leaf=32)
        with monkeypatch.context() as patch:
            patch.setattr(C, "_usable_cpus", lambda: 1)
            serial, senc = encode(cloud, params, collect_debug=True)
            _, sdec = decode(serial, collect_debug=True)
        forks = _count_forks(monkeypatch, cpus=2)
        stream, enc = encode(cloud, params, collect_debug=True)
        assert len(forks) == 1
        _, dec = decode(CodedStream.from_bytes(stream.to_bytes()), collect_debug=True)
        assert len(forks) == 1
        assert stream.to_bytes() == serial.to_bytes()
        for got, want in ((enc, senc), (dec, sdec)):
            assert len(got.part.leaves) == len(want.part.leaves)
            for a, b in zip(got.part.leaves, want.part.leaves):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(got.recon_centers, want.recon_centers)
            for name in GROUP_NAMES:
                assert got.signals[name].tobytes() == want.signals[name].tobytes()

    def test_results_in_job_order(self, monkeypatch):
        forks = _force_pool(monkeypatch)
        calls = [(_job_and_pid, (i,)) for i in range(5)]
        got = C._dispatch(calls, C._shares([5, 1, 9, 2, 7], 3))
        assert [i for i, _ in got] == [0, 1, 2, 3, 4]
        assert {pid for _, pid in got} == {os.getpid(), *forks}
        assert len(forks) == 2

    def test_same_workers_run_different_functions(self, monkeypatch):
        """Two pooled calls in a row run different functions on the same
        workers, each call's results from its own function."""
        forks = _force_pool(monkeypatch)
        shares = [[0], [1], [2]]
        first = C._dispatch([(_job_and_pid, (i,)) for i in range(3)], shares)
        second = C._dispatch([(_negated_and_pid, (i,)) for i in range(3)], shares)
        pids = [os.getpid(), *forks]
        assert len(forks) == 2 and _pool_pids() == forks
        assert first == [(i, pid) for i, pid in enumerate(pids)]
        assert second == [(-i, pid) for i, pid in enumerate(pids)]

    def test_wrapped_function_runs_on_a_worker(self, monkeypatch):
        """A `functools.wraps` wrapper on a module attribute, as the
        benchmark's tracer installs one, travels to a worker by reference
        like the function it wraps: the geometry section, coded on a
        worker, gives the serial bytes."""
        case = ("", lambda: make_cloud(150, seed=18), SMALL)
        blob, _ = _serial(monkeypatch, case)
        real, here = geom_codec.encode_centers, []

        @functools.wraps(real)
        def wrapped(*args):
            here.append(os.getpid())
            return real(*args)

        monkeypatch.setattr(geom_codec, "encode_centers", wrapped)
        forks = _force_pool(monkeypatch)
        assert encode(case[1](), SMALL).to_bytes() == blob
        assert len(forks) == 2 and here == []

    def test_first_corrupt_group_is_reported(self, monkeypatch):
        """sh_u goes to a worker and rotation stays in this process; the
        error names sh_u, as on the serial path."""
        stream = encode(make_cloud(150, seed=18), SMALL)
        for group in ("sh_u", "rotation"):
            payload = stream.attribute_payloads[group]
            stream.attribute_payloads[group] = payload[: len(payload) // 2]
        with pytest.raises(CorruptPayloadError) as serial:
            decode(stream)
        assert str(serial.value).startswith("sh_u: ")
        forks = _force_pool(monkeypatch)
        with pytest.raises(CorruptPayloadError) as pooled:
            decode(stream)
        assert len(forks) == 2
        assert str(pooled.value) == str(serial.value)

    def test_child_exception_surfaces(self, monkeypatch):
        forks = _force_pool(monkeypatch)
        calls = [(_in_child, (os.getpid(), i)) for i in range(3)]
        with pytest.raises(ValueError, match="^job 1 raised in a child$"):
            C._dispatch(calls, C._shares([1, 1, 1], 3))
        assert len(forks) == 2

    def test_dead_child_names_exit_status(self, monkeypatch):
        """A worker that dies in its payloads is named by its exit status;
        the next call forks fresh workers."""
        cloud = make_cloud(150, seed=18)
        parent = os.getpid()
        real = C.entropy.aac_encode

        def dying(*args):
            if os.getpid() != parent:
                os._exit(7)
            return real(*args)

        with monkeypatch.context() as patch:
            patch.setattr(C.entropy, "aac_encode", dying)
            forks = _force_pool(monkeypatch)
            with pytest.raises(RuntimeError, match="exited with status 7"):
                encode(cloud, SMALL)
            assert len(forks) == 2 and _pool_pids() == []
            assert all(_reaped(pid) for pid in forks)
        blob, _ = _serial(monkeypatch, ("", lambda: cloud, SMALL))
        assert encode(cloud, SMALL).to_bytes() == blob
        assert len(forks) == 4

    def test_spectra_error_in_a_child_surfaces(self, monkeypatch):
        """A QL failure in a worker's share of the leaf spectra is raised
        here with the serial path's message."""
        cloud = make_cloud(150, seed=18)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "QL_MAX_SWEEPS", 0)
            patch.setattr(C, "_usable_cpus", lambda: 1)
            with pytest.raises(RuntimeError, match="converge") as serial:
                encode(cloud, SMALL)
        forks = _force_pool(monkeypatch)
        parent = os.getpid()
        real = spectral.graph_spectra

        def failing_in_children(*args):
            if os.getpid() != parent:
                spectral.QL_MAX_SWEEPS = 0  # this worker's copy only
            return real(*args)

        monkeypatch.setattr(spectral, "graph_spectra", failing_in_children)
        with pytest.raises(RuntimeError) as pooled:
            encode(cloud, SMALL)
        assert len(forks) == 2
        assert str(pooled.value) == str(serial.value)

    def test_child_dying_in_its_spectra_names_exit_status(self, monkeypatch):
        self._die_in_spectra(monkeypatch, encode, make_cloud(150, seed=18), SMALL)

    def test_child_dying_in_its_decode_spectra_names_exit_status(self, monkeypatch):
        self._die_in_spectra(monkeypatch, decode, encode(make_cloud(150, seed=18), SMALL))

    @staticmethod
    def _die_in_spectra(monkeypatch, op, *args):
        parent = os.getpid()
        real = spectral.graph_spectra

        def dying(*args):
            if os.getpid() != parent:
                os._exit(5)
            return real(*args)

        monkeypatch.setattr(spectral, "graph_spectra", dying)
        forks = _force_pool(monkeypatch)
        with pytest.raises(RuntimeError, match="exited with status 5"):
            op(*args)
        assert len(forks) == 2

    @pytest.mark.parametrize("cpus, here", [(3, 2), (5, 1)])
    def test_spectra_split_by_work(self, monkeypatch, cpus, here):
        """The golden `mixed` case has four leaves of 13, then four of 12 in
        payload order: works 676 and 576, 5,008 in all, 676 to 5,008 through
        each leaf.  This process solves the first contiguous run, the leaves
        through at most 1/cpus of the total: two leaves of 13 on three CPUs
        (1,352 <= 1,669), one on five (676 <= 1,002 < 1,352).  The bytes are
        the serial ones."""
        blob, _ = _serial(monkeypatch, _MIXED)
        solved_here = self._count_leaves_solved_here(monkeypatch)
        forks = _force_pool(monkeypatch, cpus)
        assert encode(_MIXED[1](), _MIXED[2]).to_bytes() == blob
        assert len(forks) == cpus - 1
        assert solved_here == [Counter({13: here})]

    @pytest.mark.parametrize("cpus, here", [(3, 2), (5, 1)])
    def test_decode_spectra_split_by_work(self, monkeypatch, cpus, here):
        """Decode splits the leaf spectra and inverse transforms the way
        encode does, after its payloads; the PLY bytes are the serial ones."""
        blob, ply = _serial(monkeypatch, _MIXED)
        solved_here = self._count_leaves_solved_here(monkeypatch)
        forks = _force_pool(monkeypatch, cpus)
        assert save_ply(decode(CodedStream.from_bytes(blob))) == ply
        assert len(forks) == cpus - 1
        assert solved_here == [Counter({13: here})]

    def test_no_worker_without_a_share(self, monkeypatch):
        """Two leaves of 50 on ten CPUs: the spectra make two runs, and the
        seven payloads of an encode seven shares, so the pool forks six
        workers, not nine; the decode's six payloads need no more."""
        case = ("", lambda: make_cloud(100, seed=18), SMALL)
        blob, ply = _serial(monkeypatch, case)
        forks = _force_pool(monkeypatch, cpus=10)
        assert encode(case[1](), SMALL).to_bytes() == blob
        assert save_ply(decode(CodedStream.from_bytes(blob))) == ply
        assert len(forks) == 6

    @staticmethod
    def _count_leaves_solved_here(monkeypatch) -> list[Counter]:
        """Patch `spectral.graph_spectra` to record the `sizes` (leaf size ->
        count) of each call made in this process."""
        parent = os.getpid()
        real = spectral.graph_spectra
        solved_here = []

        def counted(centers, sizes, sigma):
            if os.getpid() == parent:
                solved_here.append(Counter(sizes))
            return real(centers, sizes, sigma)

        monkeypatch.setattr(spectral, "graph_spectra", counted)
        return solved_here

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    @pytest.mark.parametrize("count", [2, 3, 10])
    def test_each_share_runs_on_its_own_cpu(self, monkeypatch, tmp_path, count):
        """Two leaves of 50 on `count` processes.  While a call runs, this
        process holds the first CPU of its affinity set and worker w CPU w,
        round robin over the set, so the processes hold distinct CPUs while
        they are no more than the CPUs.  The bytes are the serial ones, and
        this process gets its own set back."""
        case = ("", lambda: make_cloud(100, seed=18), SMALL)
        blob, ply = _serial(monkeypatch, case)
        own = os.sched_getaffinity(0)
        cpus = sorted(own)
        forks = _force_pool(monkeypatch, count)
        calls = _record_placement(monkeypatch, tmp_path)
        assert encode(case[1](), SMALL).to_bytes() == blob
        assert save_ply(decode(CodedStream.from_bytes(blob))) == ply
        assert os.sched_getaffinity(0) == own
        assert len(forks) == min(count - 1, 6) and len(calls) == 4
        order = [os.getpid(), *_pool_pids()]
        for placement in calls:
            assert os.getpid() in placement and len(placement) > 1
            assert placement == {pid: [cpus[order.index(pid) % len(cpus)]] for pid in placement}
            if len(placement) <= len(cpus):
                assert len({cpu for cpu, in placement.values()}) == len(placement)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_placement_stays_in_the_owners_set(self, monkeypatch, tmp_path):
        """An owner confined to its last CPU keeps every process of the
        call there, and is confined to it again after."""
        case = ("", lambda: make_cloud(150, seed=18), SMALL)
        blob, _ = _serial(monkeypatch, case)
        own = os.sched_getaffinity(0)
        last = max(own)
        _force_pool(monkeypatch)
        calls = _record_placement(monkeypatch, tmp_path)
        os.sched_setaffinity(0, {last})
        try:
            assert encode(case[1](), SMALL).to_bytes() == blob
            assert os.sched_getaffinity(0) == {last}
        finally:
            os.sched_setaffinity(0, own)
        assert [set(p) for p in calls] == [{os.getpid(), *_pool_pids()}] * 2
        assert all(cpus == [last] for p in calls for cpus in p.values())

    @pytest.mark.parametrize("how", ["refused", "missing"])
    def test_placement_is_best_effort(self, monkeypatch, how):
        """Where `os.sched_setaffinity` raises OSError, or does not exist,
        placement stays with the scheduler and the bytes are the serial
        ones."""
        case = ("", lambda: make_cloud(150, seed=18), SMALL)
        blob, ply = _serial(monkeypatch, case)
        own = _affinity()
        refused = []

        def refuse(pid, cpus):
            refused.append(pid)
            raise (ProcessLookupError if pid else PermissionError)(pid)

        if how == "refused":
            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        else:
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        forks = _force_pool(monkeypatch)
        assert encode(case[1](), SMALL).to_bytes() == blob
        assert save_ply(decode(CodedStream.from_bytes(blob))) == ply
        assert len(forks) == 2 and _affinity() == own
        if how == "refused":
            assert set(refused) == {0, *forks}

    def test_worker_dying_before_its_pinning_is_reported(self, monkeypatch):
        """A worker that dies after the call picked it is pinned in vain:
        the call names its exit status, and the next one replaces it."""
        case = ("", lambda: make_cloud(150, seed=18), SMALL)
        blob, _ = _serial(monkeypatch, case)
        forks = _force_pool(monkeypatch)
        encode(case[1](), SMALL)
        own, victim = _affinity(), _pool_pids()[0]
        picked = pool._workers

        def killing(count):
            workers = picked(count)
            if victim in _pool_pids():
                os.kill(victim, signal.SIGKILL)
                os.waitid(os.P_PID, victim, os.WEXITED | os.WNOWAIT)
            return workers

        with monkeypatch.context() as patch:
            patch.setattr(pool, "_workers", killing)
            with pytest.raises(RuntimeError, match=f"{victim} exited with status -9"):
                encode(case[1](), SMALL)
        assert _affinity() == own and _reaped(victim)
        assert encode(case[1](), SMALL).to_bytes() == blob
        assert victim not in _pool_pids() and len(forks) == 3

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_own_share_raising_leaves_no_stale_reply(self, monkeypatch, error):
        """This process's own share raises while the workers hold their
        payload requests.  An exception waits for their replies, and the
        workers serve on; an interrupt kills and reaps them.  Either way
        this process gets its own CPU set back, and the next encode gives
        the serial bytes."""
        case = ("", lambda: make_cloud(150, seed=18), SMALL)
        blob, _ = _serial(monkeypatch, case)
        forks = _force_pool(monkeypatch)
        assert encode(case[1](), SMALL).to_bytes() == blob
        workers = _pool_pids()
        own = _affinity()

        def failing(*args):
            raise error("own share")

        with monkeypatch.context() as patch:
            patch.setattr(C, "encode_levels", failing)  # here only: the workers exist
            with pytest.raises(error, match="own share"):
                encode(case[1](), SMALL)
        assert _affinity() == own
        interrupted = error is KeyboardInterrupt
        assert _pool_pids() == ([] if interrupted else workers)
        assert all(_reaped(pid) for pid in workers) == interrupted
        assert encode(case[1](), SMALL).to_bytes() == blob
        assert len(forks) == (4 if interrupted else 2)

    def test_killed_worker_is_replaced(self, monkeypatch):
        """A worker SIGKILLed between calls is reaped and replaced by the
        next call, which gives the serial bytes: an encode, then a decode."""
        case = ("", lambda: make_cloud(150, seed=18), SMALL)
        blob, ply = _serial(monkeypatch, case)
        forks = _force_pool(monkeypatch)
        encode(case[1](), SMALL)
        for op in ("encode", "decode"):
            victim = _pool_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # wait for its death, and leave it for the pool to reap
            os.waitid(os.P_PID, victim, os.WEXITED | os.WNOWAIT)
            if op == "encode":
                assert encode(case[1](), SMALL).to_bytes() == blob
            else:
                assert save_ply(decode(CodedStream.from_bytes(blob))) == ply
            assert victim not in _pool_pids() and _reaped(victim)
        assert len(forks) == 4


    def test_none_reply_is_not_a_dead_worker(self):
        """A reply of None comes back as one: only the end of a worker's
        pipe means that it died, and the worker serves on."""
        assert pool.share([(_echo, (1,)), (_echo, (2,))], [[0], [1]]) == [1, 2]
        workers = _pool_pids()
        assert pool.share([(_echo, ("x",)), (_echo, (None,))], [[0], [1]]) == ["x", None]
        assert _pool_pids() == workers

    def test_workers_ignore_sigint(self, monkeypatch):
        """An interrupt is the owner's to handle: a worker sent SIGINT
        serves on."""
        case = ("", lambda: make_cloud(150, seed=18), SMALL)
        blob, _ = _serial(monkeypatch, case)
        _force_pool(monkeypatch)
        encode(case[1](), SMALL)
        workers = _pool_pids()
        for pid in workers:
            os.kill(pid, signal.SIGINT)
        assert encode(case[1](), SMALL).to_bytes() == blob
        assert _pool_pids() == workers


    def test_fork_leaves_the_owners_freeze_alone(self, monkeypatch):
        """The pool freezes the collector's objects across its forks only:
        an owner that froze none has none frozen after, and one that froze
        some of its own keeps them frozen."""
        _force_pool(monkeypatch)
        encode(make_cloud(150, seed=18), SMALL)
        assert gc.get_freeze_count() == 0
        pool.close_pool()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            encode(make_cloud(150, seed=18), SMALL)
            assert gc.get_freeze_count() >= frozen > 0
        finally:
            gc.unfreeze()


# Encodes and decodes on a forced 3-worker pool, forks a grandchild that
# sleeps with the pool's pipes inherited, and exits; prints the worker
# and grandchild pids as one JSON line.
_OWNER = """
import json, os, sys, time
import numpy as np
from ggsc import codec, pool
from ggsc.gs_core import GaussianCloud

codec._usable_cpus = lambda: 3
codec.POOL_MIN_WORK = 0
rng = np.random.default_rng(0)
n = 150
cloud = GaussianCloud(rng.normal(size=(n, 3)), rng.normal(size=(n, 48)),
                      rng.normal(size=n), rng.normal(size=(n, 3)), rng.normal(size=(n, 4)))
codec.decode(codec.encode(cloud, codec.CodecParams(max_leaf=50)))
grandchild = os.fork()
if grandchild == 0:
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.dup2(null, 2)
    time.sleep(300)
    os._exit(0)
print(json.dumps({"workers": [w.pid for w in pool._POOL], "grandchild": grandchild}))
"""


def test_no_worker_outlives_its_owner():
    """The pool's owner exits promptly although a forked grandchild is
    still running, and leaves every worker reaped: the grandchild closed
    its inherited pipes, so the workers saw their request pipes end.  The
    owner runs in a session of its own, so that a hang is cleaned up."""
    proc = subprocess.Popen([sys.executable, "-c", _OWNER], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        workers = json.loads(out.splitlines()[-1])["workers"]
        assert len(workers) == 2
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the grandchild, and any worker left
        except ProcessLookupError:
            pass
        proc.wait()


# argv[1] is the mutation seed.  Replays test_fuzz's corpus on the serial
# and on the forced three-process path; prints one JSON summary line.
_PARALLEL_FUZZ = test_fuzz._CHILD.split("\ncounts = ")[0] + """
import hashlib, os
from ggsc import gs_core

def outcome(blob):
    try:
        ply = gs_core.save_ply(codec.decode(CodedStream.from_bytes(blob)))
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return ["decoded", hashlib.sha256(ply).hexdigest()]

corpus = list(mutants())
codec._usable_cpus = lambda: 1
serial = [outcome(blob) for _, blob in corpus]
codec._usable_cpus = lambda: 3
codec.POOL_MIN_WORK = 0
forks = 0
fork = os.fork
def counted():
    global forks
    pid = fork()
    forks += pid != 0
    return pid
os.fork = counted
pooled = [outcome(blob) for _, blob in corpus]
from ggsc import pool
pool.close_pool()
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({
    "mutants": len(corpus),
    "forks": forks,
    "left": left,
    "kinds": sorted({s[0] for s in serial}),
    "differ": [[what, s, f] for (what, _), s, f in zip(corpus, serial, pooled) if s != f],
}))
"""


def test_mutants_decode_alike_on_forked_workers():
    """Every mutant of the fuzz corpus gives the pooled decode the serial
    decode's outcome: the same exception type and message, or the same
    PLY bytes."""
    assert "\ncounts = " in test_fuzz._CHILD and "def mutants():" in _PARALLEL_FUZZ
    proc = subprocess.run([sys.executable, "-c", _PARALLEL_FUZZ, str(test_fuzz.GOLDEN),
                           str(test_fuzz.SEED)],
                          env=child_env(), timeout=300, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["differ"] == []
    assert result["mutants"] == 3 * (30 + 50) + 40
    assert result["forks"] > 0 and not result["left"]
    assert {"decoded", "CorruptPayloadError"} <= set(result["kinds"])
