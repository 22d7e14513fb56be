"""Container format and end-to-end encode/decode behavior."""

import math
import struct
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
from ggsc.entropy import CorruptPayloadError, aac_decode
from ggsc.quantizer import dequantize, quantize
from ggsc import spectral

from conftest import make_cloud
from test_entropy import bounded_failure


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

    def test_header_size_accounts_for_everything(self):
        stream = self._stream()
        report = bitrate_breakdown(stream)
        assert report.total_bytes == len(stream.to_bytes())
        assert report.header_bytes == stream.header_size()
        assert report.b1 == len(stream.geometry_payload)
        assert report.b2 == sum(
            len(stream.attribute_payloads[n]) for n in GROUP_NAMES
        )
        assert report.total_bytes == report.header_bytes + report.b1 + report.b2


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
    def test_decoder_reproduces_encoder_internals(self):
        cloud = make_cloud(300, seed=12)
        params = CodecParams(max_leaf=45, alpha_sh_y=0.6, alpha_scale=0.3)
        stream, edbg = encode(cloud, params, collect_debug=True)
        out, ddbg = decode(stream, collect_debug=True)

        np.testing.assert_array_equal(edbg.recon_centers, ddbg.recon_centers)
        assert len(edbg.part.leaves) == len(ddbg.part.leaves)
        for a, b in zip(edbg.part.leaves, ddbg.part.leaves):
            np.testing.assert_array_equal(a, b)
        assert len(edbg.chunks) == len(ddbg.chunks)
        for (ra, sa), (rb, sb) in zip(edbg.chunks, ddbg.chunks):
            assert np.array_equal(ra, rb)
            assert np.array_equal(sa.eigenvalues, sb.eigenvalues)
            assert np.array_equal(sa.basis, sb.basis)
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


class TestSymbolLayout:
    def test_payload_symbols_are_leaf_major_component_major(self):
        """Rebuild one attribute payload's symbol stream by hand, one leaf
        spectrum at a time: leaf sizes in order of first appearance, each
        size's leaves in partition order, and per leaf its quantized kept
        coefficients column by column (component-major)."""
        cloud = make_cloud(90, seed=14)
        params = CodecParams(max_leaf=16, alpha_scale=0.5)
        stream, edbg = encode(cloud, params, collect_debug=True)
        leaves = edbg.part.leaves
        sizes = [len(leaf) for leaf in leaves]
        order = sorted(range(len(sizes)), key=lambda j: sizes.index(sizes[j]))
        assert order != sorted(order)  # the sizes interleave

        centers = edbg.recon_centers
        sigma = spectral.sigma_from_box(C._box_of(centers))
        scale = canonical_order(cloud, params).scale
        expected = []
        grid = stream.attr_grids["scale"]
        for j in order:
            spec = spectral.graph_spectrum(centers[leaves[j]], sigma)
            k = spectral.clip_count(params.alpha_scale, sizes[j])
            levels = quantize(spectral.gft(spec, scale[leaves[j]])[:k], grid)
            expected.append(levels.T.ravel())
        expected = np.concatenate(expected)
        decoded = aac_decode(stream.attribute_payloads["scale"],
                             1 << params.q_scale, expected.size)
        np.testing.assert_array_equal(decoded.symbols, expected)


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
        decoded = aac_decode(stream.attribute_payloads["opacity"], 1 << 10, 64)
        assert len(decoded) == 64


class TestCorruptStreams:
    def _stream(self):
        return encode(make_cloud(150, seed=18), SMALL)

    def test_geometry_payload_tamper(self):
        """Corrupting the geometry point count contradicts the coded bucket
        stream, which carries its own count."""
        stream = self._stream()
        blob = bytearray(stream.geometry_payload)
        blob[0] ^= 0x01
        stream.geometry_payload = bytes(blob)
        with pytest.raises((CorruptPayloadError, CodecError)):
            decode(stream)

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
        from ggsc.entropy import SymbolStream, aac_encode
        forged = aac_encode(
            SymbolStream(1 << 10, np.zeros(17, dtype=np.int64))
        )
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
