"""Geometry section: Morton-delta coding and the external-codec hook."""

import struct

import numpy as np
import pytest

from ggsc import geom_codec
from ggsc.entropy import CorruptPayloadError, aac_decode
from ggsc.geom_codec import (
    BUCKET_ALPHABET,
    EXTERNAL_TAG,
    QuantizedGeometry,
    decode_centers,
    decode_centers_external,
    encode_centers,
    encode_centers_external,
)
from ggsc.partition import morton_order

from test_entropy import bounded_failure
from test_partition import interleave_oracle


def sorted_geom(points, q):
    pts = np.asarray(points, dtype=np.int64)
    return QuantizedGeometry(q=q, points=pts[morton_order(pts, q)])


class TestQuantizedGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuantizedGeometry(q=0, points=np.zeros((1, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            QuantizedGeometry(q=32, points=np.zeros((1, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            QuantizedGeometry(q=4, points=np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            QuantizedGeometry(q=4, points=np.zeros((1, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            QuantizedGeometry(q=4, points=np.zeros((1, 3)))  # floats
        with pytest.raises(ValueError):
            QuantizedGeometry(q=4, points=np.array([[0, 16, 0]]))
        with pytest.raises(ValueError):
            QuantizedGeometry(q=4, points=np.array([[0, -1, 0]]))

    def test_len(self):
        geom = QuantizedGeometry(q=4, points=np.zeros((7, 3), dtype=np.int64))
        assert len(geom) == 7


class TestRoundTrip:
    def test_single_origin_point(self):
        geom = QuantizedGeometry(q=8, points=np.array([[0, 0, 0]]))
        out = decode_centers(encode_centers(geom), 8, 1)
        np.testing.assert_array_equal(out.points, [[0, 0, 0]])

    def test_full_grid_compresses_hard(self):
        """Every cell of the 8x8x8 lattice: deltas collapse to 1, payload
        must land well under a quarter of the 512*3*3-bit raw encoding."""
        cells = np.stack(np.meshgrid(*[np.arange(8)] * 3, indexing="ij"),
                         axis=-1).reshape(-1, 3)
        geom = sorted_geom(cells, 3)
        payload = encode_centers(geom)
        raw_bytes = 512 * 3 * 3 / 8
        assert len(payload) < raw_bytes / 4
        out = decode_centers(payload, 3, 512)
        np.testing.assert_array_equal(out.points, geom.points)

    def test_random_points_with_duplicates(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 2**12, size=(10**4, 3))
        pts[5000:5100] = pts[:100]  # force duplicates
        geom = sorted_geom(pts, 12)
        out = decode_centers(encode_centers(geom), 12, len(geom))
        np.testing.assert_array_equal(out.points, geom.points)

    def test_duplicates_carry_multiplicity(self):
        pts = np.array([[3, 1, 4]] * 5 + [[3, 1, 5]] * 2)
        geom = sorted_geom(pts, 4)
        out = decode_centers(encode_centers(geom), 4, len(geom))
        assert len(out) == 7
        np.testing.assert_array_equal(out.points, geom.points)

    def test_deep_lattice_round_trip(self):
        """q = 25 exceeds the 21-bit vectorized key path and exercises the
        big-integer fallback on both sides."""
        rng = np.random.default_rng(1)
        pts = rng.integers(0, 2**25, size=(500, 3))
        geom = sorted_geom(pts, 25)
        out = decode_centers(encode_centers(geom), 25, len(geom))
        np.testing.assert_array_equal(out.points, geom.points)

    def test_extreme_corner_points(self):
        q = 21
        top = (1 << q) - 1
        pts = np.array([[0, 0, 0], [top, top, top], [top, 0, top]])
        geom = sorted_geom(pts, q)
        out = decode_centers(encode_centers(geom), q, len(geom))
        np.testing.assert_array_equal(out.points, geom.points)

    def test_unsorted_input_rejected(self):
        pts = np.array([[7, 7, 7], [0, 0, 0]])
        geom = QuantizedGeometry(q=3, points=pts)
        with pytest.raises(ValueError, match="Morton"):
            encode_centers(geom)


class TestPythonKernelWidth:
    def test_decode_centers_through_python_body(self, monkeypatch):
        """`_unpack_deltas` must rebuild multi-byte remainders from bytes
        >= 0x80 in its plain-Python body: a uint8 remainder element would
        keep the accumulator in uint8 under numpy 2 promotion, so
        `decode_centers` widens the bytes first.  The Python body is
        forced so this runs with numba installed too."""
        # Sparse points on a 2^12 lattice: Morton deltas of 20+ bits, so
        # every remainder spans several bytes.
        rng = np.random.default_rng(21)
        geom = sorted_geom(rng.integers(0, 1 << 12, size=(40, 3)), 12)
        payload = encode_centers(geom)
        assert max(payload[-8:]) >= 0x80  # remainder bytes end the section
        kernel = geom_codec._unpack_deltas
        monkeypatch.setattr(geom_codec, "_unpack_deltas",
                            getattr(kernel, "py_func", kernel))
        back = decode_centers(payload, geom.q, len(geom))
        np.testing.assert_array_equal(back.points, geom.points)


class TestSectionLayout:
    def test_handmade_bucket_and_remainder_bits(self):
        """Fixed tiny example checked field by field against hand-computed
        deltas: codes [5, 5, 6, 14] -> deltas [5, 0, 1, 8] -> buckets
        [3, 0, 1, 4], packed remainders 01 + 000 = 5 bits."""
        codes = [5, 5, 6, 14]
        q = 2
        pts = []
        for code in codes:
            x = y = z = 0
            for b in range(q):
                x |= ((code >> (3 * b)) & 1) << b
                y |= ((code >> (3 * b + 1)) & 1) << b
                z |= ((code >> (3 * b + 2)) & 1) << b
            pts.append([x, y, z])
            assert interleave_oracle(x, y, z, q) == code
        geom = QuantizedGeometry(q=q, points=np.array(pts, dtype=np.int64))

        payload = encode_centers(geom)
        n, q_stored = struct.unpack_from("<IB", payload, 0)
        assert (n, q_stored) == (4, 2)
        (blen,) = struct.unpack_from("<I", payload, 5)
        buckets = aac_decode(payload[9 : 9 + blen], BUCKET_ALPHABET, 4).symbols
        np.testing.assert_array_equal(buckets, [3, 0, 1, 4])
        (nbits,) = struct.unpack_from("<Q", payload, 9 + blen)
        assert nbits == 5
        remainder = payload[9 + blen + 8 :]
        assert remainder == bytes([0b01000000])
        out = decode_centers(payload, q, 4)
        np.testing.assert_array_equal(out.points, geom.points)

    def test_payload_length_accounts_exactly(self):
        rng = np.random.default_rng(2)
        pts = rng.integers(0, 2**10, size=(400, 3))
        geom = sorted_geom(pts, 10)
        payload = encode_centers(geom)
        (blen,) = struct.unpack_from("<I", payload, 5)
        (nbits,) = struct.unpack_from("<Q", payload, 9 + blen)
        assert len(payload) == 9 + blen + 8 + (nbits + 7) // 8


class TestCorruption:
    def _payload(self):
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 2**8, size=(300, 3))
        geom = sorted_geom(pts, 8)
        return encode_centers(geom)

    def test_empty_payload(self):
        with pytest.raises(CorruptPayloadError):
            decode_centers(b"", 8, 300)

    def test_header_truncations(self):
        payload = self._payload()
        for keep in (1, 4, 8, 12, len(payload) // 2, len(payload) - 1):
            with pytest.raises(CorruptPayloadError):
                decode_centers(payload[:keep], 8, 300)

    def test_zero_point_count(self):
        payload = bytearray(self._payload())
        payload[0:4] = struct.pack("<I", 0)
        with pytest.raises(CorruptPayloadError, match="zero points"):
            decode_centers(bytes(payload), 8, 0)

    def test_q_mismatch(self):
        payload = self._payload()
        with pytest.raises(CorruptPayloadError, match="q=8"):
            decode_centers(payload, 9, 300)

    def test_trailing_garbage(self):
        payload = self._payload()
        with pytest.raises(CorruptPayloadError):
            decode_centers(payload + b"\x00", 8, 300)

    def test_nonzero_remainder_padding(self):
        payload = bytearray(self._payload())
        (blen,) = struct.unpack_from("<I", payload, 5)
        (nbits,) = struct.unpack_from("<Q", bytes(payload), 9 + blen)
        if nbits % 8:  # flip a padding bit in the final byte
            payload[-1] |= 1
            with pytest.raises(CorruptPayloadError):
                decode_centers(bytes(payload), 8, 300)

    def test_point_count_tamper(self):
        payload = bytearray(self._payload())
        payload[0:4] = struct.pack("<I", 299)
        with pytest.raises(CorruptPayloadError):
            decode_centers(bytes(payload), 8, 299)

    def test_point_count_differs_from_container(self):
        payload = self._payload()
        assert len(decode_centers(payload, 8, 300)) == 300
        with pytest.raises(CorruptPayloadError, match="header says 299"):
            decode_centers(payload, 8, 299)

    def test_huge_counts_rejected_before_decoding(self):
        """2^32 - 1 points, or 2^32 - 1 coded buckets, are refused on the
        counts the caller and the section header give, before decoding."""
        payload = self._payload()
        many = struct.pack("<I", 2**32 - 1)
        with bounded_failure(seconds=0.5, bytes_=1 << 20):
            decode_centers(many + payload[4:], 8, 300)
        with bounded_failure(seconds=0.5, bytes_=1 << 20):
            decode_centers(payload[:9] + many + payload[13:], 8, 300)

    def test_bucket_overflow_rejected(self):
        """A bucket claiming more bits than the lattice width is framing
        corruption even if the arithmetic payload itself is canonical."""
        geom = QuantizedGeometry(q=2, points=np.array([[0, 0, 0], [1, 0, 0]]))
        payload = bytearray(encode_centers(geom))
        # re-code the bucket stream with an oversized bucket
        from ggsc.entropy import SymbolStream, aac_encode
        forged_buckets = aac_encode(
            SymbolStream(BUCKET_ALPHABET, np.array([90, 0], dtype=np.int64))
        )
        (old_blen,) = struct.unpack_from("<I", bytes(payload), 5)
        rest = bytes(payload)[9 + old_blen:]
        forged = bytes(payload)[:5] + struct.pack("<I", len(forged_buckets)) \
            + forged_buckets + rest
        with pytest.raises(CorruptPayloadError):
            decode_centers(forged, 2, 2)


class TestExternalHook:
    def _script(self, tmp_path, body):
        path = tmp_path / "tool.py"
        path.write_text(body)
        return f"python3 {path} {{in}} {{out}}"

    def test_passthrough_tool_round_trips(self, tmp_path):
        cmd = self._script(
            tmp_path,
            "import sys, shutil\nshutil.copy(sys.argv[1], sys.argv[2])\n",
        )
        rng = np.random.default_rng(4)
        geom = sorted_geom(rng.integers(0, 2**6, size=(50, 3)), 6)
        payload = encode_centers_external(geom, cmd)
        tag, length = struct.unpack_from("<BI", payload, 0)
        assert tag == EXTERNAL_TAG
        assert len(payload) == 5 + length
        out = decode_centers_external(payload, 6, cmd, len(geom))
        np.testing.assert_array_equal(out.points, geom.points)
        with pytest.raises(CorruptPayloadError, match="header says 49"):
            decode_centers_external(payload, 6, cmd, 49)

    def test_decoder_restores_morton_order(self, tmp_path):
        """External tools may emit points in any order; the section decode
        re-sorts, so a line-reversing tool still round-trips."""
        encode_cmd = self._script(
            tmp_path,
            "import sys, shutil\nshutil.copy(sys.argv[1], sys.argv[2])\n",
        )
        reverse = tmp_path / "rev.py"
        reverse.write_text(
            "import sys\n"
            "lines = open(sys.argv[1]).read().splitlines()\n"
            "split = lines.index('end_header') + 1\n"
            "out = lines[:split] + lines[split:][::-1]\n"
            "open(sys.argv[2], 'w').write('\\n'.join(out) + '\\n')\n"
        )
        decode_cmd = f"python3 {reverse} {{in}} {{out}}"
        rng = np.random.default_rng(5)
        geom = sorted_geom(rng.integers(0, 2**6, size=(40, 3)), 6)
        payload = encode_centers_external(geom, encode_cmd)
        out = decode_centers_external(payload, 6, decode_cmd, len(geom))
        np.testing.assert_array_equal(out.points, geom.points)

    def test_failing_tool_raises(self, tmp_path):
        cmd = self._script(tmp_path, "import sys\nsys.exit(3)\n")
        geom = QuantizedGeometry(q=4, points=np.array([[1, 2, 3]]))
        with pytest.raises(RuntimeError, match="external"):
            encode_centers_external(geom, cmd)

    def test_garbage_output_raises(self, tmp_path):
        cmd = self._script(
            tmp_path,
            "import sys\nopen(sys.argv[2], 'w').write('not a ply at all')\n",
        )
        geom = QuantizedGeometry(q=4, points=np.array([[1, 2, 3]]))
        payload = encode_centers_external(geom, "python3 -c "
                                           "'import sys, shutil; shutil.copy(sys.argv[1], sys.argv[2])' "
                                           "{in} {out}")
        with pytest.raises(CorruptPayloadError):
            decode_centers_external(payload, 4, cmd, 1)

    def test_framing_validation(self):
        with pytest.raises(CorruptPayloadError):
            decode_centers_external(b"\x01", 4, "true", 1)
        bogus = struct.pack("<BI", 2, 0)
        with pytest.raises(CorruptPayloadError):
            decode_centers_external(bogus, 4, "true", 1)
        short = struct.pack("<BI", EXTERNAL_TAG, 10) + b"abc"
        with pytest.raises(CorruptPayloadError):
            decode_centers_external(short, 4, "true", 1)
