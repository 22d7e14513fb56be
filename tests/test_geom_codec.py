"""Geometry section: Morton-delta coding and the external-codec hook,
with the exact bytes it writes (golden hashes and a reference packer)."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsc import geom_codec
from ggsc.entropy import (
    CorruptPayloadError,
    SymbolStream,
    aac_decode,
    aac_encode,
    classed_sections,
    pack_raw_bits,
    unpack_raw_bits,
)
from ggsc.geom_codec import (
    BUCKET_ALPHABET,
    decode_centers,
    decode_centers_external,
    encode_centers,
    encode_centers_external,
)
from ggsc.partition import LIMB_BITS, morton_limbs, morton_order

from conftest import bounded_failure
from test_partition import interleave_oracle


def sorted_geom(points, q):
    """Lattice points in Morton order, and their sorted Morton codes, as
    `codec.encode` makes them."""
    pts = np.asarray(points, dtype=np.int64)
    codes = morton_limbs(pts, q)
    order = morton_order(codes)
    return pts[order], codes[order]


def golden_geometry(q, n, seed):
    """The sorted Morton codes of seeded lattice points with repeated rows
    and, past one point, the lattice corners."""
    rng = np.random.default_rng(seed)
    top = (1 << q) - 1
    pts = rng.integers(0, 1 << q, size=(n, 3))
    if n > 1:
        pts[n // 2 :: 5] = pts[: len(pts[n // 2 :: 5])]  # duplicates
        corners = np.array([[0, 0, 0], [top, top, top], [top, 0, 0],
                            [0, top, top], [top, 0, top]])[: n // 2]
        pts[: len(corners)] = corners
    return sorted_geom(pts, q)[1]


def deinterleave_oracle(code, q):
    """Bit-at-a-time inverse of `interleave_oracle`."""
    return [sum(((code >> (3 * b + axis)) & 1) << b for b in range(q))
            for axis in range(3)]


def reference_raw_bits(values, widths):
    """The low `width` bits of each Python int, one bit at a time,
    MSB-first, packed eight to a byte and zero padded."""
    bits = [(v >> k) & 1 for v, w in zip(values, widths) for k in range(w - 1, -1, -1)]
    remainder = bytearray()
    for start in range(0, len(bits), 8):
        byte = bits[start : start + 8]
        remainder.append(int("".join(map(str, byte)).ljust(8, "0"), 2))
    return bytes(remainder)


def reference_section(codes):
    """The section written out plainly from Python-int Morton codes: one
    delta, bucket and remainder bit at a time, packed MSB-first, after
    the bucket count, the bucket bytes' length and the bucket bytes."""
    deltas = [code - prev for prev, code in zip([0] + codes, codes)]
    buckets = [delta.bit_length() for delta in deltas]
    widths = [max(b - 1, 0) for b in buckets]
    payload = aac_encode(SymbolStream(BUCKET_ALPHABET, np.array(buckets)))
    return b"".join([
        payload[:4],
        struct.pack("<I", len(payload) - 4),
        payload[4:],
        reference_raw_bits(deltas, widths),
    ])


@pytest.mark.parametrize("width", [0, 1, 16, 92])
@pytest.mark.parametrize("mixed", [False, True], ids=["equal", "mixed"])
def test_raw_bits_match_bit_at_a_time_packer(width, mixed):
    """`pack_raw_bits` writes the reference packer's bytes from 12-byte
    fields whose bits above each width are random, over enough rows for
    several chunks, and `unpack_raw_bits` gives back each row's low bits
    with zeros above them."""
    rng = np.random.default_rng(width)
    n = 3000
    values = [int(v) for v in rng.integers(0, 1 << 62, size=n)]
    values = [v << 34 | int(w) for v, w in zip(values, rng.integers(0, 1 << 34, size=n))]
    widths = rng.integers(0, width + 1, size=n) if mixed else np.full(n, width)
    fields = np.frombuffer(b"".join(v.to_bytes(12, "big") for v in values),
                           dtype=np.uint8).reshape(n, 12)
    data = pack_raw_bits(fields, widths)
    assert data == reference_raw_bits(values, widths.tolist())
    back = unpack_raw_bits(data, widths, 12, "raw bits")
    assert [int.from_bytes(row.tobytes(), "big") for row in back] == [
        v & ((1 << int(w)) - 1) for v, w in zip(values, widths)]


class TestGoldenBytes:
    """SHA-256 of sections written by the coder when these pins were
    recorded.  A change to any of them is a stream format change: bump
    `codec.VERSION` and record them again.  Each case keeps the id it
    was first recorded under, which ends in that recording's size and
    digest, so a new recording renames no case."""

    @pytest.mark.parametrize(
        "q, n, seed, size, digest",
        [
            pytest.param(1, 40, 1, 15,
                "17eac07a16dfef4390235fa51b1842860eb40773dde2ba373eded318c9363260",
                id="1-40-1-32-8bf2a6f5e6ae47a4f8861f78f9c27129c1fdb95feb787ddce5970049a59f52db"),
            pytest.param(2, 60, 2, 29,
                "1b0e8166e092ba49e8c96685e2eaaeb188f17f2875bc012a0452e4147a143b35",
                id="2-60-2-46-f5f06e5e0a79883f437b63ce1a2bdea6ed6e328594a5e809817128431fb1efde"),
            pytest.param(14, 3000, 3, 11052,
                "8bedb2aadff6b0c509a662769b58705fb7895ef3424c03d8182f2919a02782fb",
                id="14-3000-3-11069-aa08c6265210847249d3296d31f840750f69bb4da59a8f170d1cb169101eb7e6"),
            pytest.param(16, 2000, 4, 8861,
                "e9e83045f796f84e9e748ac6e9bd2b9e05c3c73ba9ce1a1b160c6311de91d7d1",
                id="16-2000-4-8878-84319779adb57b1cb945a8c25edb5fa5f2cd3b245a7252481556d9a83ea67aa4"),
            pytest.param(21, 2000, 5, 12244,
                "e58d580b4fee02a6a1b632d26d7b1efddc3bb3c7c212323b059999272a3efa20",
                id="21-2000-5-12261-a35eaee5a0d055d93675edc46d96b2dae9d594a5b258f6a04eaed11b1ca3f693"),
            pytest.param(22, 2000, 6, 12919,
                "2e9cbecfcd9fa593da718dcff0b3903d989293945305c2d25d4f5740270e4ee1",
                id="22-2000-6-12936-de84b50a71799f7cc7a7384648391d9998bd839ed8196691df55ee012b80680d"),
            pytest.param(25, 1500, 7, 11297,
                "1999c3b4bea244160f7aef41fe8f73b975a9a0087c5e3a1da952816ce74756f3",
                id="25-1500-7-11314-c47e0929e8e68c8e707635f72693238b2481880a185b2f33d29eda7a33d026c3"),
            pytest.param(31, 1500, 8, 14341,
                "0fd2ed04a5daa675100b7dddb1507b76f6b3b4f45ecb9a596b4eaa06b0c5a1cb",
                id="31-1500-8-14357-6728fdbf899cf0fa7fb168ef193ae45c4280e74a13cb68a56c1198e0c2c30dd2"),
            # One point: the whole section is the first code.
            pytest.param(31, 1, 9, 21,
                "40a96df7a94119618b3ad906c2a8abaac6a90abbb775fbcdb09ec3d85629dbe1",
                id="31-1-9-38-aa10f1a1dcaa0a2da8d0a8883202e95b21722628042868c7f1453bf843cfe33a"),
            pytest.param(1, 1, 10, 10,
                "7d0c30fd254895f39a6fe26a8e2fe6670a211a59db8ba2bcfa71741672f3b4ce",
                id="1-1-10-27-b7ee80c64964dd5cbd0e53d9367134ea2a4d71ce71be22e490b1671d15772a52"),
        ],
    )
    def test_section_hash(self, q, n, seed, size, digest):
        payload = encode_centers(golden_geometry(q, n, seed))
        assert len(payload) == size
        assert hashlib.sha256(payload).hexdigest() == digest


@st.composite
def morton_codes_near_limbs(draw):
    """(q, sorted codes) whose values and deltas sit on or next to powers
    of two, 24-bit limb and 48-bit key-split boundaries among them."""
    q = draw(st.integers(1, 31))
    width = 3 * q
    near_pow2 = st.builds(
        lambda k, e: max((1 << k) + e, 0),
        st.sampled_from([k for k in (1, 8, 23, 24, 25, 47, 48, 49, 71, 72, 73)
                         if k < width] or [0]),
        st.integers(-2, 2),
    )
    value = st.one_of(st.integers(0, 3), near_pow2,
                      st.integers(0, (1 << width) - 1))
    codes = [draw(value) % (1 << width)]
    for delta in draw(st.lists(value, max_size=40)):
        if codes[-1] + delta >= 1 << width:
            break
        codes.append(codes[-1] + delta)
    return q, codes


@settings(max_examples=150, deadline=None)
@given(case=morton_codes_near_limbs())
def test_matches_reference_packer(case):
    """Bytes equal to the bit-at-a-time reference section, and lossless."""
    q, codes = case
    points = np.array([deinterleave_oracle(c, q) for c in codes], dtype=np.int64)
    payload = encode_centers(morton_limbs(points, q))
    assert payload == reference_section(codes)
    out = decode_centers(payload, q, len(codes))
    np.testing.assert_array_equal(out, points)


class TestRoundTrip:
    def test_single_origin_point(self):
        out = decode_centers(encode_centers(morton_limbs(np.array([[0, 0, 0]]), 8)), 8, 1)
        np.testing.assert_array_equal(out, [[0, 0, 0]])

    def test_full_grid_compresses_hard(self):
        """Every cell of the 8x8x8 lattice: deltas collapse to 1, payload
        must land well under a quarter of the 512*3*3-bit raw encoding."""
        cells = np.stack(np.meshgrid(*[np.arange(8)] * 3, indexing="ij"),
                         axis=-1).reshape(-1, 3)
        points, codes = sorted_geom(cells, 3)
        payload = encode_centers(codes)
        raw_bytes = 512 * 3 * 3 / 8
        assert len(payload) < raw_bytes / 4
        out = decode_centers(payload, 3, 512)
        np.testing.assert_array_equal(out, points)

    def test_random_points_with_duplicates(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 2**12, size=(10**4, 3))
        pts[5000:5100] = pts[:100]  # force duplicates
        points, codes = sorted_geom(pts, 12)
        out = decode_centers(encode_centers(codes), 12, len(points))
        np.testing.assert_array_equal(out, points)

    def test_duplicates_carry_multiplicity(self):
        pts = np.array([[3, 1, 4]] * 5 + [[3, 1, 5]] * 2)
        points, codes = sorted_geom(pts, 4)
        out = decode_centers(encode_centers(codes), 4, len(points))
        assert len(out) == 7
        np.testing.assert_array_equal(out, points)

    def test_deep_lattice_round_trip(self):
        """q = 25: codes wider than 64 bits, with every limb in use."""
        rng = np.random.default_rng(1)
        pts = rng.integers(0, 2**25, size=(500, 3))
        points, codes = sorted_geom(pts, 25)
        out = decode_centers(encode_centers(codes), 25, len(points))
        np.testing.assert_array_equal(out, points)

    def test_extreme_corner_points(self):
        q = 21
        top = (1 << q) - 1
        pts = np.array([[0, 0, 0], [top, top, top], [top, 0, top]])
        points, codes = sorted_geom(pts, q)
        out = decode_centers(encode_centers(codes), q, len(points))
        np.testing.assert_array_equal(out, points)

    def test_unsorted_input_rejected(self):
        codes = morton_limbs(np.array([[7, 7, 7], [0, 0, 0]]), 3)
        with pytest.raises(ValueError, match="Morton"):
            encode_centers(codes)

    @pytest.mark.parametrize("codes", [
        np.zeros((2, 3), dtype=np.int64),
        np.zeros((2, 5), dtype=np.int64),
        np.zeros(4, dtype=np.int64),
        np.zeros((2, 4)),
    ], ids=["three-limbs", "five-limbs", "flat", "float"])
    def test_codes_not_integer_limbs_rejected(self, codes):
        with pytest.raises(ValueError, match="integer limbs"):
            encode_centers(codes)

    @pytest.mark.parametrize("limb", [-1, 1 << LIMB_BITS])
    def test_limb_out_of_range_rejected(self, limb):
        """A limb outside [0, 2^24) is refused: one of 2^24 would pass
        the order check and code the wrong delta."""
        codes = np.zeros((2, 4), dtype=np.int64)
        codes[1, 0] = limb
        with pytest.raises(ValueError, match="limbs must lie"):
            encode_centers(codes)


class TestPythonKernelWidth:
    def test_decode_centers_through_python_body(self):
        """Multi-byte remainders made of bytes >= 0x80 must decode exactly:
        a bit reader that kept a uint8 accumulator (numpy 2 promotion)
        would lose their high bits."""
        # Sparse points on a 2^12 lattice: Morton deltas of 20+ bits, so
        # every remainder spans several bytes.
        rng = np.random.default_rng(21)
        points, codes = sorted_geom(rng.integers(0, 1 << 12, size=(40, 3)), 12)
        payload = encode_centers(codes)
        assert max(payload[-8:]) >= 0x80  # remainder bytes end the section
        back = decode_centers(payload, 12, len(points))
        np.testing.assert_array_equal(back, points)


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
        payload = encode_centers(morton_limbs(np.array(pts), q))
        n, blen = struct.unpack_from("<II", payload, 0)
        assert n == 4
        buckets = aac_decode(payload[:4] + payload[8 : 8 + blen], BUCKET_ALPHABET, 4).symbols
        np.testing.assert_array_equal(buckets, [3, 0, 1, 4])
        remainder = payload[8 + blen :]
        assert remainder == bytes([0b01000000])
        out = decode_centers(payload, q, 4)
        np.testing.assert_array_equal(out, pts)

    def test_payload_length_accounts_exactly(self):
        """8 bytes of framing, the bucket bytes, and the remainder bits the
        buckets imply, zero padded to a byte."""
        rng = np.random.default_rng(2)
        pts = rng.integers(0, 2**10, size=(400, 3))
        payload = encode_centers(sorted_geom(pts, 10)[1])
        (blen,) = struct.unpack_from("<I", payload, 4)
        buckets = aac_decode(payload[:4] + payload[8 : 8 + blen], BUCKET_ALPHABET, 400).symbols
        nbits = int(np.maximum(buckets - 1, 0).sum())
        assert nbits % 8
        assert len(payload) == 8 + blen + (nbits + 7) // 8


class TestCorruption:
    def _payload(self):
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 2**8, size=(300, 3))
        return encode_centers(sorted_geom(pts, 8)[1])

    def test_empty_payload(self):
        with pytest.raises(CorruptPayloadError):
            decode_centers(b"", 8, 300)

    def test_header_truncations(self):
        payload = self._payload()
        for keep in (1, 4, 8, 12, len(payload) // 2, len(payload) - 1):
            with pytest.raises(CorruptPayloadError):
                decode_centers(payload[:keep], 8, 300)

    def test_trailing_garbage(self):
        payload = self._payload()
        with pytest.raises(CorruptPayloadError):
            decode_centers(payload + b"\x00", 8, 300)

    def test_nonzero_remainder_padding(self):
        payload = bytearray(self._payload())
        coded, _ = classed_sections(bytes(payload))
        buckets = aac_decode(coded, BUCKET_ALPHABET, 300).symbols
        assert int(np.maximum(buckets - 1, 0).sum()) % 8
        payload[-1] |= 1  # a padding bit of the final byte
        with pytest.raises(CorruptPayloadError, match="nonzero padding"):
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
        """2^32 - 1 points, or 2^32 - 1 bucket bytes, are refused on the
        container's count and the section's length, before decoding."""
        payload = self._payload()
        many = struct.pack("<I", 2**32 - 1)
        with bounded_failure(seconds=0.5, bytes_=1 << 20):
            decode_centers(many + payload[4:], 8, 300)
        with bounded_failure(seconds=0.5, bytes_=1 << 20):
            decode_centers(payload[:4] + many + payload[8:], 8, 300)

    def test_bucket_overflow_rejected(self):
        """A bucket claiming more bits than the lattice width is framing
        corruption even if the arithmetic payload itself is canonical."""
        payload = bytearray(encode_centers(morton_limbs(np.array([[0, 0, 0], [1, 0, 0]]), 2)))
        # re-code the bucket stream with an oversized bucket
        forged_buckets = aac_encode(
            SymbolStream(BUCKET_ALPHABET, np.array([90, 0], dtype=np.int64))
        )
        _, raw = classed_sections(bytes(payload))
        forged = (forged_buckets[:4] + struct.pack("<I", len(forged_buckets) - 4)
                  + forged_buckets[4:] + raw)
        with pytest.raises(CorruptPayloadError, match="lattice code width"):
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
        points, _ = sorted_geom(rng.integers(0, 2**6, size=(50, 3)), 6)
        payload = encode_centers_external(points, cmd)
        assert payload.startswith(b"ply\n")  # the tool's output, verbatim
        out = decode_centers_external(payload, 6, cmd, len(points))
        np.testing.assert_array_equal(out, points)
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
        points, _ = sorted_geom(rng.integers(0, 2**6, size=(40, 3)), 6)
        payload = encode_centers_external(points, encode_cmd)
        out = decode_centers_external(payload, 6, decode_cmd, len(points))
        np.testing.assert_array_equal(out, points)

    def test_failing_tool_raises(self, tmp_path):
        cmd = self._script(tmp_path, "import sys\nsys.exit(3)\n")
        with pytest.raises(RuntimeError, match="external"):
            encode_centers_external(np.array([[1, 2, 3]]), cmd)

    @pytest.mark.parametrize("side", ["encode", "decode"])
    def test_blank_command_raises_before_any_file(self, monkeypatch, side):
        """A command that splits to no argv is refused by name, before a
        temporary file is written."""
        def no_files(*args, **kwargs):
            raise AssertionError("temporary directory made")

        monkeypatch.setattr(geom_codec.tempfile, "TemporaryDirectory", no_files)
        with pytest.raises(ValueError, match=r"' \\t ' names no program"):
            if side == "encode":
                encode_centers_external(np.array([[1, 2, 3]]), " \t ")
            else:
                decode_centers_external(b"x", 4, " \t ", 1)

    def test_garbage_output_raises(self, tmp_path):
        cmd = self._script(
            tmp_path,
            "import sys\nopen(sys.argv[2], 'w').write('not a ply at all')\n",
        )
        payload = encode_centers_external(np.array([[1, 2, 3]]), "python3 -c "
                                           "'import sys, shutil; shutil.copy(sys.argv[1], sys.argv[2])' "
                                           "{in} {out}")
        with pytest.raises(CorruptPayloadError):
            decode_centers_external(payload, 4, cmd, 1)

    @pytest.mark.parametrize(
        "body",
        ["", "a b c\n", "1 2\n3 4 5\n", "# 1 2 3\n", "16 0 0\n",
         "-1 0 0\n", "1e30 0 0\n", "nan 0 0\n", "1.5 0 0\n"],
        ids=["empty", "text", "short-row", "comment", "off-lattice",
             "negative", "huge", "nan", "fractional"],
    )
    def test_malformed_points_raise(self, tmp_path, body):
        """Whatever the external decoder emits after its header, only
        coordinates on the lattice decode; all else is corrupt."""
        out = tmp_path / "points.ply"
        out.write_text("ply\nformat ascii 1.0\nend_header\n" + body)
        cmd = self._script(
            tmp_path, f"import sys, shutil\nshutil.copy({str(out)!r}, sys.argv[2])\n"
        )
        with pytest.raises(CorruptPayloadError):
            decode_centers_external(b"x", 4, cmd, 1)
