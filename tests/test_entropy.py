"""Adaptive range coder: losslessness, framing, corruption behavior,
and the exact bytes it writes (golden hashes and a reference model)."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsc import codec, entropy
from ggsc.entropy import (
    MAX_ALPHABET,
    MIN_ALPHABET,
    CorruptPayloadError,
    SymbolStream,
    aac_decode,
    aac_encode,
    classed_payload,
    classed_sections,
    classed_values,
    empirical_entropy_bits,
    pack_raw_bits,
    unpack_raw_bits,
)
from ggsc.partition import LIMB_BITS
from ggsc.quantizer import QuantGrid

from conftest import bounded_failure


def stream(symbols, alphabet):
    return SymbolStream(alphabet, np.asarray(symbols, dtype=np.int64))


def golden_symbols(alphabet, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.3, size=n) - 1) % alphabet


def reference_encode(symbols, alphabet, contexts=None):
    """The coder written out plainly: counts in a list whose sums are taken
    per symbol (O(alphabet)), one list per context; each pair of symbols
    narrows the interval once, by the product of their probabilities, the
    second taken after the first's update, and an odd last symbol alone;
    a context whose total passes the rescale limit halves after the pair.
    `low` is an unbounded int that only ever shifts, so a carry needs no
    code; the bytes are taken once, at the end.  Reads
    `entropy.RESCALE_LIMIT` at call time, like the coder, so both can be
    run with a lowered limit."""
    if contexts is None:
        contexts = [0] * len(symbols)
    models = {}
    low, rng, shifts = 0, 1 << 88, 0
    for i in range(0, len(symbols), 2):
        cum, freq, total = 0, 1, 1
        step = [(int(s), int(c)) for s, c in zip(symbols[i : i + 2], contexts[i : i + 2])]
        for s, ctx in step:
            counts = models.setdefault(ctx, [entropy.COUNT_INIT] * alphabet)
            t = sum(counts)
            cum, freq, total = cum * t + sum(counts[:s]) * freq, freq * counts[s], total * t
            counts[s] += entropy.COUNT_INCREMENT
        for ctx in {ctx for _, ctx in step}:
            if sum(models[ctx]) > entropy.RESCALE_LIMIT:
                models[ctx][:] = [(c + 1) >> 1 for c in models[ctx]]
        r = rng // total
        low += r * cum
        rng = r * freq
        while rng < 1 << 80:
            low <<= 8
            rng <<= 8
            shifts += 1
    body = b""
    if len(symbols):
        # The smallest multiple of 2^80 at or above low, less its 10 zero
        # bytes: one byte per shift plus one.
        body = (-(-low >> 80)).to_bytes(shifts + 1, "big")
    return struct.pack("<I", len(symbols)) + body


def _scan(counts, target):
    """The symbol whose cumulative interval holds `target`, and its
    cumulative count, by a linear scan."""
    s, cum = 0, 0
    while cum + counts[s] <= target:
        cum += counts[s]
        s += 1
    return s, cum


def plain_decode(body, alphabet, count, contexts=None):
    """The decoder written out plainly and without any check: `code` and
    `low` unbounded ints, bytes past the end read as zero, and a value past
    the last step's interval taken as its last pair.  Whatever bytes it is
    given, it returns `count` symbols."""
    if contexts is None:
        contexts = [0] * count
    models = {}
    code = int.from_bytes(body[:11].ljust(11, b"\0"), "big")
    low, rng, pos = 0, 1 << 88, 11
    out = []
    for i in range(0, count, 2):
        ctx = [int(c) for c in contexts[i : i + 2]]
        lists = [models.setdefault(c, [entropy.COUNT_INIT] * alphabet) for c in ctx]
        t1 = sum(lists[0])
        # The second symbol's total counts the first's update.
        t2 = sum(lists[1]) + entropy.COUNT_INCREMENT * (ctx[1] == ctx[0]) if len(ctx) == 2 else 1
        r = rng // (t1 * t2)
        value = min((code - low) // r, t1 * t2 - 1)
        s1, c1 = _scan(lists[0], value // t2)
        f1 = lists[0][s1]
        lists[0][s1] += entropy.COUNT_INCREMENT
        cum, freq = c1 * t2, f1
        out.append(s1)
        if len(ctx) == 2:
            s2, c2 = _scan(lists[1], (value - cum) // f1)
            cum, freq = cum + c2 * f1, f1 * lists[1][s2]
            lists[1][s2] += entropy.COUNT_INCREMENT
            out.append(s2)
        for c in set(ctx):
            if sum(models[c]) > entropy.RESCALE_LIMIT:
                models[c][:] = [(n + 1) >> 1 for n in models[c]]
        low += r * cum
        rng = r * freq
        while rng < 1 << 80:
            code = (code << 8) | (body[pos] if pos < len(body) else 0)
            low <<= 8
            rng <<= 8
            pos += 1
    return np.array(out, dtype=np.int64)


def reencode_oracle(payload, alphabet, count, contexts=None):
    """The symbols of `payload` if it is the canonical encoding of what
    `plain_decode` makes of it, else None: decode, then re-encode and
    compare bytes, the check the decoder's loop replaces."""
    if len(payload) < 4 or struct.unpack_from("<I", payload)[0] != count:
        return None
    symbols = plain_decode(payload[4:], alphabet, count, contexts)
    if aac_encode(stream(symbols, alphabet), contexts) != payload:
        return None
    return symbols


class TestSymbolStream:
    def test_alphabet_bounds(self):
        assert MIN_ALPHABET == 2 and MAX_ALPHABET == 65536
        stream([], 2)
        stream([], 65536)
        with pytest.raises(ValueError):
            stream([], 1)
        with pytest.raises(ValueError):
            stream([], 65537)

    def test_symbol_range_checked(self):
        stream([0, 255], 256)
        with pytest.raises(ValueError):
            stream([256], 256)
        with pytest.raises(ValueError):
            stream([-1], 256)

    def test_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            SymbolStream(4, np.zeros((2, 2), dtype=np.int64))

    def test_len(self):
        assert len(stream([1, 2, 3], 8)) == 3


class TestFraming:
    def test_empty_stream_is_count_header_only(self):
        payload = aac_encode(stream([], 256))
        assert payload == b"\x00\x00\x00\x00"
        out = aac_decode(payload, 256, 0)
        assert len(out) == 0

    def test_count_header_is_little_endian_u32(self):
        payload = aac_encode(stream([5, 5, 5], 16))
        assert struct.unpack_from("<I", payload, 0)[0] == 3

    def test_single_zero_round_trip(self):
        payload = aac_encode(stream([0], 2))
        out = aac_decode(payload, 2, 1)
        np.testing.assert_array_equal(out.symbols, [0])

    def test_encoding_is_deterministic(self):
        s = stream(np.random.default_rng(0).integers(0, 100, 5000), 128)
        assert aac_encode(s) == aac_encode(s)


class TestPythonKernelWidth:
    def test_aac_decode_through_python_body(self):
        """Payload bytes >= 0x80 decode exactly: the byte reader must not
        keep any register in a narrow integer type (a uint8 byte would keep
        the 88-bit code window in uint8 under numpy 2 scalar promotion)."""
        symbols = np.arange(64, dtype=np.int64) % 7 + 1
        payload = aac_encode(stream(symbols, 8))
        assert max(payload[4:]) >= 0x80
        out = aac_decode(payload, 8, len(symbols))
        np.testing.assert_array_equal(out.symbols, symbols)


@pytest.mark.parametrize("alphabet", [2, 3, 5, 128, 1000, 1024, 65535, 65536])
def test_fenwick_matches_definition(alphabet):
    """Entry i of the decoder's tree, from 1, sums the counts over
    (i - (i & -i), i]; past the alphabet, up to twice the top power of two
    at or below it, come sentinels above any total a model reaches.  For
    the uniform counts a model starts from and for halved random counts,
    as after a rescale."""
    rng = np.random.default_rng(alphabet)
    halved = ((rng.integers(1, 1 << 20, size=alphabet) + 1) >> 1).tolist()
    top_bit = 1 << (alphabet.bit_length() - 1)
    i = np.arange(1, alphabet + 1)
    for counts in ([entropy.COUNT_INIT] * alphabet, halved):
        tree = entropy._fenwick(counts)
        prefix = np.concatenate([[0], np.cumsum(counts)])
        assert tree[0] == 0
        assert tree[1 : alphabet + 1] == (prefix[i] - prefix[i - (i & -i)]).tolist()
        sentinels = tree[alphabet + 1 :]
        assert len(sentinels) == (alphabet != top_bit) * (2 * top_bit - alphabet - 1)
        assert all(t > entropy.RESCALE_LIMIT + entropy.COUNT_INCREMENT for t in sentinels)


class TestGoldenBytes:
    """SHA-256 of payloads written by the coder when these pins were
    recorded.  A change to any of them is a stream format change: bump
    `codec.VERSION` and record them again.  Each case keeps the id it
    was first recorded under, which ends in that recording's size and
    digest, so a new recording renames no case."""

    @pytest.mark.parametrize(
        "alphabet, n, seed, size, digest",
        [
            pytest.param(2, 3000, 1, 372,
                "68465925639bf520feaf7e594ee5fb7ce7508b2894b1ca8712a22cfec0b50f7d",
                id="2-3000-1-375-2b34eaa1beac62cbb4bb36320d4e53033b78ee05d132ba4b4ecdb37415f84fb2"),
            pytest.param(128, 3000, 2, 2044,
                "70577dc5bcd1e3702b6a9aed8bf80581445f2ed38ebbc5dd4f2c9295929a1b48",
                id="128-3000-2-2048-d8de3daab6c26696cb916d0a528b4949859c13cd1edb3f1c2bf7670d73b6864a"),
            pytest.param(1024, 3000, 3, 2487,
                "a1c69f663d68d6fa8bab8d6b7f856e198662fea0ef0158f64c96a54d381eef03",
                id="1024-3000-3-2491-29c1718daf676de4dd90700fdc0118dd9f6eb8e26363001ed99bf959e2e95eec"),
            pytest.param(65536, 3000, 4, 3194,
                "f1c6eb1986aa53b92ffb8b5b4f031c21eb66935d32ab5b84b66535f3eb5e08a8",
                id="65536-3000-4-3198-ff27edf1f88db94f7f7ba540f0b93ee294065d0a2a22cee1853348b10288682c"),
            # 700k symbols push the model total past RESCALE_LIMIT once.
            pytest.param(64, 700_000, 5, 415762,
                "dd30d574d35c3a34f2328504a1f1fd1015482d91708f5b0c423c779acc8454de",
                id="64-700000-5-415766-899d5b9c029fb379b5f447966fa7539b5bc72b48d9c52cace8cfe79008c055c0"),
            pytest.param(256, 0, 6, 4,
                "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
                id="256-0-6-4-df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"),
            pytest.param(2, 1, 7, 5,
                "957b88b12730e646e0f33d3618b77dfa579e8231e3c59c7104be7165611c8027",
                id="2-1-7-9-a536aa3cede6ea3c1f3e0357c3c60e0f216a8c89b853df13b29daa8f85065dfb"),
            pytest.param(65536, 1, 8, 6,
                "9dc38f619e3cdfc8ff8670ee0820cb5639b06e627d24718fcb0a51877b558775",
                id="65536-1-8-10-fffd3f15e69c9398987984c963f7a1f829c63ee921707bae7a56514dff3a35a5"),
        ],
    )
    def test_payload_hash(self, alphabet, n, seed, size, digest):
        payload = aac_encode(stream(golden_symbols(alphabet, n, seed), alphabet))
        assert len(payload) == size
        assert hashlib.sha256(payload).hexdigest() == digest


    def test_carry_through_two_ff_bytes(self, monkeypatch):
        """The pair (50, 0) of 100 symbols takes [6600, 6601) of a joint
        total of 100 * 132, and r = 2^88 // 13200 rounds down, so it starts
        just below one half: the zeros that follow keep the interval across
        2^87 while 0x7F and two 0xFF bytes leave, and the final 1 lifts
        `low` over it, carrying through both 0xFF bytes."""
        trailing = []  # 0xFF bytes at the end of the output, per carry
        carry = entropy._carry
        def spy(out):
            trailing.append(len(out) - len(bytes(out).rstrip(b"\xff")))
            carry(out)
        monkeypatch.setattr(entropy, "_carry", spy)
        syms = [50] + [0] * 14 + [1]
        payload = aac_encode(stream(syms, 100))
        assert trailing == [2]
        assert payload == struct.pack("<I", 16) + bytes.fromhex("80000062b8")
        assert payload == reference_encode(syms, 100)
        np.testing.assert_array_equal(aac_decode(payload, 100, 16).symbols, syms)


class TestPairs:
    """Symbols 2k and 2k + 1 share one interval step, coded by their joint
    probability; an odd last symbol is paired with a certain one."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 31, 101])
    @pytest.mark.parametrize("n_contexts", [None, 1, 3])
    def test_short_and_odd_lengths(self, n, n_contexts):
        syms = golden_symbols(50, n, n)
        ctx = None if n_contexts is None else np.arange(n) % n_contexts
        payload = aac_encode(stream(syms, 50), ctx)
        assert payload == reference_encode(syms, 50, ctx)
        np.testing.assert_array_equal(aac_decode(payload, 50, n, ctx).symbols, syms)

    @pytest.mark.parametrize("contexts, joint", [
        # One context: the second symbol sees the first's update, so
        # C2 = 1 + 33 and T2 = 4 + 32.
        ([0, 0], (1 * 36 + 34 * 1, 1 * 1, 4 * 36)),
        # Two contexts: the second model is untouched.
        ([0, 1], (1 * 4 + 2 * 1, 1 * 1, 4 * 4)),
    ])
    def test_joint_values(self, contexts, joint):
        """Symbols (1, 2) of 4 take (C1 T2 + C2 F1, F1 F2, T1 T2)."""
        ctx = np.array(contexts)
        steps = entropy._steps(*entropy._model(np.array([1, 2]), 4, ctx))
        assert [a.tolist() for a in steps] == [[v] for v in joint]
        payload = aac_encode(stream([1, 2], 4), ctx)
        assert payload == reference_encode([1, 2], 4, ctx)
        np.testing.assert_array_equal(aac_decode(payload, 4, 2, ctx).symbols, [1, 2])

    def test_lone_last_symbol_is_coded_alone(self):
        zeros = np.zeros(3, dtype=np.int64)
        steps = entropy._steps(*entropy._model(np.array([1, 2, 3]), 4, zeros))
        # (1, 2) as above, then 3 after both updates: C = 1 + 33 + 33,
        # times the certain partner's F2 = T2 = 1.
        assert [a.tolist() for a in steps] == [[70, 67], [1, 1], [144, 68]]

    def test_rescale_waits_for_the_pair(self, monkeypatch):
        """Symbol 2 takes the total from 68 past a limit of 68, but opens
        the pair (2, 3): symbol 3 is coded on the unhalved counts, and the
        halving comes after it."""
        monkeypatch.setattr(entropy, "RESCALE_LIMIT", 68)
        syms = [0, 0, 0, 0, 1]
        zeros = np.zeros(5, dtype=np.int64)
        cumlow, freq, total = entropy._model(np.array(syms), 4, zeros)
        assert total.tolist() == [4, 36, 68, 100, 68]  # [65, 1, 1, 1] after
        assert freq.tolist() == [1, 33, 65, 97, 1]
        assert cumlow.tolist() == [0, 0, 0, 0, 65]
        payload = aac_encode(stream(syms, 4))
        assert payload == reference_encode(syms, 4)
        np.testing.assert_array_equal(aac_decode(payload, 4, 5).symbols, syms)

    def test_rescale_between_two_contexts_of_a_pair(self, monkeypatch):
        """A context whose total passes the limit on a pair's first symbol
        halves after the pair, while the second symbol is in another
        context; its next symbol sees the same counts either way.  The
        encoder models that busy context only through its rescale
        segments, so it counts each symbol's earlier symbols once."""
        monkeypatch.setattr(entropy, "RESCALE_LIMIT", 36)
        counted = []
        earlier_counts = entropy._earlier_counts
        def spy(seg, *args):
            counted.append(seg.shape[0])
            return earlier_counts(seg, *args)
        monkeypatch.setattr(entropy, "_earlier_counts", spy)
        syms, ctx = [0, 0, 0, 1, 1, 1], np.array([0, 0, 0, 1, 0, 1])
        payload = aac_encode(stream(syms, 4), ctx)
        assert sum(counted) == len(syms)
        assert payload == reference_encode(syms, 4, ctx)
        np.testing.assert_array_equal(aac_decode(payload, 4, 6, ctx).symbols, syms)


class TestRoundTrip:
    @pytest.mark.parametrize("alphabet", [2, 3, 16, 256, 4096, 65536])
    def test_random_streams(self, alphabet):
        rng = np.random.default_rng(alphabet)
        syms = rng.integers(0, alphabet, size=3000)
        out = aac_decode(aac_encode(stream(syms, alphabet)), alphabet, len(syms))
        np.testing.assert_array_equal(out.symbols, syms)
        assert out.alphabet_size == alphabet

    def test_hundred_thousand_symbols(self):
        rng = np.random.default_rng(1)
        syms = rng.integers(0, 256, size=10**5)
        out = aac_decode(aac_encode(stream(syms, 256)), 256, len(syms))
        np.testing.assert_array_equal(out.symbols, syms)

    def test_skewed_stream(self):
        rng = np.random.default_rng(2)
        syms = np.minimum(rng.geometric(0.3, size=20000) - 1, 63)
        out = aac_decode(aac_encode(stream(syms, 64)), 64, len(syms))
        np.testing.assert_array_equal(out.symbols, syms)

    def test_model_rescale_path(self):
        """Enough symbols to push the model total past its 2^24 rescale
        limit; coding must stay lossless through the halving."""
        rng = np.random.default_rng(3)
        syms = (rng.random(700_000) < 0.2).astype(np.int64)
        out = aac_decode(aac_encode(stream(syms, 2)), 2, len(syms))
        np.testing.assert_array_equal(out.symbols, syms)


class TestCompression:
    def test_constant_stream_collapses(self):
        syms = np.full(10**4, 7, dtype=np.int64)
        payload = aac_encode(stream(syms, 256))
        assert len(payload) < 200
        # entropy is zero, so the whole payload must fit in the slack term
        assert len(payload) <= 64

    def test_uniform_stream_incompressible(self):
        rng = np.random.default_rng(4)
        syms = rng.integers(0, 256, size=10**4)
        payload = aac_encode(stream(syms, 256))
        assert len(payload) >= 9900

    def test_adaptive_model_beats_fixed_rate_on_skew(self):
        rng = np.random.default_rng(5)
        syms = np.minimum(rng.geometric(0.5, size=10**4) - 1, 255)
        payload = aac_encode(stream(syms, 256))
        assert len(payload) * 8 < 10**4 * 8 * 0.5

    @pytest.mark.parametrize("alphabet", [2, 4, 16, 64, 256])
    def test_efficiency_close_to_entropy_small_alphabets(self, alphabet):
        """Payload within 5% + 512 bits of the empirical entropy at n=10^4
        (adaptive-model overhead stays sub-entropy for small alphabets)."""
        rng = np.random.default_rng(alphabet + 10)
        probs = rng.dirichlet(np.ones(alphabet) * 0.5)
        syms = rng.choice(alphabet, size=10**4, p=probs)
        payload = aac_encode(stream(syms, alphabet))
        budget = empirical_entropy_bits(syms, alphabet) * 1.05 + 512
        assert (len(payload) - 4) * 8 <= budget


class TestEntropyHelper:
    def test_matches_direct_formula(self):
        syms = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        # counts 3, 2, 3 over n = 8
        import math
        want = -(3 * math.log2(3 / 8) + 2 * math.log2(2 / 8) + 3 * math.log2(3 / 8))
        assert empirical_entropy_bits(syms, 4) == pytest.approx(want, rel=1e-12)

    def test_degenerate_cases(self):
        assert empirical_entropy_bits(np.array([], dtype=np.int64), 8) == 0.0
        assert empirical_entropy_bits(np.full(100, 3), 8) == 0.0

    def test_uniform_limit(self):
        rng = np.random.default_rng(6)
        syms = rng.integers(0, 256, size=10**5)
        bits = empirical_entropy_bits(syms, 256)
        assert bits == pytest.approx(8.0 * 10**5, rel=0.01)


def as_limbs(values, count):
    """Python ints as (len, count) int64 limbs of LIMB_BITS bits, least
    significant first."""
    mask = (1 << LIMB_BITS) - 1
    return np.array([[v >> (LIMB_BITS * k) & mask for k in range(count)] for v in values],
                    dtype=np.int64).reshape(len(values), count)


def of_limbs(limbs):
    """Inverse of `as_limbs`: one Python int per row."""
    return [sum(int(limb) << (LIMB_BITS * k) for k, limb in enumerate(row)) for row in limbs]


class TestClassedPayload:
    """`classed_payload` frames the coder's class payload and the raw bits
    below each value's leading 1; `classed_sections` and `classed_values`
    give back the coder's payload and every value's limbs."""

    @staticmethod
    def _payload(values, count):
        classes = np.array([v.bit_length() for v in values], dtype=np.int64)
        coded = aac_encode(stream(classes, count * LIMB_BITS + 1))
        return classes, coded, classed_payload(coded, as_limbs(values, count), classes)

    def _round_trip(self, values, count):
        """The raw section, after checking the round trip and the framing."""
        classes, coded, payload = self._payload(values, count)
        got, raw = classed_sections(payload)
        assert got == coded
        assert payload[4:8] == struct.pack("<I", len(coded) - 4)
        assert len(payload) == 8 + len(coded) - 4 + len(raw)
        back = classed_values(raw, classes, count, "raw section")
        assert back.shape == (len(values), count)
        assert of_limbs(back) == values
        return raw

    def test_class_zero_has_no_raw_bits(self):
        assert self._round_trip([0, 0, 0], 1) == b""

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_widest_class(self, count):
        """Class count * LIMB_BITS: the leading 1 is the top limb's top bit."""
        top = 1 << (count * LIMB_BITS - 1)
        self._round_trip([top, 2 * top - 1, 0, 1, top + 1, 2], count)

    def test_class_bytes_past_the_end(self):
        _, _, payload = self._payload([5, 9, 0], 1)
        forged = payload[:4] + struct.pack("<I", len(payload) - 7) + payload[8:]
        with pytest.raises(CorruptPayloadError, match="past the payload end"):
            classed_sections(forged)
        with pytest.raises(CorruptPayloadError, match="shorter than its header"):
            classed_sections(payload[:7])

    def test_nonzero_padding(self):
        """Class 3 leaves two raw bits and six of padding."""
        assert self._round_trip([5], 1) == bytes([0b01000000])
        with pytest.raises(CorruptPayloadError, match="nonzero padding in raw section"):
            classed_values(bytes([0b01000001]), np.array([3]), 1, "raw section")
        with pytest.raises(CorruptPayloadError, match="raw section holds 2 bytes"):
            classed_values(bytes([0b01000000, 0]), np.array([3]), 1, "raw section")


def traced_peak(call):
    """`call()`, and the peak of what it allocated as traced by tracemalloc."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_raw_bit_temporaries_stay_chunked():
    """`pack_raw_bits` and `unpack_raw_bits` hold, beyond their output and
    its one-byte-per-bit array, a few CHUNK_BITS-entry temporaries at a
    time.  The values are 2 * 10^5 of one limb with up to 17 bits and
    10^4 of four limbs with up to 92 bits, whose whole bit matrices would
    be 73 and 15 times CHUNK_BITS entries."""
    rng = np.random.default_rng(32)
    for n, count, widest in [(200_000, 1, 17), (10_000, 4, 92)]:
        limbs = rng.integers(0, 1 << LIMB_BITS, size=(n, count))
        widths = rng.integers(0, widest + 1, size=n)
        widths[0] = widest
        nbits = int(widths.sum())
        data, peak = traced_peak(lambda: pack_raw_bits(limbs, widths))
        # The one-byte-per-bit array, and the packed bits as an array and as bytes.
        assert peak - nbits - 2 * len(data) < 8 * entropy.CHUNK_BITS, (n, peak)
        back, peak = traced_peak(lambda: unpack_raw_bits(data, widths, count, "raw bits"))
        assert peak - nbits - back.nbytes < 8 * entropy.CHUNK_BITS, (n, peak)
        low = np.clip(widths[:, None] - LIMB_BITS * np.arange(count), 0, LIMB_BITS)
        assert (back == limbs & (1 << low) - 1).all()


class TestCorruption:
    """The decoder accepts exactly the canonical encodings; everything else
    raises.  Corruption that lands on another stream's canonical payload is
    indistinguishable from that payload and cannot raise -- the tests below
    pin both halves of that contract."""

    def _payload(self, n=300, alphabet=256, seed=7):
        rng = np.random.default_rng(seed)
        syms = rng.integers(0, alphabet, size=n)
        return aac_encode(stream(syms, alphabet)), syms

    def test_too_short_for_header(self):
        for blob in (b"", b"\x01", b"\x00\x00\x00"):
            with pytest.raises(CorruptPayloadError):
                aac_decode(blob, 256, 1)

    def test_empty_stream_with_trailing_garbage(self):
        with pytest.raises(CorruptPayloadError):
            aac_decode(b"\x00\x00\x00\x00\xff", 256, 0)

    def test_count_only_but_symbols_promised(self):
        with pytest.raises(CorruptPayloadError):
            aac_decode(b"\x10\x00\x00\x00", 256, 16)

    def test_interior_truncation(self):
        payload, _ = self._payload()
        for keep in (len(payload) // 4, len(payload) // 2, len(payload) - 40):
            with pytest.raises(CorruptPayloadError):
                aac_decode(payload[:keep], 256, 300)

    def test_trailing_garbage(self):
        payload, _ = self._payload()
        with pytest.raises(CorruptPayloadError):
            aac_decode(payload + b"\x00", 256, 300)
        with pytest.raises(CorruptPayloadError):
            aac_decode(payload + b"\x5a\x5a", 256, 300)

    def test_count_inflation(self):
        payload, _ = self._payload()
        (count,) = struct.unpack_from("<I", payload, 0)
        forged = struct.pack("<I", count + 50) + payload[4:]
        with pytest.raises(CorruptPayloadError):
            aac_decode(forged, 256, count + 50)

    def test_count_deflation(self):
        payload, _ = self._payload()
        (count,) = struct.unpack_from("<I", payload, 0)
        forged = struct.pack("<I", count - 50) + payload[4:]
        with pytest.raises(CorruptPayloadError):
            aac_decode(forged, 256, count - 50)

    def test_wrong_alphabet(self):
        payload, _ = self._payload(alphabet=256)
        with pytest.raises(CorruptPayloadError):
            aac_decode(payload, 128, 300)

    def test_single_bit_flips_detected_or_equivalent(self):
        """Flip every bit of a payload once.  Each tampered payload must
        either raise or be the canonical encoding of the (different) stream
        it decodes to -- never a silent wrong answer that re-encodes
        differently."""
        for n in (200, 201):  # an odd count ends on a lone symbol
            payload, syms = self._payload(n=n, seed=8)
            detected = 0
            undetected = 0
            for bitpos in range(32, len(payload) * 8):  # skip the count field
                byte, bit = divmod(bitpos, 8)
                tampered = bytearray(payload)
                tampered[byte] ^= 1 << (7 - bit)
                tampered = bytes(tampered)
                try:
                    got = aac_decode(tampered, 256, n)
                except CorruptPayloadError:
                    detected += 1
                else:
                    undetected += 1
                    assert aac_encode(got) == tampered
                    assert not np.array_equal(got.symbols, syms)
            total = detected + undetected
            assert detected / total > 0.85, (n, detected, total)

    def test_detection_is_not_flaky_on_clean_payloads(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 500))
            a = int(rng.integers(2, 1000))
            syms = rng.integers(0, a, size=n)
            out = aac_decode(aac_encode(stream(syms, a)), a, n)
            np.testing.assert_array_equal(out.symbols, syms)

    def test_expected_count_checked(self):
        payload, syms = self._payload()
        np.testing.assert_array_equal(aac_decode(payload, 256, 300).symbols, syms)
        with pytest.raises(CorruptPayloadError, match="expected 299"):
            aac_decode(payload, 256, 299)
        with pytest.raises(CorruptPayloadError):
            aac_decode(aac_encode(stream([], 256)), 256, 1)

    def test_huge_count_rejected_before_allocation(self):
        """A header claiming 2^32 - 1 symbols is refused on the count the
        caller expects, before a symbol buffer exists."""
        payload, _ = self._payload()
        forged = struct.pack("<I", 2**32 - 1) + payload[4:]
        with bounded_failure(seconds=0.5, bytes_=1 << 20):
            aac_decode(forged, 256, 300)

    @pytest.mark.parametrize("alphabet", [3, 1000])
    def test_dead_zone_code_refused(self, alphabet):
        """r = 2^88 // total leaves codes from r * total up to 2^88 to no
        symbol; a body of 0xFF bytes starts in that zone."""
        assert (1 << 88) % alphabet  # the zone is not empty
        with pytest.raises(CorruptPayloadError, match="dead zone"):
            aac_decode(struct.pack("<I", 1) + b"\xff" * 11, alphabet, 1)

    @pytest.mark.parametrize("contexts, joint", [([0, 0], 3 * 35), ([0, 1], 3 * 3)])
    def test_pair_dead_zone_code_refused(self, contexts, joint):
        """A pair's value v = diff // r at or past T1 * T2 (3 * 35 in one
        context of 3 symbols, 3 * 3 in two) decodes to no pair."""
        assert (1 << 88) % joint
        with pytest.raises(CorruptPayloadError, match="dead zone"):
            aac_decode(struct.pack("<I", 2) + b"\xff" * 11, 3, 2, np.array(contexts))

    def test_larger_flush_byte_refused(self):
        """A last byte raised by one keeps the code inside the final
        interval whenever that is wide enough: the same symbols decode,
        but the payload is not canonical."""
        rng = np.random.default_rng(10)
        same = 0
        for _ in range(40):
            n, a = int(rng.integers(1, 300)), int(rng.integers(2, 300))
            syms = rng.integers(0, a, size=n)
            payload = aac_encode(stream(syms, a))
            if payload[-1] == 0xFF:
                continue
            bumped = payload[:-1] + bytes([payload[-1] + 1])
            if np.array_equal(plain_decode(bumped[4:], a, n), syms):
                same += 1
                with pytest.raises(CorruptPayloadError, match="flush"):
                    aac_decode(bumped, a, n)
        assert same >= 20, same

    def test_empty_body_with_symbols_promised(self):
        with bounded_failure(seconds=0.5, bytes_=1 << 20):
            aac_decode(struct.pack("<I", 5), 256, 5)

    @pytest.mark.parametrize("alphabet", [2, 3, 256, 4096])
    @pytest.mark.parametrize("length", [1, 8, 1000])
    def test_all_ff_body(self, alphabet, length):
        with bounded_failure(seconds=0.5, bytes_=1 << 20):
            aac_decode(struct.pack("<I", 100) + b"\xff" * length, alphabet, 100)

    @pytest.mark.parametrize("body", [b"\x00", b"\x80", b"\xff"], ids=bytes.hex)
    def test_huge_count_with_one_byte_body(self, body):
        """Each symbol costs more than 2^-24 bits, so one byte cannot hold
        2^32 - 1 of them: refused before decoding, though the caller
        expects that count."""
        count = 2**32 - 1
        with bounded_failure(seconds=0.5, bytes_=1 << 20):
            aac_decode(struct.pack("<I", count) + body, 2, count)

    def test_decode_alphabet_validation(self):
        payload, _ = self._payload()
        with pytest.raises(ValueError):
            aac_decode(payload, 1, 300)
        with pytest.raises(ValueError):
            aac_decode(payload, 1 << 17, 300)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(min_value=0, max_value=1500),
    alphabet=st.sampled_from([2, 3, 5, 16, 255, 256, 1024, 65536]),
    skew=st.floats(min_value=0.05, max_value=5.0),
)
def test_lossless_property(seed, n, alphabet, skew):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.full(min(alphabet, 512), skew))
    syms = rng.choice(min(alphabet, 512), size=n, p=probs).astype(np.int64)
    out = aac_decode(aac_encode(stream(syms, alphabet)), alphabet, n)
    np.testing.assert_array_equal(out.symbols, syms)
    assert out.alphabet_size == alphabet


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(min_value=0, max_value=300),
    alphabet=st.integers(min_value=2, max_value=300),
    rescale_limit=st.sampled_from([None, 1 << 12, 1 << 14]),
)
def test_matches_reference_model(seed, n, alphabet, rescale_limit):
    """Bytes equal to the plain reference coder's, and lossless.  The
    lowered rescale limits make short streams halve the model many times."""
    syms = golden_symbols(alphabet, n, seed)
    with pytest.MonkeyPatch.context() as mp:
        if rescale_limit is not None:
            mp.setattr(entropy, "RESCALE_LIMIT", rescale_limit)
        payload = aac_encode(stream(syms, alphabet))
        assert payload == reference_encode(syms, alphabet)
        out = aac_decode(payload, alphabet, n)
    np.testing.assert_array_equal(out.symbols, syms)


def band_contexts(n):
    """Contexts cycling through the codec's coefficient bands
    0 | 1 | 2-3 | 4-7 | 8-15 | 16+ over leaves of 24 coefficients."""
    index = np.arange(n) % 24
    return np.minimum(np.frexp(index)[1], 5)


class TestContexts:
    """Per-symbol contexts: one adaptive model per context, the coder and
    its framing otherwise unchanged."""

    def test_one_context_is_the_plain_coder(self):
        syms = golden_symbols(300, 2000, 11)
        plain = aac_encode(stream(syms, 300))
        assert aac_encode(stream(syms, 300), np.zeros(2000, dtype=np.int64)) == plain
        assert aac_encode(stream(syms, 300), np.full(2000, 4)) == plain

    def test_round_trip_and_reference(self):
        syms = golden_symbols(18, 5000, 12)
        ctx = band_contexts(5000)
        payload = aac_encode(stream(syms, 18), ctx)
        assert payload == reference_encode(syms, 18, ctx)
        np.testing.assert_array_equal(aac_decode(payload, 18, 5000, ctx).symbols, syms)

    def test_wrong_contexts_do_not_decode(self):
        syms = golden_symbols(18, 3000, 13)
        ctx = band_contexts(3000)
        payload = aac_encode(stream(syms, 18), ctx)
        with pytest.raises(CorruptPayloadError):
            aac_decode(payload, 18, 3000, np.roll(ctx, 1))

    def test_codec_contexts_halving_together(self, monkeypatch):
        """The codec's 24 band x degree contexts of an SH channel, under a
        rescale limit so low that every context halves after its first
        five symbols and again in each round after: the bytes are the
        reference coder's, and they decode exactly."""
        grid = QuantGrid(mins=np.zeros(16), scale=1.0, q=16)
        ctx, _ = codec._level_layout(grid, 1.0, {24: 16})
        alphabet, n = grid.q + 2, ctx.shape[0]
        syms = golden_symbols(alphabet, n, 31)
        monkeypatch.setattr(entropy, "RESCALE_LIMIT",
                            alphabet * entropy.COUNT_INIT + 4 * entropy.COUNT_INCREMENT)
        groups = []
        earlier_counts = entropy._earlier_counts
        def spy(seg, alpha, group, above):
            groups.append(np.unique(group).size)
            return earlier_counts(seg, alpha, group, above)
        monkeypatch.setattr(entropy, "_earlier_counts", spy)
        payload = aac_encode(stream(syms, alphabet), ctx)
        assert np.bincount(ctx).min() == 16
        assert groups[:4] == [24] * 4
        assert payload == reference_encode(syms, alphabet, ctx)
        np.testing.assert_array_equal(aac_decode(payload, alphabet, n, ctx).symbols, syms)

    @pytest.mark.parametrize("contexts", [
        np.zeros(9, dtype=np.int64),            # one short
        np.zeros(11, dtype=np.int64),           # one long
        np.full(10, -1),                        # negative
        np.zeros(10, dtype=np.float64),         # not integers
        np.zeros((2, 5), dtype=np.int64),       # not one per symbol
    ])
    def test_malformed_contexts_rejected(self, contexts):
        s = stream(np.arange(10) % 4, 4)
        with pytest.raises(ValueError, match="context"):
            aac_encode(s, contexts)
        payload = aac_encode(s)
        with pytest.raises(ValueError, match="context"):
            aac_decode(payload, 4, 10, contexts)

    @pytest.mark.parametrize(
        "alphabet, n, seed, contexts, size, digest",
        [
            pytest.param(10, 3000, 21, band_contexts, 1188,
                "9c44b3fd26e95aec3d88d67861ae28b6d0d08fa005b0f4e73fa344866e545702",
                id="10-3000-21-band_contexts-1192-b7094ed93eefa79e12af667f2dfc172f08526f5e332a93d6e2d958de44c27764"),
            pytest.param(18, 3000, 22, band_contexts, 1432,
                "a520be1e3e471a46f5c2c0cfb7a425d7c977086fc62f47526cfd3ca19ba8fc75",
                id="18-3000-22-band_contexts-1435-a2d45a4345795fda6f19c4a1db27b79f4792977030e052af8425c36c846f3958"),
            pytest.param(256, 3000, 23, band_contexts, 2355,
                "5b2c6a040aa76128e2c46f90a69dc600a7ea736c2e4d32d65ef947ff64bc3542",
                id="256-3000-23-band_contexts-2358-d58e4d11e68a30f2c5fad993ee68830db1b5998066cfd2e34d770402a42a2545"),
            # Context and symbol together take more than 16 bits.
            pytest.param(65536, 3000, 25, band_contexts, 3783,
                "2529c5cff70c52f10f1e7755ebc38c137af58be72044e792e2a165c51d5d7750",
                id="65536-3000-25-band_contexts-3787-4caef5e4c2038911736ed2e012fd14be377df98a88668b0d76e3944b320c0953"),
            # Two interleaved contexts of 550k symbols each: both push
            # their model total past RESCALE_LIMIT once.
            pytest.param(18, 1_100_000, 24, lambda n: np.arange(n) % 2, 502257,
                "1e2ed40d0583e7212010fe07e4d8bd55956a151dfd64b529730a30ea69a60b2c",
                id="18-1100000-24-<lambda>-502261-e475d9a6fd0b8adf8744443a13c8d5a4ededf9d3a68e67d1554fceb75dc61b7c"),
        ],
    )
    def test_payload_hash(self, alphabet, n, seed, contexts, size, digest):
        """SHA-256 of context payloads, pinned like `TestGoldenBytes`."""
        payload = aac_encode(stream(golden_symbols(alphabet, n, seed), alphabet),
                             contexts(n))
        assert len(payload) == size
        assert hashlib.sha256(payload).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(min_value=0, max_value=400),
    bits=st.integers(min_value=1, max_value=16),
    n_contexts=st.integers(min_value=0, max_value=6),
    steps=st.integers(min_value=1, max_value=40),
)
def test_contexts_match_reference_model(seed, n, bits, n_contexts, steps):
    """Context payloads are byte for byte the plain reference coder's with
    one count list per context, and decode exactly, for alphabets from 2
    to 2^16.  The lowered rescale limit makes a context halve its model
    after `steps` symbols, and again as it stays busy.  No contexts
    (`n_contexts` 0) are all-zero contexts."""
    rng = np.random.default_rng(seed)
    alphabet = int(rng.integers((1 << bits) // 2 + 1, (1 << bits) + 1))
    syms = golden_symbols(alphabet, n, seed)
    ctx = rng.integers(0, n_contexts, size=n) if n_contexts else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entropy, "RESCALE_LIMIT",
                   alphabet * entropy.COUNT_INIT + steps * entropy.COUNT_INCREMENT)
        payload = aac_encode(stream(syms, alphabet), ctx)
        assert payload == reference_encode(syms, alphabet, ctx)
        if ctx is None:
            assert payload == aac_encode(stream(syms, alphabet), np.zeros(n, dtype=np.int64))
        out = aac_decode(payload, alphabet, n, ctx)
    np.testing.assert_array_equal(out.symbols, syms)


def _mutate(body, kind, rng):
    if kind == "truncate":
        return body[: int(rng.integers(0, len(body)))]
    if kind == "append":
        return body + bytes(rng.integers(0, 256, size=int(rng.integers(1, 3))).tolist())
    if kind == "last byte":
        return body[:-1] + bytes([(body[-1] + int(rng.choice([-1, 1]))) % 256])
    out = bytearray(body)
    for _ in range(1 if kind == "one flip" else 2):
        bit = int(rng.integers(0, 8 * len(out)))
        out[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(min_value=1, max_value=200),
    alphabet=st.one_of(st.integers(2, 20), st.integers(2, 4096)),
    n_contexts=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["truncate", "append", "last byte", "one flip", "two flips"]),
)
def test_in_loop_check_matches_reencode_oracle(seed, n, alphabet, n_contexts, kind):
    """On mutated payloads the decoder accepts exactly what the decode and
    re-encode oracle accepts, and returns the same symbols."""
    rng = np.random.default_rng(seed)
    syms = golden_symbols(alphabet, n, seed)
    ctx = rng.integers(0, n_contexts, size=n)
    payload = aac_encode(stream(syms, alphabet), ctx)
    forged = payload[:4] + _mutate(payload[4:], kind, rng)
    want = reencode_oracle(forged, alphabet, n, ctx)
    try:
        got = aac_decode(forged, alphabet, n, ctx).symbols
    except CorruptPayloadError:
        got = None
    assert (got is None) == (want is None)
    if got is not None:
        np.testing.assert_array_equal(got, want)
