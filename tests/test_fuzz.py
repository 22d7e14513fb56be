"""Hostile streams: truncated, bit-flipped and spliced copies of the
golden `.ggsc` streams either decode to the declared number of
primitives or raise `CodecError` / `CorruptPayloadError`.

The mutants run in one child process that caps its own address space
(`RLIMIT_AS`), so a decoder that tries a huge allocation fails there
with `MemoryError` -- which counts as a leak -- instead of straining the
machine.  The mutation seed is fixed, so a failure repeats.
"""

import json
import subprocess
import sys
from pathlib import Path

from conftest import child_env

GOLDEN = Path(__file__).with_name("golden")
SEED = 3

# argv: golden directory, seed.  Prints one JSON summary line.
_CHILD = """
import json, random, resource, sys
from pathlib import Path

from ggsc import codec
from ggsc.codec import CodecError, CodedStream
from ggsc.entropy import CorruptPayloadError

resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
streams = [p.read_bytes() for p in sorted(Path(sys.argv[1]).glob("*.ggsc"))]
rng = random.Random(int(sys.argv[2]))

def mutants():
    for i, blob in enumerate(streams):
        for _ in range(30):
            cut = rng.randrange(len(blob))
            yield f"stream {i} cut at {cut}", blob[:cut]
        for _ in range(50):
            tampered = bytearray(blob)
            flips = []
            for _ in range(rng.randint(1, 3)):
                # Half the flips land in the header: the fields, the
                # quantizer grids and the payload lengths.
                span = codec.HEADER_BYTES if rng.random() < 0.5 else len(blob)
                pos, bit = rng.randrange(span), rng.randrange(8)
                tampered[pos] ^= 1 << bit
                flips.append((pos, bit))
            yield f"stream {i} bits flipped at {flips}", bytes(tampered)
    for _ in range(40):
        i, j = rng.randrange(len(streams)), rng.randrange(len(streams))
        a, b = rng.randrange(len(streams[i]) + 1), rng.randrange(len(streams[j]) + 1)
        yield f"stream {i}[:{a}] + stream {j}[{b}:]", streams[i][:a] + streams[j][b:]

counts = {"decoded": 0, "rejected": 0}
leaks = []
for what, blob in mutants():
    try:
        stream = CodedStream.from_bytes(blob)
        cloud = codec.decode(stream)
    except (CodecError, CorruptPayloadError):
        counts["rejected"] += 1
    except Exception as exc:  # anything else is the finding being looked for
        leaks.append(f"{what}: {type(exc).__name__}: {exc}")
    else:
        counts["decoded"] += 1
        if len(cloud) != stream.gs_count:
            leaks.append(f"{what}: decoded {len(cloud)} of {stream.gs_count} primitives")
print(json.dumps({"counts": counts, "leaks": leaks}))
"""


def test_mutated_streams_raise_only_codec_errors():
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(GOLDEN), str(SEED)],
                          env=child_env(), timeout=120, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["leaks"] == []
    counts = result["counts"]
    assert counts["decoded"] + counts["rejected"] == 3 * (30 + 50) + 40
    # Both outcomes occur: the mutants reach past the container parser.
    assert counts["decoded"] > 0 and counts["rejected"] > 0
