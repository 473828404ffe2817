"""Snapshot-file edits shared by the sampler and CLI tests.

A saved file is rewritten between the v1 and v2 forms of its phase rows
(comma-separated reprs of the doubles, or the base64 of their little-endian
bytes), or has a header line changed, so that a test can check how
``load_snapshots`` reads or refuses the result.
"""

import base64
import re

import numpy as np


def b64(values) -> str:
    """The v2 payload of a phase vector."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


PHASE_CODECS = {
    "v1": (lambda payload: [float(x) for x in payload.split(",")],
           lambda doubles: ",".join(map(repr, doubles))),
    "v2": (lambda payload: np.frombuffer(base64.b64decode(payload, validate=True),
                                         "<f8").tolist(),
           b64),
}


def rewrite_phase_rows(path, version):
    """Rewrite a snapshot file in format version: its version line, and each
    phase row that its own version decodes, as the comma-separated reprs of
    the doubles (v1) or their base64 (v2)."""
    lines = path.read_text().splitlines()
    decode = PHASE_CODECS[lines[0].rsplit(" ", 1)[1]][0]
    encode = PHASE_CODECS[version][1]
    lines[0] = f"# hamshadow snapshots {version}"
    for i, line in enumerate(lines):
        if line.startswith("phases="):
            payload, rest = line[len("phases="):].split(" ", 1)
            try:
                lines[i] = f"phases={encode(decode(payload))} {rest}"
            except ValueError:
                pass  # a malformed payload stays as it is
    path.write_text("".join(line + "\n" for line in lines))


# (pattern, replacement, message) header edits of a saved file of 10 shots
# and seed 34 that load_snapshots refuses, naming the file and the header
HEADER_EDITS = [
    (r"# hamshadow snapshots v2\n", "",
     r"snaps.txt: no '# hamshadow snapshots v<n>' version line"),
    (r"snapshots v2", "snapshots v0",
     "snaps.txt: unknown snapshot format version 'v0'"),
    (r"snapshots v2", "snapshots v3",
     "snaps.txt: unknown snapshot format version 'v3'"),
    (r"# fingerprint=.*\n", "", "snaps.txt: no fingerprint header"),
    (r"# seed=.*\n", "", "snaps.txt: no seed header"),
    (r"# shots=.*\n", "", "snaps.txt: no shots header"),
    (r"# seed=34", "# seed=1.5", "snaps.txt: bad seed header '1.5': not an integer"),
    (r"# shots=10", "# shots=1e1",
     "snaps.txt: bad shots header '1e1': not a non-negative integer"),
    (r"# shots=10", "# shots=-10",
     "snaps.txt: bad shots header '-10': not a non-negative integer"),
]


def edit_header(path, pattern, replacement):
    text = path.read_text()
    assert re.search(pattern, text)
    path.write_text(re.sub(pattern, replacement, text, count=1))
