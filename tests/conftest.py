import os
import subprocess
import sys
from pathlib import Path

import pytest

from dequiv.posets import poset_from_covers

# the six-vertex triangulation of the real projective plane
RP2_TRIANGLES = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]


@pytest.fixture
def rp2():
    """Face poset of the six-vertex real projective plane, faces named by
    their vertices ("1", "12", "123"): its order complex has H^1 = H^2 = k
    over GF(2) and only H^0 over Q."""
    faces = set()
    for t in RP2_TRIANGLES:
        faces |= {t, t[:2], t[1:], t[::2], t[:1], t[1:2], t[2:]}
    name = lambda f: "".join(map(str, f))
    covers = [(name(f[:j] + f[j + 1:]), name(f))
              for f in faces if len(f) > 1 for j in range(len(f))]
    return poset_from_covers(sorted(name(f) for f in faces), covers)


@pytest.fixture
def run_optimized():
    """Runs Python source under `python -O`, which strips every assert,
    with this checkout's src first on the path; returns the finished
    process, which must have failed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(code):
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode != 0, done.stdout
        return done
    return run
