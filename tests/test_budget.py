"""Wall-clock and peak-RSS budgets of commands at large n.

Each command runs once, in its own process, under a timeout, so that a hang
or an ``n x n x d`` temporary fails here instead of in a long benchmark run.

The command is started through a small launcher process that reads the
command's ``ru_maxrss`` from its own ``os.wait4``.  The peak RSS of a direct
child of pytest would be floored by pytest's: Linux carries a process's
high-water mark across ``exec``, so a trivial child of a 320 MB parent reads
about 330 MB, while the child of a small launcher reads its own peak.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from conftest import BLAS_THREADS, command_ids

TIMEOUT_S = 120

# runs ARGV with a timeout; prints {"exit": code, "maxrss_kb": peak,
# "wall_s": seconds from start to exit} on stdout
LAUNCHER = """
import json, os, subprocess, sys, threading, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[2:], stdout=sys.stderr)
killer = threading.Timer(float(sys.argv[1]), proc.kill)
killer.start()
try:
    _, status, usage = os.wait4(proc.pid, 0)
finally:
    killer.cancel()
wall = time.perf_counter() - start
print(json.dumps(
    {"exit": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss, "wall_s": wall}
))
"""

# command -> (wall-clock budget in s, peak RSS budget in MB of 1e6 bytes).
# The parent of the streamed heatmap and the in-place whitening peaked at 314
# and 270 MB.  heatmap at n = 1000 took 1.3 to 2.0 s and peaked at 101.5 MB
# on the 2-core VM once its CSV formatted each value of the symmetric grid
# once (1.85 to 2.35 s and 87.6 MB before; the added peak is the text of
# the columns still to be written), and at 88 MB once its kernel matrices
# were built over their distance matrices; its wall budget leaves about 5x
# room, as eigen-scaling's does.  It took 0.85 to 1.0 s and peaked at 89 MB
# once its CSV was written by the array formatter (every cell formatted,
# none mirrored), and its budgets were tightened from 10 s and 130 MB.
# identity took 17.6 s and 59.4 MB before the Fourier-side phase was split
# per panel, 1.4 to 1.65 s and 40 MB on the 2-core VM with the split on
# panels of one width, and 0.35 to 0.38 s and 40 MB once the panels beyond
# |w| = 16 were widened to the graded outer zones; its wall budget leaves
# about 5x room, as heatmap's does.  eigen-scaling at its defaults (30 sizes up to n = 1000) took
# 0.63 to 0.75 s warm (1.6 s on a cold first run) on the 2-core VM; it
# peaked at 53.4 MB while conv_gram and the centrosymmetric split each held
# two n x n matrices, and at 47.4 to 47.6 MB once every stage held one
# matrix and row blocks and the sizes ran largest first; its wall budget
# leaves room for a loaded machine.
# equivalence at n = 2000 peaked at 236 MB while it whitened by a full
# eigendecomposition, and at 170 MB with its Cholesky congruence while the
# shifted matrix was built before the Gram matrix was factored, and at
# 140 MB (three n x n matrices of 32 MB over about 43 MB of interpreter and
# numpy) once it was built after the Gram matrix was freed.  With the Gram
# matrix factored and inverted in place and both kernel matrices built over
# their distance matrices, it peaks at 111 MB (two n x n matrices) and
# takes 1.5 to 1.65 s on the 2-core VM, against 1.8 s for the three-matrix
# version measured beside it (recorded at 2.0 to 2.1 s once the congruence
# skipped the zero blocks of L^-1, 2.2 to 2.65 s before); its wall budget
# leaves about 5x room, as heatmap's does.
# equivalence peaked at 99.1 to 99.2 MB at 1 BLAS thread and 100.2 to 100.3 MB
# at 2 on the 2-core VM, against 105.7 to 107.4 MB before, once the symmetry
# check and the 1-norm of the Gram matrix took one pass by row blocks and
# every product of the whitening was formed in chunks of at most one row
# block: two n x n matrices, 64 MB, over about 33 MB of interpreter, numpy
# and BLAS buffers, and no temporary of more than a row block.  Its RSS
# budget, 108.5 MB before, leaves about 1.7 MB of room over that.
# thm41 at n = 200 sets the peak of the bench's verifiers workload.  Every
# command mapped OpenSSL's libcrypto, about 3.5 MiB, while the config hash
# imported hashlib: thm41 peaked at 38.8 to 39.0 MB, identity at 39.5 to
# 40.0 MB, eigen-scaling at 47.4 to 47.6 MB and equivalence at 109.5 to
# 110.8 MB at 1 and 2 BLAS threads on the 2-core VM, and at 35.3 to 35.5,
# 36.7 to 37.0, 43.7 to 44.1 and 105.7 to 107.0 MB once it took the
# interpreter's built-in SHA-256; those four RSS budgets, 60 to 125 MB
# before, leave 1.5 to 2 MB of room over the latter.
# eigen-scaling peaked at 37.4 to 37.7 MB at 1 and 2 BLAS threads once no
# n x n matrix was formed (the builders stream mirrored pairs of row blocks
# and the split keeps the lower triangles of its two half blocks, about
# half an n x n matrix with eigvalsh's copy); its RSS budget, 46 MB
# before, leaves 1.8 MB of room over that.  Once the split asked the
# builders' row functions for the mirrored pairs itself, it read 37.35 to
# 37.45 MB at 1 BLAS thread and 37.5 to 37.65 MB at 2, against 37.45 to
# 37.6 and 37.4 to 37.5 MB before, in alternating runs; no budget changed
# sin2 and identity at the bench's options took 0.18 to 0.28 s and peaked at
# 32.2 to 32.6 MB at 1 and 2 BLAS threads on the 2-core VM; their budgets
# leave about 2 MB of room, as thm41's does, so every command of the bench's
# verifiers workload has one
HEATMAP_1000 = ("heatmap", "--kernel", "matern-linear", "--dim", "2", "--n", "1000")
BUDGETS = {
    HEATMAP_1000: (5, 100),
    ("equivalence", "--kernel", "matern-basic", "--dim", "3", "--n", "2000"): (12, 102),
    ("identity", "--kernel", "matern-basic", "--n", "400", "--trials", "2"): (2, 38.5),
    ("eigen-scaling", "--kernel", "matern-linear"): (4, 39.5),
    ("thm41", "--kernel", "matern-basic", "--n", "200", "--shift-factor", "0.5"): (2, 37),
    ("sin2", "--kernel", "matern-linear", "--eps", "0.25"): (2, 34.5),
    ("identity", "--kernel", "matern-basic", "--n", "6", "--trials", "50"): (2, 34.5),
}

# command -> {artifact: size budget in bytes}.  The heatmap SVG drew one
# <rect> per cell, 61.5 MB at n = 1000, before each run of one color in a
# grid row became one <rect> (2.34 MB), and that before the grid became one
# embedded palette PNG (56 kB).  The heatmap spectrum is 43 kB; its cap
# keeps an n x n table (the 23 MB grid it once was) out.  The heatmap CSV
# is the two equivalence checks, 0.25 kB
FILE_BUDGETS = {
    HEATMAP_1000: {"heatmap.svg": 1.5e5, "heatmap.csv": 1e3, "heatmap.spectrum.csv": 1e5},
}

# command -> {artifact: {BLAS threads: SHA-256}}: the bytes at scale.  The
# heatmap CSV held the spectrum of eigvalsh(whiten(A, B)) (the bytes of the
# heatmap.spectrum.csv it had replaced) until heatmap's spectrum and checks
# came from equivalence's Cholesky congruence: both tables were then pinned
# from equivalence --layout halton with the same options, its config column
# replaced by heatmap's, as recorded before the change.  Both were
# re-recorded at 1 and 2 BLAS threads when the products of the whitening came
# to be formed in chunks of at most one row block: the spectrum moved by at
# most 3.5e-9 (1 thread) and 4.3e-9 (2 threads), against eps cond(A) = 4.8e-7
# for this Gram matrix and 3.4e-8 between the two thread counts before; both
# checks kept their verdicts and reliable flags, and the SVG its bytes.
# Both were re-recorded at 1 and 2 BLAS threads when the fourier_cutoff
# field left ExperimentConfig and the config hash changed: past the config
# column every byte stayed
FILE_DIGESTS = {
    HEATMAP_1000: {
        "heatmap.csv": {
            1: "71dc8c66f9a9aa020299e4c78fc3e003660df10caae911976782d605c586efeb",
            2: "731bafecfffc8a643050f81f5ce1eefc17f52bc68e92e3c552b7163ea6c87757",
        },
        "heatmap.spectrum.csv": {
            1: "39bb4fa12689f4637219b7d6d7918e35372f274078bda383f17eba5aa9306bbd",
            2: "6b6b78d0984d2dd428008e6f404273dc63c5648f7462396b499cd625c5639d60",
        },
    },
}


@pytest.mark.parametrize("args", list(BUDGETS), ids=command_ids(BUDGETS))
def test_command_stays_within_its_budget(args, tmp_path):
    command = [sys.executable, "-m", "kernstab", *args]
    argv = [sys.executable, "-c", LAUNCHER, str(TIMEOUT_S), *command]
    # the launcher's own timeout kills the command; this one only guards the launcher
    result = subprocess.run(
        argv, cwd=tmp_path, capture_output=True, text=True, timeout=TIMEOUT_S + 30
    )
    assert result.returncode == 0, result.stderr
    measured = json.loads(result.stdout)
    assert measured["exit"] == 0, result.stderr
    wall_budget, peak_budget = BUDGETS[args]
    assert measured["wall_s"] <= wall_budget, f"{args[0]} took {measured['wall_s']:.1f} s"
    peak_mb = measured["maxrss_kb"] * 1024 / 1e6
    assert peak_mb <= peak_budget, f"{args[0]} peaked at {peak_mb:.1f} MB"
    for name, size_budget in FILE_BUDGETS.get(args, {}).items():
        size = (tmp_path / name).stat().st_size
        assert size <= size_budget, f"{name} has {size} bytes"
    for name, digests in FILE_DIGESTS.get(args, {}).items():
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == digests[BLAS_THREADS], f"{name} changed: {digest}"
