"""Chaos/leak tests for multi-process serving over one mmap'd snapshot.

The zero-copy claim, verified with real processes and ``/proc``:

* N serving processes that memory-map the same snapshot and fault in
  every page of the embedding tables report a *shared* resident
  footprint — the summed proportional set size (Pss) of their snapshot
  mappings stays ~1x the table bytes, not Nx (each mapped page's Pss is
  split across its sharers, so private copies would sum to Nx).
* SIGKILLing one serving process mid-flight leaves no stale temp/index
  files next to the snapshot and no new ``/dev/shm`` segments, and the
  surviving processes keep answering.

The leak check compares the ``/dev/shm/psm_*`` segment set before and
after the kill; Pss accounting needs ``/proc/<pid>/smaps`` (skipped
where the kernel doesn't provide it).
"""

import glob
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.serve import RecommenderService, save_embedding_snapshot

pytestmark = pytest.mark.chaos

NUM_PROCS = 3
NUM_USERS, NUM_ITEMS, DIM = 40_000, 2_000, 64   # ~10.7 MB of tables


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


# the serving child: map the snapshot, fault every table page, serve,
# then answer request flags until told to stop
_CHILD = """
import os, sys, time
import numpy as np
from repro.serve import RecommenderService, load_snapshot

snapshot, workdir, ident = sys.argv[1], sys.argv[2], sys.argv[3]
snap = load_snapshot(snapshot, mmap=True)
# fault in every page of both tables so Rss reflects the full mapping
checksum = float(np.asarray(snap.user_embeddings).sum()
                 + np.asarray(snap.item_embeddings).sum())
service = RecommenderService.from_snapshot(snap, backend="ann")
lists = service.recommend(np.arange(64), k=10)
np.save(os.path.join(workdir, f"first-{ident}.npy"), lists)
with open(os.path.join(workdir, f"ready-{ident}"), "w") as fh:
    fh.write(str(os.getpid()))
stop = os.path.join(workdir, "stop")
req = os.path.join(workdir, "req")
answered = False
while not os.path.exists(stop):
    if os.path.exists(req) and not answered:
        np.save(os.path.join(workdir, f"answer-{ident}.npy"),
                service.recommend(np.arange(64), k=10))
        answered = True
    time.sleep(0.02)
"""


def _pss_of_mapping(pid, needle):
    """Sum the Pss (KiB) of ``pid``'s mappings whose path contains needle.

    Returns None when smaps is unavailable (permission, exited, or no
    procfs) — callers skip the assertion rather than fail.
    """
    try:
        with open(f"/proc/{pid}/smaps") as fh:
            lines = fh.readlines()
    except OSError:
        return None
    total, in_block = 0, False
    for line in lines:
        if "-" in line.split(" ", 1)[0] and ":" not in line.split(" ")[0]:
            in_block = needle in line
        elif in_block and line.startswith("Pss:"):
            total += int(line.split()[1])
    return total


def _wait_for(paths, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(os.path.exists(p) for p in paths):
            return True
        time.sleep(0.05)
    return False


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                    reason="needs /proc smaps accounting")
def test_mmap_serving_shares_tables_and_survives_sigkill(tmp_path):
    rng = np.random.default_rng(0)
    user = rng.standard_normal((NUM_USERS, DIM)).astype(np.float32)
    item = rng.standard_normal((NUM_ITEMS, DIM)).astype(np.float32)
    path = save_embedding_snapshot(str(tmp_path / "shared.npz"), user,
                                   item)
    table_bytes = user.nbytes + item.nbytes

    shm_before = _shm_segments()
    env = dict(os.environ)
    env["PYTHONPATH"] = ("src" + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else "src")
    workdir = str(tmp_path)
    procs = [subprocess.Popen(
        [sys.executable, "-c", _CHILD, path, workdir, str(i)], env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        for i in range(NUM_PROCS)]
    try:
        ready = [os.path.join(workdir, f"ready-{i}")
                 for i in range(NUM_PROCS)]
        assert _wait_for(ready), "serving children never came up"

        # every child answered, and identically (shared state, one truth)
        first = [np.load(os.path.join(workdir, f"first-{i}.npy"))
                 for i in range(NUM_PROCS)]
        for lists in first[1:]:
            assert np.array_equal(lists, first[0])

        # --- the zero-copy claim -------------------------------------- #
        pss = [_pss_of_mapping(p.pid, "shared.npz") for p in procs]
        if all(v is not None for v in pss):
            total_kib = sum(pss)
            # private copies would put this at ~NUM_PROCS x the tables;
            # shared pages split their Pss, so the sum stays ~1x.  1.5x
            # headroom absorbs page-rounding and the small CSR/meta
            assert total_kib * 1024 < 1.5 * table_bytes, (
                f"summed Pss {total_kib} KiB for {NUM_PROCS} processes "
                f"looks unshared (tables are {table_bytes // 1024} KiB)")

        # --- SIGKILL one server mid-flight ---------------------------- #
        victim = procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)

        # survivors still answer requests
        with open(os.path.join(workdir, "req"), "w") as fh:
            fh.write("1")
        answers = [os.path.join(workdir, f"answer-{i}.npy")
                   for i in range(1, NUM_PROCS)]
        assert _wait_for(answers), "survivors stopped answering"
        for p in answers:
            assert np.array_equal(np.load(p), first[0])
    finally:
        with open(os.path.join(workdir, "stop"), "w") as fh:
            fh.write("1")
        for p in procs:
            try:
                p.wait(timeout=30)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait(timeout=10)

    # no stale temp/index files next to the snapshot, no shm leaks: the
    # SIGKILLed server held only read-only mappings and its exit drops
    # them with the process
    assert not glob.glob(str(tmp_path / "*.tmp*"))
    leftovers = {os.path.basename(f) for f in glob.glob(str(tmp_path / "*"))}
    assert not {f for f in leftovers if f.endswith(".lock")
                or f.startswith("index-")}
    assert _shm_segments() <= shm_before


def test_crashed_save_leaves_recoverable_state(tmp_path):
    """A save that dies mid-write never corrupts the published artifact."""
    rng = np.random.default_rng(1)
    user = rng.standard_normal((200, 8)).astype(np.float32)
    item = rng.standard_normal((300, 8)).astype(np.float32)
    path = save_embedding_snapshot(str(tmp_path / "live.npz"), user, item)
    # simulate the torn write a crash would leave behind: a half-written
    # temp file next to the live artifact
    with open(path + ".tmp.npz", "wb") as fh:
        fh.write(b"PK\x03\x04 torn")
    # the published artifact still loads and serves
    with RecommenderService.from_snapshot(path, backend="ann",
                                          mmap=True) as service:
        assert service.recommend([0], k=5).shape == (1, 5)
    # and a fresh save of the same path replaces the torn temp file
    save_embedding_snapshot(path, user, item)
    assert not glob.glob(str(tmp_path / "*.tmp*"))
