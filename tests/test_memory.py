"""Peak memory of ``simulate`` and ``process`` does not grow with the frame count.

Each command runs as a child process, so its peak resident set size
(``ru_maxrss`` from ``os.wait4``) is its own. A bundled-config frame is
196,608 bytes in the file and twice that as complex128, so a command that
held every frame of 400 would grow by tens of MB over one of 50 frames.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
GROWTH_LIMIT_MB = 10.0
# static clutter and noise: cheap frames to synthesize, at the bundled frame size
SCENE = {"clutter": [{"range_m": 3.0, "azimuth_deg": 20.0}], "noise_std": 0.01, "seed": 3}


def peak_rss_mb(*argv) -> float:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen([sys.executable, "-m", "floorwatch.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, f"{argv[0]} exited {proc.returncode}"
    return usage.ru_maxrss / 1024.0  # KB on Linux


def test_simulate_and_process_peak_memory_does_not_grow_with_frames(tmp_path):
    peaks = {}
    for n_frames in (50, 400):
        scene = tmp_path / f"scene{n_frames}.json"
        scene.write_text(json.dumps(dict(SCENE, n_frames=n_frames)))
        rec = tmp_path / f"r{n_frames}.rec"
        peaks["simulate", n_frames] = peak_rss_mb("simulate", "--scene", str(scene),
                                                  "--out", str(rec))
        peaks["process", n_frames] = peak_rss_mb("process", "--recording", str(rec),
                                                 "--out", str(tmp_path / f"d{n_frames}.csv"))
    for command in ("simulate", "process"):
        growth = peaks[command, 400] - peaks[command, 50]
        assert growth <= GROWTH_LIMIT_MB, (command, peaks)
