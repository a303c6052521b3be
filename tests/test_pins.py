"""CLI artifacts pinned by their sha256, on every platform of the CI matrix.

Each case writes its config, and the field file that `signed.json` names by a relative path,
into a fresh directory, runs one command through `latticeheat.cli.main` from there and hashes
one artifact. The configs are kept byte for byte.

- Three bisections at alpha 2 and 1/2 (14, 19 and 15 probes): the kernel runs no `np.power`
  there, so `bisection.csv` has the same bytes everywhere. On the 48x48 box, survivors below
  the certificate's edge stop at step 0, certified over the remaining 100 steps, which the
  infinite sum never certifies.
- A 12x12 sweep at alpha 1/2, 1 and 2 runs six amplitudes, blow-ups and survivals, on one
  stepper per alpha. Only the first four columns of `sweep.csv` are pinned, as
  `bound_value`'s last bits come from BLAS.
- At alpha 1, where the arithmetic is exact:
  - `trajectory.csv` of a run that rests at step 1065 and repeats its last record to 10^4;
  - `verify.json` for the README's example config (truncated at `defined_up_to` 0), for that
    resting run (10,001 steps compared), and for a 6x6x6 cube, whose stencil divides by 6,
    compared over all its 301 steps;
  - `verify.json` for a 6x5 field file with -0.0 on its boundary and on a quarter of its
    interior, whose step 0 compares the flow's +0.0 copy of the data with the stepper's,
    over 201 steps. Its config names the field by a relative path, which `verify.json`
    echoes, so it runs from the directory that holds both;
  - `trajectory.csv` of a one-site box, which rests at step 1, so it repeats "0,0,0" from a
    step number below 100 up to 10^4, across 10, 100, 1,000 and 10,000, where the writer's
    blocks of a hundred rows start and step numbers gain a digit;
  - `verify.json` for an 8x8 box that stops comparing at step 29 of 2,000 (P_s reaches 1), so
    it lists 2,001 partial sums that the linear flow computes alone, in blocks of 16 states,
    the last of them partial.
  - the 6x6x6 cube's `trajectory.csv` and `bisection.csv` (14 probes), and `verify.json` for a
    3x3x3x3x3 box of random data over 301 steps: their stencils divide by 6 and 10, and fold
    the faces into that divide.
- `bound.json` at alpha 2 on the signed sine mode (2, 1, 1) of a 6x5x4 box, whose linear flow
  keeps the face fills; its head sums m_0..m_5. Like `bound_value` in `sweep.csv`, its
  `B_max` and tail come from np.sin, np.cos and a BLAS product, so their last bits could
  differ on another BLAS or SIMD build.
"""

import hashlib

import pytest

from latticeheat import domain
from latticeheat.cli import EXIT_OK, main

CONFIGS = {
    "config.json": '{"extents": [4], "alpha": 1.0, "delta": 1.0, "steps": 100, "amplitude": 0.9,\n'
                   ' "init": {"kind": "constant_interior"}}\n',
    "rest.json": '{"extents": [3, 3], "alpha": 1.0, "delta": 1.0, "steps": 10000, '
                 '"amplitude": 0.001,\n'
                 ' "init": {"kind": "constant_interior"}}\n',
    "sq.json": '{"extents": [12, 12], "alpha": 2.0, "delta": 0.5, "steps": 300,\n'
               ' "init": {"kind": "constant_interior"}}\n',
    "half.json": '{"extents": [12, 12], "alpha": 0.5, "delta": 2.0, "steps": 300,\n'
                 ' "init": {"kind": "delta_center"}}\n',
    "wide.json": '{"extents": [48, 48], "alpha": 2.0, "delta": 0.5, "steps": 100,\n'
                 ' "init": {"kind": "constant_interior"}}\n',
    "sweep.json": '{"extents": [12, 12], "alpha": 1.0, "delta": 1.0, "steps": 300,\n'
                  ' "init": {"kind": "constant_interior"},\n'
                  ' "sweep": {"alphas": [0.5, 1.0, 2.0], '
                  '"amplitudes": [1e-06, 0.0001, 0.001, 0.01, 0.1, 1.0]}}\n',
    "cube.json": '{"extents": [6, 6, 6], "alpha": 1.0, "delta": 1.0, "steps": 300, '
                 '"amplitude": 0.05,\n'
                 ' "init": {"kind": "constant_interior"}}\n',
    "early.json": '{"extents": [8, 8], "alpha": 1.0, "delta": 1.0, "steps": 2000, '
                  '"amplitude": 0.06,\n'
                  ' "init": {"kind": "constant_interior"}}\n',
    "field.json": '{"extents": [6, 5],\n'
                  ' "values": [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0,\n'
                  '            -0.0, -0.0, 0.0625, 0.03125, -0.0, -0.0,\n'
                  '            -0.0, 0.125, -0.0, 0.0625, 0.03125, -0.0,\n'
                  '            -0.0, 0.0625, 0.125, -0.0, 0.0625, -0.0,\n'
                  '            -0.0, -0.0, 0.03125, 0.125, 0.0625, -0.0,\n'
                  '            -0.0, 0.03125, -0.0, 0.0625, -0.0, -0.0,\n'
                  '            -0.0, -0.0, -0.0, -0.0, -0.0, -0.0]}\n',
    "signed.json": '{"extents": [6, 5], "alpha": 1.0, "delta": 1.0, "steps": 200, '
                   '"amplitude": 1.0,\n'
                   ' "init": {"kind": "file", "path": "field.json"}}\n',
    "five.json": '{"extents": [3, 3, 3, 3, 3], "alpha": 1.0, "delta": 1.0, "steps": 300, '
                 '"amplitude": 0.5,\n'
                 ' "init": {"kind": "random", "seed": 5, "max_amplitude": 1.0}}\n',
    "mode.json": '{"extents": [6, 5, 4], "alpha": 2.0, "delta": 0.5, "steps": 100, '
                 '"amplitude": 0.5,\n'
                 ' "init": {"kind": "sine_mode", "mode": [2, 1, 1]}}\n',
    "low.json": '{"extents": [2], "alpha": 1.0, "delta": 1.0, "steps": 10000, "amplitude": 0.5,\n'
                ' "init": {"kind": "constant_interior"}}\n',
}

# (command, config, --out, artifact, sha256)
PINS = [
    ("threshold", "sq.json", "sq", "bisection.csv",
     "e4eb0bb7b3c89e92f4edc3e0ff90c6ffea38517c102ced78ce846a75770a963f"),
    ("threshold", "half.json", "half", "bisection.csv",
     "95d08c5af7e26e2f81018f92a6f66bb7b93994bda53bec4b7cc02cb7bbd2db91"),
    ("threshold", "wide.json", "wide", "bisection.csv",
     "3c0f139fb4bdcc7d9d6449b401971da45918201d86b8b6571586a78318195613"),
    ("sweep", "sweep.json", "sweep", "sweep.csv",  # its first four columns
     "3ff436c8bcf48b7cbaab9e0868f0a746460cd660f9c051a3e9af74d6e2078ea2"),
    ("simulate", "rest.json", "rest", "trajectory.csv",
     "b322340b74d41512503be9fa1a75fa38c42554662f8c15906a9201f44a253ec9"),
    ("verify", "config.json", "verify", "verify.json",
     "ed912c664724688f1262856f4737ed9ecb54a5d399485622a0a797721de611b4"),
    ("verify", "rest.json", "rest-verify", "verify.json",
     "6d81929444444f06661f3b87d962d8e72bf6d4e7fb65206da285144c45fb8a24"),
    ("verify", "cube.json", "cube", "verify.json",
     "b617e68188becb78775c361833ae6670c24c2104eb5c44973a0c1636d5d334a5"),
    ("verify", "signed.json", "signed", "verify.json",
     "79185f865b108d7541d411dbc4b3f318b30e685d2a848a1f6d1c6e6bbc3729a1"),
    ("verify", "early.json", "early", "verify.json",
     "3d73d5541c57651a69163b67e6e90a95f812eb5a98498bc5c78d988c94c3c4df"),
    ("simulate", "low.json", "low", "trajectory.csv",
     "2cf220ca3f11cab3ccd47298331644f9f4e2354ca9c6b170fcb5927e26a8812b"),
    ("simulate", "cube.json", "cube-run", "trajectory.csv",
     "6c4a9452c5fd48f59c09f2990a1c9db7fb8d48e39430a24292f9755920ab9a2e"),
    ("threshold", "cube.json", "cube-threshold", "bisection.csv",
     "4b7621e7be21b915bf6deff9485380d1ea09edd24b3c6d7e2772e797da5cc745"),
    ("verify", "five.json", "five", "verify.json",
     "b236d6c64a9827829be5714685a0e3bd13361fde9069aad624d4d7ba82eb4ca3"),
    ("bound", "mode.json", "mode", "bound.json",
     "cd6d1f5402b3202e2268b7c991f27c2754520457a35e1090ccf54a8d644857ef"),
]


def _first_four_columns(data: bytes) -> bytes:
    """`cut -d, -f1-4` of a CSV file with one record per line."""
    return b"".join(b",".join(line.split(b",")[:4]) + b"\n" for line in data.splitlines())


@pytest.mark.parametrize("command, config, out, artifact, digest", PINS,
                         ids=[f"{out}/{artifact}" for _, _, out, artifact, _ in PINS])
def test_artifact_keeps_its_pinned_sha256(tmp_path, monkeypatch, capsys, command, config, out,
                                          artifact, digest):
    for name in (config, "field.json"):
        (tmp_path / name).write_bytes(CONFIGS[name].encode())
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", config, "--out", out]) == EXIT_OK
    data = (tmp_path / out / artifact).read_bytes()
    if artifact == "sweep.csv":
        data = _first_four_columns(data)
    assert hashlib.sha256(data).hexdigest() == digest


ORTHANT_PINS = [pin for pin in PINS if pin[3] in ("bisection.csv", "sweep.csv")]


@pytest.mark.parametrize("command, config, out, artifact, digest", ORTHANT_PINS,
                         ids=[f"{out}/{artifact}" for _, _, out, artifact, _ in ORTHANT_PINS])
def test_orthant_artifact_keeps_its_pinned_sha256(tmp_path, monkeypatch, capsys, command, config,
                                                  out, artifact, digest):
    # the searches and the sweep again, with every mirror-symmetric probe on the orthant: the
    # constant and centred-delta data of all five, whose boxes but 48x48 are below the cutoff
    monkeypatch.setattr(domain, "_ORTHANT_MIN_SITES", 0)
    test_artifact_keeps_its_pinned_sha256(tmp_path, monkeypatch, capsys, command, config, out,
                                          artifact, digest)
