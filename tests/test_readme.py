"""The README's examples, run as written, against what the README quotes.

The quick-start snippet is executed, and the shell sessions are replayed in
one directory: ``cat FILE`` writes the quoted text to FILE, ``head -N FILE``
must print the quoted lines, and ``pdfactor ...`` runs the CLI in process,
must exit 0 and must print what is quoted. Quoted JSON may elide entries
with ``...``. Counts, flags, strings and CSV lines must match exactly,
other floats to 1e-12 relative (a quoted 0.0 exactly); residuals, and
nonzero floats quoted below 1e-13 (roundoff), only need to stay at or below
1e-13.
"""

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from pdfactor.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FENCES = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
ROUNDOFF = 1e-13


def _sessions():
    """(command, quoted output) for every ``$`` line of the shell fences, in
    README order; a trailing backslash continues a command."""
    out = []
    for lang, body in FENCES:
        if lang or not body.startswith("$ "):
            continue
        lines = body.splitlines()
        i = 0
        while i < len(lines):
            cmd = lines[i][2:]
            while cmd.endswith("\\"):
                i += 1
                cmd = cmd[:-1] + lines[i].strip()
            i += 1
            quoted = []
            while i < len(lines) and not lines[i].startswith("$ "):
                quoted.append(lines[i])
                i += 1
            out.append((cmd, "\n".join(quoted).strip("\n")))
    return out


def _match(quoted, actual, elided, key=None):
    """quoted against actual, recursively; elided lists may be shorter."""
    if isinstance(quoted, dict):
        assert set(quoted) == set(actual)
        for k in quoted:
            _match(quoted[k], actual[k], elided, k)
    elif isinstance(quoted, list):
        assert len(quoted) <= len(actual) if elided else len(quoted) == len(actual)
        for q, a in zip(quoted, actual):
            _match(q, a, elided, key)
    elif isinstance(quoted, float):
        assert isinstance(actual, float), key
        if key == "residual" or 0.0 < abs(quoted) < ROUNDOFF:
            assert abs(quoted) <= ROUNDOFF and abs(actual) <= ROUNDOFF, key
        else:
            assert math.isclose(actual, quoted, rel_tol=1e-12), (key, actual, quoted)
    else:
        assert type(actual) is type(quoted) and actual == quoted, (key, actual)


def _match_json(quoted_text, printed):
    """Quoted JSON, with its ``...`` lines and the commas before them
    dropped, against the JSON printed."""
    kept = re.sub(r"^\s*\.\.\.\n", "", quoted_text + "\n", flags=re.M)
    quoted = json.loads(re.sub(r",(\s*[\]}])", r"\1", kept))
    _match(quoted, json.loads(printed), elided=kept != quoted_text + "\n")


def test_quick_start(capsys):
    (code,) = [body for lang, body in FENCES if lang == "python"]
    exec(compile(code, "README quick start", "exec"), {})
    printed = capsys.readouterr().out.split()
    quoted = code.strip().splitlines()[-1].lstrip("# ").split()
    assert printed[:2] == quoted[:2]  # factor count, passed
    assert float(printed[2]) <= ROUNDOFF and float(quoted[2]) <= ROUNDOFF


def test_command_line_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    printed = {}
    for cmd, quoted in _sessions():
        argv = shlex.split(cmd)
        if argv[0] == "cat":
            Path(argv[1]).write_text(quoted + "\n", encoding="utf-8")
        elif argv[0] == "head":
            lines = Path(argv[2]).read_text(encoding="utf-8").splitlines()
            assert lines[:int(argv[1].lstrip("-"))] == quoted.splitlines()
        elif argv[0] == "pdfactor":
            assert main(argv[1:]) == 0, cmd
            printed[argv[1]] = capsys.readouterr().out
            if quoted:
                _match_json(quoted, printed[argv[1]])
        else:
            pytest.fail(f"README runs a command this test cannot replay: {cmd}")
    assert set(printed) == {"factor", "verify", "sweep", "simulate"}

    # "Prints the same report as factor."
    assert printed["verify"] == printed["factor"]
    # The CSV headers quoted for simulate's output files.
    headers = dict(re.findall(r"`(\w+\.csv)`\s+\(`([^`]+)`", README))
    assert set(headers) == {"run_trajectory.csv", "run_covariance.csv"}
    for name, header in headers.items():
        first = Path(name).read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith(header.rstrip("."))
    # Where the quoted sweep crosses a half turn.
    (crossing,) = re.findall(r"crosses 180 degrees near theta ([\d.]+)", README)
    table = np.loadtxt("sweep.csv", delimiter=",", skiprows=1)
    i = int(np.argmax(table[:, 2] >= 180.0))
    (t0, _, p0), (t1, _, p1) = table[i - 1], table[i]
    theta = t0 + (180.0 - p0) * (t1 - t0) / (p1 - p0)
    assert f"{theta:.2f}" == crossing
