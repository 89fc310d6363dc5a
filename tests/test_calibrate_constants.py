import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from tvtrend.diffops import ActiveSet

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def calibrate(monkeypatch):
    """The script as a module, with ``build_noisy`` returning vectors that
    reach |q_j| = 1 at their first dictionary row: no threshold multiplier
    keeps such a vector inside its caps."""
    spec = importlib.util.spec_from_file_location("calibrate_constants",
                                                  SCRIPTS / "calibrate_constants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    build_noisy = module.build_noisy

    def touching(S):
        vec = build_noisy(S)
        q = vec.q.copy()
        q[0] = 1.0
        return dataclasses.replace(vec, q=q)

    monkeypatch.setattr(module, "build_noisy", touching)
    return module


def test_required_ck_is_infinite_with_its_vector(calibrate):
    S = ActiveSet.from_lengths(2, (16, 20), (1,))
    c_req, vec = calibrate.required_ck(S)
    assert c_req == math.inf and vec.q[0] == 1.0


def test_main_reports_an_infinite_requirement(calibrate, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["calibrate_constants.py", "--count", "3"])
    assert calibrate.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["1"], ["2"], ["3"], ["4"])]
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    assert all(row[1] == "inf" for row in rows)
