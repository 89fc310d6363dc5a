import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def bench_layers():
    sys.path.insert(0, str(SCRIPTS))
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPTS / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.path.remove(str(SCRIPTS))


CALLS = {"screened_face": 243, "prepare_mc_n256": 2, "prepare_mc_n4096": 1,
         "fit_k1_coverage": 200, "fit_k2_coverage": 200}


def _process(scale, cold=1.0):
    """One process's layers: warm figures 100, 40, 0.15, 0.3, 0.1, 0.25,
    0.22, 5 and 0.15 ms per call times ``scale``, cold figures ``cold``
    times 2 ms."""
    warm = {"fit": 1e-1, "polish": 4e-2, "screened_face": 1.5e-4, "restricted_solve": 3e-4,
            "certificate": 1e-4, "prepare_mc_n256": 2.5e-4, "prepare_mc_n4096": 2.2e-4,
            "fit_k1_coverage": 5e-3, "fit_k2_coverage": 1.5e-4}
    return {layer: {"calls": CALLS.get(layer, 24), "warm_s": value * scale,
                    "cold_s": 2e-3 * cold}
            for layer, value in warm.items()}


def test_summary_of_recorded_processes(bench_layers):
    runs = {"parent": [_process(1.0), _process(1.2), _process(0.9), _process(1.1)],
            "change": [_process(0.7), _process(0.6), _process(1.0, cold=2.0), _process(0.65)]}
    table = bench_layers.summarize(runs)
    assert list(table) == list(bench_layers.LAYERS)
    row = table["screened_face"]
    assert row["calls"] == {"parent": 243, "change": 243}
    assert row["warm_s"]["parent"]["median"] == pytest.approx(1.5e-4 * 1.05)
    assert row["warm_s"]["change"]["median"] == pytest.approx(1.5e-4 * 0.675)
    assert row["change_vs_parent"] == pytest.approx(0.675 / 1.05 - 1.0)
    # the third change process (1.0) loses to the third parent one (0.9)
    assert row["processes_won_by_change"] == 3
    assert row["cold_s"]["change"]["values"] == [2e-3, 2e-3, 4e-3, 2e-3]
    line = bench_layers.layer_line("screened_face", row)
    assert line.startswith("screened_face: warm per call parent 157.5 us")
    assert "-35.7%, won 3/4" in line and line.endswith("calls 243/243")
    for layer, calls in CALLS.items():
        assert table[layer]["calls"] == {"parent": calls, "change": calls}
    row = table["prepare_mc_n256"]
    assert row["warm_s"]["parent"]["values"] == pytest.approx([2.5e-4, 3e-4, 2.25e-4, 2.75e-4])
    assert row["change_vs_parent"] == pytest.approx(0.675 / 1.05 - 1.0)
    line = bench_layers.layer_line("fit_k1_coverage", table["fit_k1_coverage"])
    assert line.startswith("fit_k1_coverage: warm per call parent 5250.0 us")
    assert line.endswith("calls 200/200")


def test_parent_is_required(bench_layers, tmp_path):
    with pytest.raises(SystemExit):
        bench_layers.parse_args(["--change", str(tmp_path), "--out", str(tmp_path / "o.json")])
