"""The comparison of ``tools/digest.py`` on hand-made records."""

import importlib.util
import math
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parents[1] / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def record(bounds, gammas):
    out = {"interval/0/lower": (-1.5).hex(), "mc/m5/p_hat": (0.95).hex(), "panels/k0": "ab"}
    for i, (b, g) in enumerate(zip(bounds, gammas)):
        out[f"bound/k{i}/bound"], out[f"bound/k{i}/gamma_star"] = b.hex(), g.hex()
    return out


def test_identical_records_compare_clean():
    old = record([0.9, 0.8], [1.0, 0.0])
    lines, code = digest.compare(dict(old), old)
    assert code == 0
    assert lines == ["entries 7: 0 differ", "  by prefix: interval 0, mc 0, panels 0, bound 0",
                     "  endpoints 1: max relative move 0, bit-identical 1",
                     "  bounds 2: max |bound diff| 0, max |gamma* diff| 0, bit-identical 2"]


def test_report_counts_prefixes_and_bound_moves():
    old = record([0.9, 0.8, 0.7], [1.0, 0.0, 2.0])
    new = record([math.nextafter(0.9, 1.0), 0.8, 0.7 - 3e-12], [1.0, 1e-6, 2.0])
    new["covered/m5"] = "cd"  # on one side only
    del new["panels/k0"]
    lines, code = digest.compare(new, old)
    assert code == 1
    assert lines[:4] == [
        "entries 9: 5 differ",
        "  by prefix: interval 0, mc 0, bound 3, covered 1, panels 1",
        "  endpoints 1: max relative move 0, bit-identical 1",
        "  bounds 3: max |bound diff| 3e-12, max |gamma* diff| 1e-06, bit-identical 1",
    ]
    assert lines[4:] == [f"  {k}: {old.get(k)} -> {new.get(k)}" for k in (
        "bound/k0/bound", "bound/k1/gamma_star", "bound/k2/bound", "covered/m5", "panels/k0")]


def test_report_gives_the_largest_relative_endpoint_move():
    old = record([0.9], [1.0])
    old["interval/0/upper"], old["interval/1/lower"] = (2.0).hex(), (0.0).hex()
    old["interval/0/h_residual_lo"] = (1e-12).hex()
    new = dict(old)
    new["interval/0/lower"] = (-1.5 * (1.0 + 4e-14)).hex()
    new["interval/0/upper"] = math.nextafter(2.0, 3.0).hex()
    new["interval/0/h_residual_lo"] = (1e-6).hex()  # not an endpoint
    new["interval/2/lower"] = (1.0).hex()  # on one side only
    lines, code = digest.compare(new, old)
    assert code == 1
    assert lines[2] == "  endpoints 3: max relative move 4e-14, bit-identical 1"
