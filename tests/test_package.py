"""The package's layout: its public names, and no private name shared across modules."""

import ast
from pathlib import Path

import orthovol

SRC = Path(__file__).resolve().parent.parent / "src" / "orthovol"


def test_no_private_name_imported_from_a_sibling():
    # a sibling that needs another module's private name means a quantity
    # with two routes, or a public one missing
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert found == []


def test_public_names():
    # one route per quantity: the n = 2 kernel is volume_kernel(2, l), and
    # rogers_l stays in orthovol.special
    assert sorted(orthovol.__all__) == [
        "BoundResult", "KernelValue", "NonConvergenceError", "SpectrumFormatError",
        "collar_volume_factor", "inner_kernel", "parse_spectrum", "power_law_floor",
        "small_length_constant", "spectrum_volume", "volume_bound", "volume_kernel",
    ]
    assert all(hasattr(orthovol, name) for name in orthovol.__all__)
    assert not hasattr(orthovol, "surface_kernel")
    assert not hasattr(orthovol, "rogers_l")
