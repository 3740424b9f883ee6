#!/usr/bin/env python
"""Symbolic sizes: what can a compiler decide before run time?

The paper's motivating setting (§5): some operand sizes are unknown at
compile time, so algorithm selection "must be delayed until run time".
This example shows what *can* be decided early with the symbolic FLOP
machinery:

1. print each algorithm's FLOP count as an explicit polynomial in the
   instance dimensions;
2. with two of the three ``A·Aᵀ·B`` sizes fixed and ``d0`` symbolic,
   compute the set of algorithms that can be FLOP-cheapest for *some*
   value of ``d0`` — everything else can be discarded at compile time;
3. locate the abrupt-change positions of the kernels' performance
   profiles (the paper conjectures these localise severe-anomaly
   regions) so the run-time dispatcher knows where FLOPs alone are
   untrustworthy.

Run:  python examples/symbolic_sizes.py
"""

from __future__ import annotations

from repro import SimulatedBackend, get_expression
from repro.core.symbolic import flop_polynomial, possibly_cheapest
from repro.kernels.types import KernelName
from repro.profiles.abrupt import find_abrupt_changes, scan_efficiency

NAMES = ("d0", "d1", "d2")
FIXED = {1: 400, 2: 400}  # d1, d2 known at compile time; d0 symbolic
BOUNDS_LO, BOUNDS_HI = (20, 20, 20), (1200, 1200, 1200)


def main() -> None:
    aatb = get_expression("aatb")
    algorithms = aatb.algorithms()

    print("FLOP polynomials (A ∈ R^{d0×d1}, B ∈ R^{d0×d2}):")
    for algorithm in algorithms:
        poly = flop_polynomial(algorithm)
        print(f"  {algorithm.name:<24} {poly.expanded(NAMES)}")

    result = possibly_cheapest(algorithms, FIXED, BOUNDS_LO, BOUNDS_HI)
    print(
        f"\nwith d1={FIXED[1]}, d2={FIXED[2]} fixed and d0 ∈ "
        f"[{BOUNDS_LO[0]}, {BOUNDS_HI[0]}] symbolic:"
    )
    keep = [algorithms[i].name for i in result.certain]
    drop = [
        a.name for i, a in enumerate(algorithms) if i not in result.candidates
    ]
    print(f"  can be cheapest for some d0 : {', '.join(keep)}")
    print(f"  never cheapest (discard now): {', '.join(drop) or '(none)'}")
    print(f"  analysis exact: {result.exact}")

    print(
        "\nabrupt kernel-efficiency changes along d0 "
        "(candidate severe-anomaly frontiers, paper §5):"
    )
    backend = SimulatedBackend()
    for kernel, base in (
        (KernelName.SYRK, (0, FIXED[1])),
        (KernelName.SYMM, (0, FIXED[2])),
        (KernelName.GEMM, (0, FIXED[1], 0)),
    ):
        dims = tuple(b if b else 600 for b in base)
        series = scan_efficiency(
            backend, kernel, dims, axis=0, positions=range(200, 1100, 10)
        )
        changes = find_abrupt_changes(
            series, kernel=kernel, axis=0, threshold=0.08
        )
        spots = ", ".join(
            f"d0≈{c.position} ({c.before:.2f}→{c.after:.2f})" for c in changes
        )
        print(f"  {kernel.value:<5} {spots or '(none — gradual only)'}")

    print(
        "\nA run-time dispatcher therefore needs only: the shortlist "
        "above, plus a profiled-time tie-break near the abrupt-change "
        "frontiers (see examples/discriminant_upgrade.py)."
    )


if __name__ == "__main__":
    main()
