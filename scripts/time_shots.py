"""Time noiseless shots-mode evaluations, warm and in process.

Prints one line per case: the best of --repeat warm `mp2_energy` calls at
theta = 0, seed 11, for h4_2.6 (8 qubits) and LiH 3.1 in its full space
(12 qubits, no active space frozen), at 2000 and 100 000 shots.

Usage:
    PYTHONPATH=src python scripts/time_shots.py [--repeat 3]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from omp2sim.chem import parse_fcidump
from omp2sim.omp2 import Estimator, EstimatorConfig, ThetaParams

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "omp2sim" / "data" / "fixtures"


def best_time(est: Estimator, repeat: int) -> float:
    theta = ThetaParams.zeros(est.n_qubits, est.n_electrons)
    est.mp2_energy(theta)  # warm: groups, sector and rotations cached
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        est.mp2_energy(theta)
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    for name in ("h4_2.6", "lih_3.1"):
        mi = parse_fcidump(FIXTURES / f"{name}.fcidump")
        for shots in (2000, 100_000):
            est = Estimator(mi, EstimatorConfig(mode="shots", shots=shots, seed=11))
            print(f"{name} ({est.n_qubits} qubits) {shots} shots: {best_time(est, args.repeat):.3f} s")


if __name__ == "__main__":
    main()
