"""Write the predict-large binaries and their ground truth.

Runs as its own process so that the generators' temporary arrays (a few
hundred MB for a 4 MiB endian stream) do not raise the benchmark's peak
RSS. Usage:

    python3 perfbench/mix.py --seed S --mixes K --len BYTES --probe-len BYTES --out DIR

Mix k (k = 1..K) is made on derived_seed(S, k), apart from the training
corpora made on S. Writes DIR/m<k-1>_<isa>.bin for each mix's six binaries,
DIR/probe_synthW32_0.bin (the warm-up and cold-start input, on the first
mix's seed) and DIR/truth.json mapping each name to the traits its
generator label fixes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from isatraits.corpus import generate_synthetic_endian, generate_synthetic_fixedwidth  # noqa: E402

from workloads import derived_seed, known_traits  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mixes", type=int, required=True)
    parser.add_argument("--len", type=int, required=True)
    parser.add_argument("--probe-len", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    truth = {}

    def write(prefix: str, manifest) -> None:
        for ref in manifest.samples:
            name = prefix + ref.isa_name
            (args.out / f"{name}.bin").write_bytes(ref.data)
            truth[name] = known_traits(manifest.label_of(ref))

    for k in range(args.mixes):
        seed = derived_seed(args.seed, k + 1)
        write(f"m{k}_", generate_synthetic_fixedwidth([16, 32, 64], 1, 1, args.len, 1, seed))
        write(f"m{k}_", generate_synthetic_endian(1, 1, args.len, seed))
    write("probe_", generate_synthetic_fixedwidth(
        [32], 1, 1, args.probe_len, 0, derived_seed(args.seed, 1)))
    (args.out / "truth.json").write_text(json.dumps(truth, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
