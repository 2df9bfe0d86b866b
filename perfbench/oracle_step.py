"""Oracle sandwich step of the paper-eval workload.

Usage:
    python3 oracle_step.py BUNDLE.json OUT.json --sample N --bits B --seed S

Takes N evenly spaced elements of the first tensor in BUNDLE.json, finds the
exact optimal clustering into 2**B clusters with ``dp_optimal_quantize``,
quantizes the same sample with the linear and k-means schemes, and scores
both labelings with ``partition_cost``.  Writes the three SSE values to
OUT.json; the benchmark checks that the optimum bounds both schemes.
"""

import argparse
import json

import numpy as np

from cbquant import core, oracle, tensorio


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bundle")
    parser.add_argument("output")
    parser.add_argument("--sample", type=int, required=True)
    parser.add_argument("--bits", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    tensors = tensorio.read_bundle(args.bundle)
    flat = next(iter(tensors.values())).reshape(-1)
    positions = np.linspace(0, flat.size - 1, args.sample).astype(np.int64)
    sample = flat[positions].astype(np.float64)

    result = {"optimal_sse": oracle.dp_optimal_quantize(sample, 1 << args.bits).sse}
    for scheme in (core.Scheme.LINEAR, core.Scheme.KMEANS):
        cfg = core.QuantConfig(scheme=scheme, bits=args.bits, seed=args.seed)
        labels = core.quantize(sample, cfg, tensor_name="oracle").indices.labels
        result[f"{scheme.name.lower()}_sse"] = oracle.partition_cost(sample, labels)
    with open(args.output, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
