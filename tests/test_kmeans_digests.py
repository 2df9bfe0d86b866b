"""SHA-256 pins of k-means and linear CBQ bytes.

Any change to k-means++ seeding, nearest-centroid assignment, the centroid
update, linear binning, index packing or the group split moves at least one of
these digests.  The inputs cover distinct Gaussian values, heavy duplication
(fewer distinct values than clusters, so k-means++ pads the codebook with
copies), points exactly midway between integer-valued centroids (which are
exactly on linear bin edges), constant spans that make whole groups
constant, and vectors long enough for k-means++'s value-order loop, in float64
and float32 values.
"""

import hashlib

import numpy as np
import pytest

from cbquant import core, grouping, tensorio


def gaussian(seed, n=1000):
    return np.random.default_rng(seed).normal(size=n).reshape(20, n // 20)


def duplicates(seed):
    return np.random.default_rng(seed).integers(-3, 4, size=500) * 0.125


def midpoint_ties():
    # Odd integers sit exactly midway between neighbouring even integers.
    return np.tile(np.arange(-8.0, 9.0), 20)


def constant_spans():
    return np.repeat([-2.0, -0.5, 0.0, 0.25, 4.0], [100, 60, 200, 40, 100])


def small_weights():
    return np.random.default_rng(3).normal(0.0, 0.02, size=2048).astype(np.float32)


def large_weights():
    # Just above core._SORTED_MIN_SIZE, so 6 and 8 bits take the value-order k-means++ loop.
    return np.random.default_rng(4).normal(0.0, 0.02, size=2**17 + 3)


def large_float32_weights():
    # The same size in float32 values, as every tensor of a bundle holds.
    return large_weights().astype(np.float32)


# id -> (tensor, bits, seed, group_count, max_iterations, leaves padded centroids, sha256)
CASES = {
    "gauss-b1-s0-g1": (gaussian(0), 1, 0, 1, 3, False,
                       "524391cbab13970dff6a305c2b89fbbedd153e4c2009e8a8e1889b1a4ba8d310"),
    "gauss-b3-s0-g1": (gaussian(0), 3, 0, 1, 3, False,
                       "af42c4e1b1e5d60dc1315528274482a00b9f2811d9eef99e6d8d14ea4d51e5c1"),
    "gauss-b8-s0-g1": (gaussian(0), 8, 0, 1, 3, False,
                       "bce476313e65fd12d79def110ea030c5f15aafbf98cc0188b0cf41d03fa0df82"),
    "gauss-b3-s1-g7": (gaussian(1), 3, 1, 7, 3, False,
                       "13bbff867939a619759231b27403c08d656ef39df44a3871b95344811ec86dac"),
    "gauss-b8-s1-g7": (gaussian(1), 8, 1, 7, 3, True,
                       "2600f968e824e7f222d52749b332b0999ab8d343fdc854ceea466442e1997e1f"),
    "gauss-b3-s1-g1-it20": (gaussian(1), 3, 1, 1, 20, False,
                            "4fbc7d10e560af3ae439188208c6310f03d93894e6f5fc93e7265f5819bad9f6"),
    "dup-b3-s0-g1": (duplicates(0), 3, 0, 1, 3, True,
                     "3bb8d7875f22c3fdb954e9961f3ae938e441620feb046a7f378d77515af79d9f"),
    "dup-b8-s1-g7": (duplicates(1), 8, 1, 7, 3, True,
                     "ae2c2e5db15daa29dab73ff4063fce3186a0b7b134fe75da69064f6e48b26c21"),
    "ties-b1-s0-g1": (midpoint_ties(), 1, 0, 1, 3, False,
                      "d3f2dc410b9964ab8f20b28664807a7759437ce54a72d99b8da85ffd779679f5"),
    "ties-b3-s1-g7": (midpoint_ties(), 3, 1, 7, 3, False,
                      "cabbfc966afd7b649493beeadc4e9f0a92d60457a4d7209da500d07b364f0f89"),
    "const-b3-s0-g7": (constant_spans(), 3, 0, 7, 3, True,
                       "d3ff5af10fad96c1c735a68e9a60599fcea43700f7f3a90a597b267eab9d5081"),
    "const-b1-s1-g1": (constant_spans(), 1, 1, 1, 3, False,
                       "de29075f22d3e321a39b3efc46aca317d0a2f88ec20a71f7276f073601bb4b87"),
    "const-b8-s0-g1": (constant_spans(), 8, 0, 1, 3, True,
                       "33172e7e5c83fd9ef00afbb6225c0e462779e7254de3584fad881bf62c046758"),
    "f32-b8-s0-g7": (small_weights(), 8, 0, 7, 3, False,
                     "0505000d5c435ba47617785da1bd0b1fff344616fbdd334bad90a2ffa7a62506"),
    "large-b6-s0-g1": (large_weights(), 6, 0, 1, 3, False,
                       "2ee85677b34fd53a9debd05a149764d4c815804efdc4040b4893a56827287403"),
    "large-b6-s1-g1": (large_weights(), 6, 1, 1, 3, False,
                       "895c904a6dcc2db51265fd54266bafc379f5b7e8dff759e9fdd3faac2809f46a"),
    "large-b8-s0-g1": (large_weights(), 8, 0, 1, 3, False,
                       "5b124140add219f0e89bb502e4c95a8d97d1da639e42e9011d919ac76c3d8c23"),
    "large-b8-s1-g1": (large_weights(), 8, 1, 1, 3, False,
                       "bb2b15189e35aec878f1aba07e15f4eec6929a73e34317592576b65e8b837fb5"),
    # At 6 bits and seed 0 the float32 values give the float64 case's bytes.
    "large32-b6-s0-g1": (large_float32_weights(), 6, 0, 1, 3, False,
                         "2ee85677b34fd53a9debd05a149764d4c815804efdc4040b4893a56827287403"),
    "large32-b6-s1-g1": (large_float32_weights(), 6, 1, 1, 3, False,
                         "8ef107a714593d8803fd861bc4b3322536ae39bdcecf79748e98b02a21a77a2c"),
    "large32-b8-s0-g1": (large_float32_weights(), 8, 0, 1, 3, False,
                         "32d447abd8000256db6af67768159aff0b6f5df67b72027769a78143792da469"),
    "large32-b8-s1-g1": (large_float32_weights(), 8, 1, 1, 3, False,
                         "0a71a093285d76eae7fdc3fdba5fc85d6bed743cc0c3cd502283eb115d5af283"),
}


def signed_zeros():
    # The first of two groups is all -0.0, whose sign the constant-group rule keeps.
    return np.concatenate([np.full(10, -0.0), np.linspace(-1.0, 1.0, 10)])


# id -> (tensor, bits, group_count, sha256); seed 0 and 3 iterations in the header.
LINEAR_CASES = {
    "lin-gauss-b1-g1": (gaussian(0), 1, 1,
                       "b401d3e9da944562f473a84433b9d00603d467258ef0cf26392ad5fbfacc1099"),
    "lin-gauss-b4-g1": (gaussian(0), 4, 1,
                       "6fb2703f2b5ccec39fbe28c4193b6790f4a97a3edda387941b0a63c731c7272a"),
    "lin-gauss-b8-g1": (gaussian(0), 8, 1,
                       "2582901d86f0dd8ec67640424468fcc47cbe5481e98343c0e255f89699cf9c47"),
    "lin-gauss-b4-g7": (gaussian(1), 4, 7,
                       "02f2c27e4a0fb0beaa949357ea14349a04510bb866478252e3a28317df76c034"),
    "lin-f32-b8-g7": (small_weights(), 8, 7,
                     "d28d716b013f051b5e718282e172420eedf6d1019870c2b8a2f2384af1e3d8c2"),
    "lin-gauss-b4-gn": (gaussian(2), 4, 1000,
                       "6dc8f0614acff58a2814fc060b2128696aaf47401a1722cc6f7d1c513f1a6545"),
    "lin-dup-b1-gn": (duplicates(0), 1, 500,
                     "d03f887b9e2b53f9f5dfcd73622b9e444b83955f5324f92c694cc09777a5e118"),
    "lin-const-b4-g7": (constant_spans(), 4, 7,
                       "0f9c5d66e69f94514394b2cdbce5345e3414254f8a878baf4f3fe79413aef9de"),
    "lin-edges-b4-g1": (midpoint_ties(), 4, 1,
                       "256978cb3a870e9e12792fabbef2b7dcf2e2e5808895de9e6d2073d35099a6d2"),
    "lin-edges-b3-g7": (midpoint_ties(), 3, 7,
                       "84b5988091b8e8cdb2e4cb1354de6acb3365549765662f3648f9732cd26fa79e"),
    "lin-zeros-b2-g2": (signed_zeros(), 2, 2,
                       "dd477d7c982419c92c7f8ca3543fd2f0a1a396ac4de9a4f98b6353ec19fe5435"),
}


def quantized(case):
    tensor, bits, seed, groups, iterations, _, _ = CASES[case]
    cfg = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=bits, seed=seed,
                           group_count=groups, max_iterations=iterations)
    return grouping.quantize_grouped(tensor, cfg, tensor_name="w")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cbq_digest(case):
    digest = hashlib.sha256(tensorio.write_cbq(quantized(case))).hexdigest()
    assert digest == CASES[case][-1]


@pytest.mark.parametrize("case", sorted(c for c, spec in CASES.items() if spec[5]))
def test_case_leaves_padded_centroids(case):
    g = quantized(case)
    assert any(len(set(row.tolist())) < len(row) for row in g.centroids)


@pytest.mark.parametrize("case", sorted(LINEAR_CASES))
def test_linear_cbq_digest(case):
    tensor, bits, groups, expected = LINEAR_CASES[case]
    cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=bits, group_count=groups)
    g = grouping.quantize_grouped(tensor, cfg, tensor_name="w")
    assert hashlib.sha256(tensorio.write_cbq(g)).hexdigest() == expected
