import json
import math
import os
import tempfile
import unittest

import numpy as np

from decayinv import (GeometricTail, IndexWindow, LatticeMatrix,
                      ParameterError, ToeplitzSymbol,
                      geometric_inverse_toeplitz, load_matrix, make_toeplitz,
                      random_decay_matrix, save_matrix)


class RoundTripTest(unittest.TestCase):
    """save_matrix / load_matrix must reproduce entries bit for bit and
    rebuild the symbol metadata."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.window = IndexWindow(-12, 11)

    def tearDown(self):
        self.dir.cleanup()

    def path(self, name):
        return os.path.join(self.dir.name, name)

    def test_geometric_symbol_round_trip(self):
        A = geometric_inverse_toeplitz(0.37, self.window, scale=1.5)
        save_matrix(A, self.path("geo.mtx"))
        B = load_matrix(self.path("geo.mtx"))
        self.assertTrue(np.array_equal(A.entries, B.entries))
        self.assertEqual(B.window, A.window)
        self.assertEqual(B.symbol.geometric.ratio, A.symbol.geometric.ratio)
        self.assertEqual(B.symbol.geometric.scale, A.symbol.geometric.scale)

    def test_finite_symbol_round_trip(self):
        sym = ToeplitzSymbol({0: 1.0, 1: -0.25 + 0.1j, -3: 0.05j})
        A = make_toeplitz(sym, self.window)
        save_matrix(A, self.path("fin.mtx"))
        B = load_matrix(self.path("fin.mtx"))
        self.assertTrue(np.array_equal(A.entries, B.entries))
        self.assertEqual(B.symbol.coeffs, sym.coeffs)
        self.assertIsNone(B.symbol.geometric)

    def test_random_general_round_trip(self):
        A = random_decay_matrix(self.window, 2.0, 0.3, seed=[5, 1])
        save_matrix(A, self.path("rand.mtx"))
        B = load_matrix(self.path("rand.mtx"))
        self.assertTrue(np.array_equal(A.entries, B.entries))
        self.assertIsNone(B.symbol)
        with open(self.path("rand.mtx.json")) as fh:
            self.assertEqual(set(json.load(fh)), {"lo", "hi", "symbol"})

    def test_awkward_floats_survive(self):
        entries = np.full((self.window.n, self.window.n),
                          math.pi * 1e-15 + 1j / 3.0)
        entries[0, 0] = 1e300 + 1e-300j
        A = LatticeMatrix(self.window, entries)
        save_matrix(A, self.path("awk.mtx"))
        B = load_matrix(self.path("awk.mtx"))
        self.assertTrue(np.array_equal(A.entries, B.entries))

    def test_extension_is_normalized(self):
        A = random_decay_matrix(self.window, 2.0, 0.2, seed=[5, 2])
        save_matrix(A, self.path("noext"))
        self.assertTrue(os.path.exists(self.path("noext.mtx")))
        self.assertTrue(os.path.exists(self.path("noext.mtx.json")))
        B = load_matrix(self.path("noext"))
        self.assertTrue(np.array_equal(A.entries, B.entries))

    def test_missing_sidecar_raises(self):
        A = random_decay_matrix(self.window, 2.0, 0.2, seed=[5, 3])
        save_matrix(A, self.path("m.mtx"))
        os.remove(self.path("m.mtx.json"))
        with self.assertRaises(ParameterError):
            load_matrix(self.path("m.mtx"))

    def save_with_tag(self, A, name, tag, bandwidth):
        """save_matrix, with the structure tag and bandwidth that older
        sidecars carry, in their key order."""
        save_matrix(A, self.path(name))
        with open(self.path(name + ".json")) as fh:
            meta = json.load(fh)
        meta = {"lo": meta["lo"], "hi": meta["hi"], "tag": tag,
                "bandwidth": bandwidth, "symbol": meta["symbol"]}
        with open(self.path(name + ".json"), "w") as fh:
            json.dump(meta, fh, indent=1)
            fh.write("\n")

    def test_tagged_sidecar_loads(self):
        # the tag is ignored, and the bandwidth is checked and dropped
        A = LatticeMatrix(self.window, np.eye(self.window.n))
        self.save_with_tag(A, "band.mtx", "banded", 0)
        B = load_matrix(self.path("band.mtx"))
        self.assertTrue(np.array_equal(A.entries, B.entries))
        self.assertIsNone(B.symbol)
        T = geometric_inverse_toeplitz(0.37, self.window)
        self.save_with_tag(T, "geo.mtx", "toeplitz", None)
        B = load_matrix(self.path("geo.mtx"))
        self.assertTrue(np.array_equal(T.entries, B.entries))
        self.assertEqual(B.symbol.geometric.ratio, T.symbol.geometric.ratio)

    def test_tagged_sidecar_bandwidth_is_checked(self):
        entries = np.eye(self.window.n)
        entries[0, 2] = 0.5
        A = LatticeMatrix(self.window, entries)
        for bw in (0, 1):
            self.save_with_tag(A, f"band{bw}.mtx", "banded", bw)
            with self.assertRaisesRegex(ParameterError, "bandwidth"):
                load_matrix(self.path(f"band{bw}.mtx"))
        self.save_with_tag(A, "band2.mtx", "banded", 2)
        B = load_matrix(self.path("band2.mtx"))
        self.assertTrue(np.array_equal(A.entries, B.entries))


if __name__ == "__main__":
    unittest.main()
