"""The seed tree: stable, path-keyed, process-independent seeds."""

import subprocess
import sys

import pytest

from repro.parallel.seedtree import derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "T7", 0, 2) == derive_seed(7, "T7", 0, 2)

    def test_root_matters(self):
        assert derive_seed(7, "T7") != derive_seed(8, "T7")

    def test_path_matters(self):
        assert derive_seed(7, "T7", 0) != derive_seed(7, "T7", 1)
        assert derive_seed(7, "T2") != derive_seed(7, "T7")

    def test_order_sensitive(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_prefix_stable(self):
        # Extending a path never changes the seeds of its siblings.
        before = derive_seed(3, "exp", 0)
        derive_seed(3, "exp", 0, "deeper", 5)
        assert derive_seed(3, "exp", 0) == before

    def test_63_bit_range(self):
        for path in (("x",), (0,), (1.5,), ("a", 2, 0.25)):
            seed = derive_seed(12345, *path)
            assert 0 <= seed < 2**63

    def test_float_labels_by_bits(self):
        assert derive_seed(0, 0.1) != derive_seed(0, 0.2)
        # A float and the int it equals are distinct labels.
        assert derive_seed(0, 1.0) != derive_seed(0, 1)
        # And distinct from the string that formats the same.
        assert derive_seed(0, 0.25) != derive_seed(0, "0.25")

    def test_rejects_bool_and_other_types(self):
        with pytest.raises(TypeError):
            derive_seed(0, True)
        with pytest.raises(TypeError):
            derive_seed(0, None)
        with pytest.raises(TypeError):
            derive_seed(0, (1, 2))

    def test_identical_across_interpreters(self):
        # The whole point: no PYTHONHASHSEED dependence.  A fresh
        # interpreter (different hash salt) derives the same seed.
        expected = derive_seed(42, "T7", 3, 0.1)
        script = (
            "from repro.parallel.seedtree import derive_seed;"
            "print(derive_seed(42, 'T7', 3, 0.1))"
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert int(output) == expected
