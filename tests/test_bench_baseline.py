"""The benchmark's frozen baseline package stays byte for byte as recorded.

``item_rel_p50`` divides each item's time by the time of the same item on
``bench/baseline/sampdisc``, so an edit there would rescale every ratio
without any test noticing.  This test only reads the files.
"""

import hashlib
from pathlib import Path

BASELINE = Path(__file__).resolve().parents[1] / "bench" / "baseline" / "sampdisc"

SHA256 = {
    "__init__.py": "1b592a9757f3e0bc8f15879ab90929eed4d0dc5c6a724856c8e7b816886c2988",
    "cli.py": "ba000a9cfa58e94dda356eec171a35cb6fe2507222bfab81e2e6f06d738e8721",
    "discretize.py": "90ce0db5ef87369f2a18894cb482162d4da9fd4b5252dfaa43b764cdc12046ab",
    "errors.py": "9ef91edbf03368ec82523c634a7307a454162fefc69796aa22aba31c0998846e",
    "frame_core.py": "405546805630dd5379fe664f62e34d2d6ced96e484b1475f72222e2c0caf2a21",
    "halving_select.py": "36bd319b915db90f7763e14f9beaf91a1f7f0dd9a0e2325a96965ae7e107e718",
    "partition_oracle.py": "f31acc25a6873caaf980fb37894fa4b19f42517a5ea9b4712ce7646e0b7e2630",
    "systems_io.py": "dad0f9c76de7e524b1ff66cf95fce52dab5c58c37ee1fbf2e04e51665811226a",
    "verify.py": "0a60ccbe5031a07494816ec4d59462e8df21a68915247844b8c268d346bbcf7f",
    "weighted_sparsify.py": "49731bfed8ec68257b60738b290971dc4d40374d16d19e1553d605bdbc84fd2c",
}


def test_frozen_baseline_files_are_unchanged():
    # only regular files count: importing the baseline may add __pycache__
    found = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in BASELINE.iterdir()
        if path.is_file()
    }
    assert found == SHA256
