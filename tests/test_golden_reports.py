"""Behaviour oracle: the bundled scenarios' reports, byte for byte.

``hiershare run <name>`` at the scenario's default seed must write a
``.report`` whose sha256 equals the digest recorded when the report format
was fixed. A change meant to preserve behaviour keeps these digests;
``perfbench/oracle.py`` checks the same digests plus the slower
``bench-63``.
"""

import hashlib

import pytest

from hiershare.cli import main

GOLDEN_REPORT_SHA256 = {
    "demo-7user": "b8bc54d96e3d688a0b652855d962aa5206b536d39c12e5f53fadaae908a88293",
    "figure2-leave": "9cd01956c543ad9e70889b99512b8ccd7381d01c4c91c4671b996c488851457d",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_SHA256))
def test_bundled_report_digest(tmp_path, name):
    assert main(["run", name, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{name}.report").read_bytes()).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256[name]
