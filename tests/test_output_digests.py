"""Byte identity of the measure reports.

The digests were taken from the Fraction/AffElem implementation of
`measures.convolve` that the integer-keyed one replaced; the reports of
both must agree byte for byte at fixed flags and seed.
"""

import hashlib

import pytest

from orchardlab import cli

CASES = [
    (["flatten", "--field", "7", "--gen-count", "16", "--m-max", "1",
      "--seed", "5"],
     "c43cb3e5aa5c135855a075774ace7b67972d7ded3142de5dd5977438e7617bcf"),
    (["flatten", "--field", "3^2", "--gen-count", "8", "--m-max", "1",
      "--seed", "5"],
     "df0172e87b246243fee0f81cad012cfc2641973a1352c825e4e656aaa391cda2"),
    (["bsg-verify", "--field", "7", "--count", "20", "--max-support", "20",
      "--K", "2", "--seed", "5"],
     "2d4e933a6d97391fc38a3fbceb6e615b29c953a4f28b9a76e0b81100b634dd61"),
]


@pytest.mark.parametrize("args,digest", CASES, ids=["flatten-f7", "flatten-f9", "bsg-f7"])
def test_measure_report_digest(tmp_path, args, digest):
    out = tmp_path / "report"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
