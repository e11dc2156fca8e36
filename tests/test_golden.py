"""Golden SHA-256 digests of small CLI outputs.

One case per subcommand, plus both time-series switches, an explicit
density window and every time unit.  A refactor that claims to keep the
output byte-identical must leave these digests alone, and every output
must still reproduce itself when fed back through ``--config`` and come
out byte for byte the same on stdout as in the ``--out`` file.

The digests were recorded with CPython 3.11, NumPy 2.4 on x86-64 Linux.
A different libm or NumPy build may round a last digit differently; a
digest change on such a platform is not by itself a regression.
"""

import hashlib

import pytest

from diracpacket.cli import main

GOLDEN = [
    (
        ("timescales", "--Z", "1:92:13", "--N", "2:30:7"),
        "56284af496ca44711cbd37962ea13364599b8a075f51106c913f52a10b2df9e5",
    ),
    (
        ("timescales", "--Z", "137", "--N", "2", "--kmax", "6"),
        "9666c2cfd91a1bd24dbbc8fc366d7346cad60bfe46145c7eca3b4aef79ccffa7",
    ),
    (
        ("autocorr", "--Z", "1", "--N", "20", "--samples", "300", "--tmax", "10.5"),
        "5a9c079c9dbb18286367a8c0ff10b3d87be4e67469f235d098d4dc69ecc09803",
    ),
    (
        ("autocorr", "--Z", "92", "--N", "20", "--unit", "kepler", "--tmin", "0.5",
         "--tmax", "3", "--samples", "200", "--no-small"),
        "3b70bab5b7659d8c38f5d1a36b8fdf3f926d1bf0745d2acf676257b64ccc3f7c",
    ),
    (
        ("spin", "--Z", "92", "--N", "40", "--samples", "300", "--tmax", "10.3"),
        "fb472c45a4d01a6443914ca554d47e1d5a3366e91057a4c09bf9013800e3797e",
    ),
    (
        ("spin", "--Z", "92", "--N", "40", "--samples", "300", "--tmax", "10.3",
         "--no-delta"),
        "4a0845b13b06b81ba0bd729c84adeeead0e71de98cdbb1327772a1be5163dc63",
    ),
    (
        ("spin", "--Z", "54", "--N", "12", "--sigma", "1.5", "--a", "0.6", "--b", "0.8",
         "--unit", "seconds", "--tmax", "1e-13", "--samples", "150"),
        "d513b2caf4d9cf806075dc1c7062b8ce09552629a51d2dcd06515bc3893bab47",
    ),
    (
        ("density", "--Z", "92", "--N", "20", "--unit", "kepler", "--time", "0.37",
         "--grid", "128"),
        "742e9175c74e6cbbf35573fade5d407c8328f52135896fc4b0deb1aebce8e0e5",
    ),
    (
        ("density", "--Z", "82", "--N", "10", "--sigma", "1.5", "--a", "1", "--b", "0",
         "--unit", "tls", "--time", "0.8", "--grid", "40", "--extent", "2.0"),
        "a0fc7f4275ac744ac48c4e993d44a0abf25acf2ff4f5b6eb253c42de766f4196",
    ),
    (
        ("smallnorm", "--Z", "1:92:7", "--N", "10:40:10"),
        "1505038c156d6ebc65e856c542d112fef55e1cac5719aae94ac3d7895ab4011d",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN, ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(GOLDEN)]
)
def test_cli_output_digest_and_config_round_trip(tmp_path, capsys, argv, digest):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(list(argv) + ["--out", str(first)]) == 0
    assert hashlib.sha256(first.read_bytes()).hexdigest() == digest
    assert main([argv[0], "--config", str(first), "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    # Without --out the same bytes go to stdout.
    capsys.readouterr()
    assert main(list(argv)) == 0
    assert capsys.readouterr().out.encode("utf-8") == first.read_bytes()
