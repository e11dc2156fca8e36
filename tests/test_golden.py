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
        "c5326a694d0aa32786a637c722da8fe18333ef67becedc754d21a9fec2e88cac",
    ),
    (
        ("timescales", "--Z", "137", "--N", "2", "--kmax", "6"),
        "cc3d37885ec5e31bdfcabe371b0e0fd8b4894aa5be7e1fd652654611b723aa2f",
    ),
    (
        ("autocorr", "--Z", "1", "--N", "20", "--samples", "300", "--tmax", "10.5"),
        "daa4d708d65ac4081e53a7f7175da935a43fff8963145b5d2e7a39077d5bf029",
    ),
    (
        ("autocorr", "--Z", "92", "--N", "20", "--unit", "kepler", "--tmin", "0.5",
         "--tmax", "3", "--samples", "200", "--no-small"),
        "d586db66c3b76691dc602148af857b0497ef4b102fd8ee055eb646f1cc4aa0fe",
    ),
    (
        ("spin", "--Z", "92", "--N", "40", "--samples", "300", "--tmax", "10.3"),
        "a1b027850bab3921c5d3bf4abfd9788254f4ab757a4097e52f5e83d14f3a1c30",
    ),
    (
        ("spin", "--Z", "92", "--N", "40", "--samples", "300", "--tmax", "10.3",
         "--no-delta"),
        "8d40cc0ca087a3bd6e86c04ed1244f61639a6f8027a71b981bbaacb6ab264c1f",
    ),
    (
        ("spin", "--Z", "54", "--N", "12", "--sigma", "1.5", "--a", "0.6", "--b", "0.8",
         "--unit", "seconds", "--tmax", "1e-13", "--samples", "150"),
        "8af126335da8aa2c9669f10b7bd943c7664aeee25f90e1d002566cb834e787a8",
    ),
    (
        ("density", "--Z", "92", "--N", "20", "--unit", "kepler", "--time", "0.37",
         "--grid", "128"),
        "a1bfb10a9afca8f56e4ceeffd989ecf934b81411f67756a240dfbc9942c2eb33",
    ),
    (
        ("density", "--Z", "82", "--N", "10", "--sigma", "1.5", "--a", "1", "--b", "0",
         "--unit", "tls", "--time", "0.8", "--grid", "40", "--extent", "2.0"),
        "f4f05aca6d2fa451701ce6b805589a483db2b40f23e7c940defcd3e57df365bc",
    ),
    (
        ("smallnorm", "--Z", "1:92:7", "--N", "10:40:10"),
        "bebdbd81aab071043eae2891b2552220ac6b0c67f12ccf08b20ff73ef675fedd",
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
