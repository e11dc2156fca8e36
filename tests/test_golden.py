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
        "b984c258171bbf996b525eb214cc0bee52f4b81d91fdbe054c5808002f2d3c36",
    ),
    (
        ("timescales", "--Z", "137", "--N", "2", "--kmax", "6"),
        "e4758178f035bb9fde7fb398e5e70e6f65fc4b2bfe9b79b8b710f29d713dfd95",
    ),
    (
        ("autocorr", "--Z", "1", "--N", "20", "--samples", "300", "--tmax", "10.5"),
        "a9b1c033ee983c16b21c9664e44b32bf8042619f1328e6cab24a8500b4c31cdd",
    ),
    (
        ("autocorr", "--Z", "92", "--N", "20", "--unit", "kepler", "--tmin", "0.5",
         "--tmax", "3", "--samples", "200", "--no-small"),
        "a2f39c544960023334332c8b4a3b1bcf56bbdae6e3681179eb13d07a4b202a5a",
    ),
    (
        ("spin", "--Z", "92", "--N", "40", "--samples", "300", "--tmax", "10.3"),
        "5fdfe42fa8160b96d7ad49a44ff23263cfc1d5b8c18bc9ea859f398de3e87671",
    ),
    (
        ("spin", "--Z", "92", "--N", "40", "--samples", "300", "--tmax", "10.3",
         "--no-delta"),
        "c4423d092ca470b60c68bca5ec95feae077fdaea546065b288e2281c83ab44e5",
    ),
    (
        ("spin", "--Z", "54", "--N", "12", "--sigma", "1.5", "--a", "0.6", "--b", "0.8",
         "--unit", "seconds", "--tmax", "1e-13", "--samples", "150"),
        "dd90b1ce8fc87fe7a2b418500bbc74ed0a74251328680b5d95c21bdd61627287",
    ),
    (
        ("density", "--Z", "92", "--N", "20", "--unit", "kepler", "--time", "0.37",
         "--grid", "128"),
        "6d77707f849537f1196927d407fd4c039f5ad216424bce539217361489db1a64",
    ),
    (
        ("density", "--Z", "82", "--N", "10", "--sigma", "1.5", "--a", "1", "--b", "0",
         "--unit", "tls", "--time", "0.8", "--grid", "40", "--extent", "2.0"),
        "0bcfac39c654de744b8237afb1f4a64add730a1160774fcf282684729c750dfc",
    ),
    (
        ("smallnorm", "--Z", "1:92:7", "--N", "10:40:10"),
        "be53182d401ecb5889f1561ed35721a749937652fdd5966e7d081f8ac4216366",
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
