"""Golden CLI output: the sha256 of stdout and the exit code of fixed calls.

Every call prints its summary and its JSON report (``--json``), so a change
to either shows here.  Fixtures live under relative names because the report
records the sequence path.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from dynwindow import Window, write_sequence_file
from dynwindow.cli import main

# argv (space-separated) -> (exit code, sha256 of stdout)
GOLDEN = {
    "classify squares.txt": (0, "65a0986ad29c5cbfbc85593785f80db154d556b1c8236dd564ad0797a08dc23d"),
    "classify evens.txt --gap 2": (0, "09b218fcbd838cb558de5f16498cd757df8ef0061d81d352e6ec9d79b665531a"),
    "recurrence squares.txt cyclic:<=3": (0, "6cafb2906ca678fc5b792e1e3f88490571d27829ec97a516589967f759208194"),
    "recurrence squares.txt cyclic:<=3 --shifts=-2..2": (0, "a979269f29e1ad00315901ae6fb3346788745a6c85ba900de696d0b1e6cd0985"),
    "recurrence interval.txt cyclic:<=50": (0, "ab0fb4689482fb34d4dd4bf29e404812d98352e5c0dd28b37d8cc0f7fb6a04b1"),
    "recurrence squares.txt rot:golden": (0, "0ea623022b974aa08026986bab501768001037bbded642ec8077a80f614e4554"),
    "recurrence squares.txt rot:golden --shifts=-2..2": (0, "c6d7941fdcca1ef5b6c8bdc760e1842fce4424ce8fbe35e9cf0d366b3138c843"),
    "recurrence evens.txt rot:0.25,0.5": (0, "1b7e1a97c4e8502c81af6b7265d29473c6fe2d5d74de762bee1940eb26481ca5"),
    "recurrence evens.txt rot:0.25,0.5 --shifts=-2..2": (0, "9d0a76685deea0c7c6ecc32d74a1ffec60e625935945a07f236f9b92b878ce55"),
    "recurrence evens.txt skew:golden": (0, "c5a8ca7a15b73b8ccef4f68c9f225beefbfd93835eb9abb1dba990b1de949bd3"),
    "recurrence evens.txt skew:golden --shifts=-2..2": (0, "39dfe6b465b86ab6158da72947ee46faf9a1c7a7c1995ceb82a3b15306fab6c0"),
    "recurrence squares.txt rot:1/3": (0, "f9ffed4a125ffb06548f27df25a71d483de80a3092247ba9649383ff3d10c7d0"),
    "recurrence squares.txt rot:1/3 --shifts=-2..2": (0, "c705378332f1e55f9ad05a3531ef83b54637f706670e2b4cde7092352bd50687"),
    "recurrence interval.txt rot:golden --eps 0.1 --start-grid 0.5": (0, "3ba2efbf6d87fc006605d83311e87fff214bbe7ec301a5a02db1305a70fd9146"),
    "crosscheck squares.txt --max-period 3 --shifts=-2..2": (0, "1d03ad2d08506718621e88a1c8f1ebe8077d9fb05a85cb15f80ade09b92f4b53"),
    "crosscheck evens.txt --max-period 5": (0, "ea3fc2d89e729b3a102fdb09def5d8f67aa571ffb1941d4cfbb464a369920570"),
    "crosscheck --count 5 --horizon 500 --seed 7": (0, "69a17e0adabb11890725bc42a966716cc55c1d1572cf26abf533137128ce98bd"),
    "permpoly check x^2+3x+1 --p 7": (0, "4824fb0ebd5ba1c6da0ec8a2d9c2657913a1b4af2dc6fe1c7991eb6cb9251722"),
    "permpoly check x^3 --p 11": (0, "234e3eec551d7aa45b5382e4cee4c655b4f6bda02d2d56ff21d71046c4723cb5"),
    "permpoly find-prime x^2 --cap 100": (0, "562ef17ce53b27bbc3f1749fd07c321c3ea71d279ca7e3895879e2e923e766d0"),
    "permpoly find-prime x^3+x --cap 1000": (0, "f39f64624a89a0deade7b14b2f31445da362cc77409af45ee5c3b7760e51b21a"),
    "construct example --blocks 8": (0, "4175528f108f9d74785ddb58a5204511f18ef1ceaf690244444fa18eb1a010af"),
    "product cyclic:2 cyclic:3": (0, "889d0c2996c10b84614e07bc4339855702f83a19a304e1adc1ddbdb689cf7c0c"),
    "product cyclic:2 cyclic:2": (0, "41aae519255b848f267be3be5e13c579fc624bc83af75db24bc9bbfddf87b485"),
    "recurrence squares.txt odo:2^3": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # Elements above 2^62: residues and shifts take the Python path.
    "recurrence huge.txt cyclic:<=7 --shifts=-3..3": (0, "f51d94d8486c9f32a3ef2acb0ac321f7f4a6146ad8c56f8c04c496a8e2526e14"),
    "recurrence squares.txt cyclic:<=50 --shifts=-10..10": (0, "f272a338af188798237bba3874f3bf9ab5e793db7af2ca22665624923d433a96"),
    # {0, 1, 2, 3} hugs 0, so the three predicates disagree at m = 2.
    "crosscheck low.txt --max-period 3 --shifts=-2..2": (0, "fb269f727c0e4d8c3f5abbdcc03c532abd6967e5d20bd95ebce8c14b0dc67a39"),
    # Torus corners: a non-dyadic skew angle, an exact 2-d rotation, and a
    # failing 2-d float rotation whose witness is a tuple cell.
    # Its float states land on cell edges: cells are the exact floor of x * k
    # since the cell-edge fix (15 -> 13 cells hit; the verdict is unchanged).
    "recurrence evens.txt skew:0.3": (0, "866aa82772e248ea71c16d35c37816244ec4a13608fd109809db488da964c049"),
    "recurrence squares.txt rot:2/7,1/3": (0, "89a0d1fc449910ffa5c950bd770ceb6b9c265fcc15a1af128cc357cb0c5980f4"),
    "recurrence squares.txt rot:golden,0.41421356 --eps 0.02": (0, "18780578982093df4408f580d0ad90346db83ea46234e9a0351ff55a0ca669b1"),
    # Off the common layout, so parsed line by line: CRLF line ends (translated
    # on read), and leading zeros with comment and blank lines in the body.
    "classify crlf.txt --gap 30": (0, "f189310fc566ccf2cb30cc57c9d0b1aff79849cb2017a266fc2907a28964b8fb"),
    "recurrence crlf.txt cyclic:<=3": (0, "2d89efc171268521efe47cb4f81408316279304ba1d316f84038427f0faf8b57"),
    "classify zeros.txt": (0, "1fb162963b24f1339019d3af61754c10788db4319ecda8e9f8b49973212cfd47"),
    "recurrence zeros.txt cyclic:<=3 --shifts=-1..1": (0, "a437a8379ded0975b702994920ae43e2c7a561e31eeee0a957e01b3899d4050c"),
}


@pytest.fixture
def fixture_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_sequence_file("squares.txt", Window(tuple(n * n for n in range(101)), 10_000), "squares")
    write_sequence_file("evens.txt", Window(tuple(range(0, 1001, 2)), 1000))
    write_sequence_file("interval.txt", Window(tuple(range(101)), 100))
    write_sequence_file("huge.txt", Window(tuple(2 ** 63 + k * k for k in range(101)), 2 ** 63 + 10_000))
    write_sequence_file("low.txt", Window((0, 1, 2, 3), 50))
    Path("crlf.txt").write_bytes(b"!horizon 100\r\n# crlf\r\n3\r\n9\r\n27\r\n81\r\n")
    Path("zeros.txt").write_bytes(b"!horizon 100\n# header\n007\n# body comment\n010\n\n042\n")


@pytest.mark.parametrize("call", list(GOLDEN))
def test_cli_output_matches_golden_digest(fixture_dir, capsys, call):
    code = main(call.split() + ["--json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == GOLDEN[call]

