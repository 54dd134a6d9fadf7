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
    "classify squares.txt": (0, "41bb23c20be1c8caad8a6141c379a7f153d7c145f5ce28077f6b62179416f34d"),
    "classify evens.txt --gap 2": (0, "8ac2457d67e9d984b0568b03e01923f74050c1e3ff76669ca93ef31b032370ba"),
    "recurrence squares.txt cyclic:<=3": (0, "bc5e7dc54b403ecd8523f6073bbfdbb69b03a7b9b1d7bb6bd16ac1439d032930"),
    "recurrence squares.txt cyclic:<=3 --shifts=-2..2": (0, "56db2647e115168bea90b36dac057367e3d9c6dec00db0fd607b836a0c6ba0f0"),
    "recurrence interval.txt cyclic:<=50": (0, "51c5fd5366b0387fe273a3ddf913feafa64b80de81ec755e13f53e98dd691458"),
    "recurrence squares.txt rot:golden": (0, "defbe855a077ebfdaa4877827b46dfc488464163e39fd291d1b8e59f335f9780"),
    "recurrence squares.txt rot:golden --shifts=-2..2": (0, "1717273018fd96be7b99a85de779eec9190a85113e26796105c129aba912f540"),
    "recurrence evens.txt rot:0.25,0.5": (0, "f45abe6467c014ca1c92126f21249d9a70ffdd3bbfe848a20c8de5fbdc07d0f3"),
    "recurrence evens.txt rot:0.25,0.5 --shifts=-2..2": (0, "27de02761606122f5fa081aac22487cee0795222f8bef0c2f49f629717ff6b95"),
    "recurrence evens.txt skew:golden": (0, "33e2d04edc7a9ae2e0e27d4c098e1130e2c8649be1f099ea9418175dc478a326"),
    "recurrence evens.txt skew:golden --shifts=-2..2": (0, "77daa33aa5c0736a1537059f92e2bd1c545882494ace64993d7a3cd320fc6b80"),
    "recurrence squares.txt rot:1/3": (0, "daaaf1ad45aa2f526738ace6f8b6b376129da61aa73f80d22e470fc6bad3427d"),
    "recurrence squares.txt rot:1/3 --shifts=-2..2": (0, "137b4ee137d266c74b7843511d021e2d9a0e2731beeae0d7dfe4b864c3e718be"),
    "recurrence interval.txt rot:golden --eps 0.1 --start-grid 0.5": (0, "5f95e73444458d208812a361f74e4c25f0e493a52f6d151ded4a7cdfb2aafcdb"),
    "crosscheck squares.txt --max-period 3 --shifts=-2..2": (0, "1d03ad2d08506718621e88a1c8f1ebe8077d9fb05a85cb15f80ade09b92f4b53"),
    "crosscheck evens.txt --max-period 5": (0, "ea3fc2d89e729b3a102fdb09def5d8f67aa571ffb1941d4cfbb464a369920570"),
    "crosscheck --count 5 --horizon 500 --seed 7": (0, "69a17e0adabb11890725bc42a966716cc55c1d1572cf26abf533137128ce98bd"),
    "permpoly check x^2+3x+1 --p 7": (0, "1cff16abdd93ae91d39eec44cb48d6f9098e0cee5b06aa95907ab8e12d3b9ea8"),
    "permpoly check x^3 --p 11": (0, "9bfe8f52eebce9dabb315066c5851a642fb132cf0d17a8cb4d02d4974b9a0e66"),
    "permpoly find-prime x^2 --cap 100": (0, "4b6d009e3fcb43ae4631c5b114bb6867ff30d49319f3845d1a720d73e65a7b0a"),
    "permpoly find-prime x^3+x --cap 1000": (0, "5ee84a5939889e178166ee00da9d03fbbe74d2160e8c3f17acdac3358d77343e"),
    "construct example --blocks 8": (0, "f33203ff03e70d620d34058094a89d4fea39f687e4ea22af3692b9401f7de000"),
    "product cyclic:2 cyclic:3": (0, "7acef7d39e253c7febc4ce896cca305af39bcb2cdcfb2e1a281f3d2d55e5fd08"),
    "product cyclic:2 cyclic:2": (0, "4e538d229b661b2f2b79c3b498f3ae44eae194529b6392c85547740820333e4e"),
    "recurrence squares.txt odo:2^3": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # Horizon above 2^62: residues and shifts run on arrays of Python ints.
    "recurrence huge.txt cyclic:<=7 --shifts=-3..3": (0, "f14efd2c821e53fc903f03a038a2fbee9c7529632b40c8fb101287ea65301f4b"),
    "recurrence squares.txt cyclic:<=50 --shifts=-10..10": (0, "ec7e396f367fab98a8b04e5b32b086f7ea4b5aeeed63743fa9153f447291007f"),
    # {0, 1, 2, 3} hugs 0, so the three predicates disagree at m = 2.
    "crosscheck low.txt --max-period 3 --shifts=-2..2": (0, "fb269f727c0e4d8c3f5abbdcc03c532abd6967e5d20bd95ebce8c14b0dc67a39"),
    # Torus corners: a non-dyadic skew angle, an exact 2-d rotation, and a
    # failing 2-d float rotation whose witness is a tuple cell.
    # Its float states land on cell edges: cells are the exact floor of x * k
    # since the cell-edge fix (15 -> 13 cells hit; the verdict is unchanged).
    "recurrence evens.txt skew:0.3": (0, "e5f6374797ba197a9680e10e5f2601a8835f1320d3408f8c8fd3e7884b0f7664"),
    "recurrence squares.txt rot:2/7,1/3": (0, "36eb6e28b553420d42883d22702388199b6c59414959479921707a690abf0697"),
    "recurrence squares.txt rot:golden,0.41421356 --eps 0.02": (0, "b8e9e61da0b128073691d0639df51d641614b66ff67c498bc549d50eb05b5ca0"),
    # Off the common layout, so parsed line by line: CRLF line ends (translated
    # on read), and leading zeros with comment and blank lines in the body.
    "classify crlf.txt --gap 30": (0, "20538a4e3fff8015e0247456909332727ea9662a1c67ae48cab77912a550f9fe"),
    "recurrence crlf.txt cyclic:<=3": (0, "55364a49c5d0a3537a186d172c4ba22ecaf18df0447c9d9e6abf0f6213bbf9f0"),
    "classify zeros.txt": (0, "5c3a87023a4250bf8439b7d69512106dafc589294dcd4650402a8657bd216900"),
    "recurrence zeros.txt cyclic:<=3 --shifts=-1..1": (0, "ed98c03f0ed594a9a9233a280022774c904392f3a2cfa33b0c25eaa5b0319f75"),
    # The permpoly calls of the cli-files benchmark (seed 1), an unreduced f,
    # F_2, the zero polynomial and prime searches at degrees 4-6.
    "permpoly check 1x^5+170x^4+11560x^3+393040x^2+6681680x+45435426 --p 199": (0, "da96ebc23f89451544114a23693774b4551ce013940d68443fde8452b3db9c06"),
    "permpoly check 1x^3+633x^2+133563x+9394083 --p 401": (0, "1b0e97b093186ab20f04edbab7227caf8d7dd1eb752e3d2bd9ac1a1dee32ac61"),
    "permpoly check 147x^4+64x^3+68x^2+134x+13 --p 151": (0, "6b99aed3e2d0657ad1adf62634f3fd11e034aabe916edfe472d988e90d4379b3"),
    "permpoly check 289x^6+258x^5+269x^4+182x^3+55x^2+238x+297 --p 307": (0, "aa37a58f63dd966b04808ce97984b4be072331dd442936436e9fe0d29c34f665"),
    "permpoly find-prime 29001x^2+45x+31 --cap 40000": (0, "5a2615393fe7328640c0bc870ecd9635a6a422d7e0945a2bdd6ede76c8c7e042"),
    "permpoly find-prime 29766x^3-4x^2-28x-31 --cap 40000": (0, "9e34fa362b2bcf2e52828769d596ed1721780810c9c36eb573e267a9a431fe0e"),
    "permpoly check x^13+x --p 11": (0, "24b9756dd2d542005779f3165049f89efc42b7824622591eccb12269038ea021"),
    "permpoly check x+1 --p 2": (0, "35f9d147b7a01528f3f5db8364b27cfc37754d7cecf01e2a4229a8a8f505870d"),
    "permpoly check 0 --p 5": (0, "9a33ff82c1713b6b9a3a36e2fc1eecd44aa3c04195b667c8c6be95c2697f9a97"),
    "permpoly find-prime 2003x^4-3x+7 --cap 10000": (0, "83b2036cc6dbc8c575244119d5fe5c3d265c7696ebe55ca3c12ab13768cdef90"),
    "permpoly find-prime 1001x^5+x^2-4 --cap 10000": (0, "a9a86387dfeeead2472f9cdb1fec60f73e187a3c590c9ecee11d825f6e350748"),
    "permpoly find-prime 307x^6-x^2+5 --cap 10000": (0, "070af30a7a9a6d58e87b80832ddffd8dbbc5309161869117914add52e9cfb835"),
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

