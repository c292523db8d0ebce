"""CLI outputs pinned by their sha256 digests.

A change meant to keep every output byte-identical has to keep these
digests.  Each case runs `cli.main` in-process on one command and hashes
what it wrote: stdout, or the file for `export-cnf`.  `decide` JSON is
hashed without its `wall_time`, re-serialised as the command prints it.
`analyze` reads the paper construction of the same parts.

Two smaller pins ride along: the exact text and JSON of the `diameter` and
`brute-force` reports, unreachable pairs included, and the digest of
`encode_diameter2`'s `(clauses, stats)` as its repr, which fixes clause
order and variable numbering beyond the one exported file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from orientdiam import cli
from orientdiam.cnf import encode_diameter2


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def _analyze(parts, tmp_path):
    path = tmp_path / "construction.json"
    path.write_text(_cli("construct", "--parts", parts), encoding="utf-8")
    return _cli("analyze", "--format", "json", "--file", str(path))


def _decide(parts, tmp_path):
    doc = json.loads(_cli("decide", "--parts", parts))
    del doc["stats"]["wall_time"]
    return json.dumps(doc, indent=2) + "\n"


def _export_cnf(parts, tmp_path):
    path = tmp_path / "instance.cnf"
    _cli("export-cnf", "--parts", parts, "--out", str(path))
    return path.read_text(encoding="utf-8")


OUTPUTS = {
    "construct": lambda parts, tmp_path: _cli("construct", "--parts", parts),
    "tournament": lambda parts, tmp_path: _cli("construct", "--parts", parts,
                                               "--scheme", "tournament"),
    "middle-layer": lambda parts, tmp_path: _cli("construct", "--parts", parts,
                                                 "--scheme", "middle-layer"),
    "analyze": _analyze,
    "decide": _decide,
    "export-cnf": _export_cnf,
    "enumerate": lambda parts, tmp_path: _cli("enumerate", "--parts", parts, "--limit", "5"),
}

DIGESTS = {
    ("construct", "3,3,3"):
        "e27198eeb172bfec241e0a27d9ecfd6d2e70c1a89b69203193e5320ae1135c32",
    ("construct", "3,3,4"):
        "4b93175cdf648552895433cb3b9a5675679dbc5ae1254cf2f28f0ba86340ef6a",
    ("construct", "3,3,5"):
        "ff628fc67588f10f261f31e06bc9e28f25a7280f8453afc39d036e167be14f5c",
    ("construct", "3,3,6"):
        "e444216ce0c089be047d2eb0d6e36ac23d0a3ed3804caaf12a184766ae42e2a3",
    ("construct", "3,4,4"):
        "07f87985e9efada36bc43f65b1a3880303036816f919a2ef667d77b0117bd885",
    ("construct", "3,4,5"):
        "3a7e3fb21d73098bd3fedadf2ff8eef0da8e004ebb6c056fae65a1dd812bc68c",
    ("construct", "3,4,6"):
        "361d32f8f7b18ce419ab7545d522fd12efae3bae11b320da8e53947b5dcd87bb",
    ("construct", "3,4,7"):
        "e04690943d7b325264b490376afd6a0bb607cc93b1bd6bd76f9c7563968bdae6",
    ("construct", "3,4,8"):
        "a9ee3ec6e86b9d43aab240d7bbf6a14f660f62653b62555eb94bed017a3fa75d",
    ("construct", "3,4,9"):
        "7d6ca2f46d9f1adb068c863e7effa74b9e55c5bf804eb675acd19e375e31a0fe",
    ("construct", "3,4,10"):
        "91c226c0f612014d38f855281dca920854f76301638af8403f01f699cbe36b84",
    ("construct", "3,4,11"):
        "a6b107e19bd6800f93894126042ee800b5743ef37ff451ce6428887395a48404",
    ("tournament", "1,1,1"):
        "2dfbcf9442ec1d87e9de3d411d64de98969390c9f9601b63f407ba13d059249a",
    ("tournament", "1,1,1,1"):
        "df0c0e83a320b3563df26004cae8b923bf818d643ff568cf805632889d68aed0",
    ("tournament", "1,1,1,1,1"):
        "49018996848a293edd56642794de7d62d29d7af04359ec98e0b5c63706f46c9d",
    ("tournament", "1,1,1,1,1,1"):
        "b33df2bacb391c43df9f3ca9db2c9aea7c1a2c7a83ab6ad8d999a6aa496f22e0",
    ("middle-layer", "4,6"):
        "cda67fce74219c364b039445c7251d899cc8a22df24bf930f1c235f8834410ec",
    ("analyze", "3,3,3"):
        "4132e983154941331ff13398e0149f775b3ac697d9d999a69ca8dc31dfc9a9fd",
    ("analyze", "3,3,4"):
        "3d50c9ea148bd13264fd49dcfba3e15741a86ca99b33f8d238270522374eed7b",
    ("analyze", "3,3,5"):
        "25e8643069d60f5103d69daad898673540af67b3354b4a458dfcb237c1cc5347",
    ("analyze", "3,3,6"):
        "3b68373dd2eecd3cc609e3f78779fc45f15db36900f4ef430274b18659ffe259",
    ("analyze", "3,4,4"):
        "d7c2c80881fc31af3fc2ac4914fe65c83fd24875dddb5e0a0f5463f4790f4522",
    ("analyze", "3,4,5"):
        "c3ad506f8c1cefcb5089b6d3bf6280887d9f60165669dbdd9f861053b55a9526",
    ("analyze", "3,4,6"):
        "3057281acb20a86532920094908f337dade78310e442e623df560935d54c9c85",
    ("analyze", "3,4,7"):
        "f97fc0c408c576537438aa9487decb8d2fbad18063f0df73ebfe0bbc02b6d558",
    ("analyze", "3,4,8"):
        "4444378f53fbb2aa1a18e47fea1e987c7df51765bcd9421939d6ee710b95d9d4",
    ("analyze", "3,4,9"):
        "94252f79bfd556554e4352bc5d9bd4631c7785d97a11541ed0c4c9cd57e90f01",
    ("analyze", "3,4,10"):
        "c05b52ab7c404e870a77c484ff041ad59be91c4022719b71599560c5f450b5a9",
    ("analyze", "3,4,11"):
        "0d8f970cad288e3a31dbb6f02e5b4a15817e2504dd1246ee31186084907cc4f5",
    ("decide", "3,3,7"):
        "0f612620fdaacba1c2e7a7eb2d5051413bf29dde108d807b83edf28da6c5d186",
    ("decide", "3,4,12"):
        "4a14f9c43f4d7b4990730bcecd9262991ea57cac29d842421030da52cf4b5eaf",
    ("decide", "3,4,11"):
        "2746b574bc878470950fd1d02b39f98f9530230cd2e5c83a080440841c6ed1a4",
    ("decide", "4,4,26"):
        "c007098d8e4f92e83f6e500150a30b9c2c237f5f2163cc7c75c5c6b8eb8e8e4d",
    ("export-cnf", "3,3,7"):
        "1bcabfc369ddbe8698023d0357c41a2ecc964935e4885cd7108b2527868ada78",
    ("export-cnf", "3,4,12"):
        "decf7647f90e14f361a06022dfbfd64eec62743f0a1b575e8df2e094d1dbf358",
    ("enumerate", "2,2,2"):
        "52b86b74bd3c94cc5d055dabcb4177f78f2399df47037f3d891d397b7d9e5c9a",
}


@pytest.mark.parametrize("kind,parts", DIGESTS, ids=[f"{k} {p}" for k, p in DIGESTS])
def test_output_digest(kind, parts, tmp_path):
    text = OUTPUTS[kind](parts, tmp_path)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[kind, parts]


# the digests above never reach an infinite distance, a null or a zero
@pytest.mark.parametrize("argv,expected", [
    (["diameter"], "infinite\n"),
    (["diameter", "--format", "json"], '{"parts":[1,1,1],"diameter":null}\n'),
    (["brute-force", "--parts", "1,1"], "infinite\n"),
    (["brute-force", "--parts", "1,1", "--format", "json"],
     '{"parts":[1,1],"oriented_diameter":null}\n'),
    (["brute-force", "--parts", "1", "--format", "json"],
     '{"parts":[1],"oriented_diameter":0}\n'),
])
def test_distance_report(argv, expected, tmp_path):
    if argv[0] == "diameter":
        path = tmp_path / "transitive.json"
        path.write_text('{"parts":[1,1,1],"arcs":[[0,1],[0,2],[1,2]]}', encoding="utf-8")
        argv = argv + ["--file", str(path)]
    assert _cli(*argv) == expected


# no edges, a one-column lex row (k = 1), four parts, and K(3,4,12)
ENCODINGS = {
    (5,): "a1199de3ed4f0de548125257dfe03bd863d09bca1e5bcf320dc17d0cb57f3b0b",
    (1, 4): "f1fcc442b7abe1fbbfb79993241cb6a8046b7188392e295ee4788c416b25e3f0",
    (2, 2, 2): "86f3f40959352896d1ed917517eee7284cac912f83919079b0feac34cccfeb08",
    (1, 2, 3, 4): "b3da55aba4227a303766631a86a63f0635ee83d1e8d991fe6acef9772bc461a4",
    (3, 4, 12): "f844e7385852318288701f7bbf1187f22aa685111b33ded526961e2a184679b5",
}


@pytest.mark.parametrize("parts", ENCODINGS, ids=[",".join(map(str, p)) for p in ENCODINGS])
def test_encoding_digest(parts):
    encoded = repr(encode_diameter2(parts))
    assert hashlib.sha256(encoded.encode("utf-8")).hexdigest() == ENCODINGS[parts]
