"""Byte identity of the command-line output.

Each command below runs in-process through ``cli.main``; its exit code and
the sha256 digest of its stdout must equal the pinned values, and it must
write nothing to stderr.  The digests were computed at ``c7d77ad``, before
the order side returned its polynomials instead of records; those of the
closed forms at n = 32 were computed at ``22b9aa7``, before each closed-form
sum was built as one term list; those of the widest basins at p = 2 were
computed at ``5e0608a``, before ``ClassAtlas`` seeded its anchors from
``padic.anchor_lattice``.  A change that alters an output on purpose
updates the digest and says why in CHANGES.md.
"""

import hashlib

import pytest

from impactzeta.cli import main

CASES = ("ramified", "unramified", "split")

COMMANDS = [
    # The three benchmark invocations (bench/workloads.py).
    "verify --suite identities --max-n 32 --format json",
    "verify --suite oracle --max-n 7 --max-d 16 --format json",
    "verify --suite arithmetic --max-contribution 7 --format json",
    "verify --suite all",
    "verify --suite all --format json",
]
for _case in CASES:
    COMMANDS += [
        f"zeta --case {_case} -n 8 --series-terms 10",
        f"zeta --case {_case} -n 8 --series-terms 10 --format json",
        f"zeta --case {_case} -n 32 --format json",
        f"genfun --basin {_case} --m 3 -n 32 --format json",
        f"genfun --basin {_case} --m 3 -n 6 --series-terms 10",
        f"counts --basin {_case} --m 2 -n 3 --max-d 12 --format csv",
        f"enumerate --case {_case} --p 3 -n 2 --max-contribution 5 --format csv",
        f"tree --basin {_case} --m 2 --radius 2 --format dot",
    ]
# Placement at p = 2 on the widest basins: the split apartment out to
# anchors -7 and 7, and the ramified edge at n = 2.
COMMANDS += [
    "enumerate --case split --p 2 -n 0 --max-contribution 7 --format csv",
    "enumerate --case ramified --p 2 -n 2 --max-contribution 7 --format csv",
]

# command -> (exit code, sha256 of stdout)
GOLDEN = {
    "verify --suite identities --max-n 32 --format json": (0, "80b6064b6a5e047f77d9657a0bb9f74f7ae9dd0d8c4593fe3b8195bedfa1f5cf"),
    "verify --suite oracle --max-n 7 --max-d 16 --format json": (0, "f2e3ddbe0cb8787ef79af6e52b947cf08a3cd5932739b0eeb4812d4e318831bf"),
    "verify --suite arithmetic --max-contribution 7 --format json": (0, "2bd9894f852c7e1ee8c19cd13e4a9e57cf5f29c9a2a45ae429e26454e1003b9b"),
    "verify --suite all": (0, "89bd8a022324fe4999cf86dfa788b3f796c005d0d612a2e1d1d94c662f3a995c"),
    "verify --suite all --format json": (0, "99aaca4a61ef520bb65d5673252cb465f75142660fcc69c2a29ae09ecec18fbe"),
    "zeta --case ramified -n 8 --series-terms 10": (0, "03b1cd10c88523449c75d4399de77cc6a78b8ac39530ad4fe90c170b4a227f60"),
    "zeta --case ramified -n 8 --series-terms 10 --format json": (0, "164a2311926008b07522aff5c18466e808c79c9b91f05c23f6b5d284c4151086"),
    "zeta --case ramified -n 32 --format json": (0, "16090b919b12b9275480571052ddc897f8d42fee1eb8952184f49ca6aa979f7d"),
    "genfun --basin ramified --m 3 -n 32 --format json": (0, "14e5bd57f44a25c8c54295cf978a47f44af30da004a6b15c9d254254e862127f"),
    "genfun --basin ramified --m 3 -n 6 --series-terms 10": (0, "f7de569c87cc7a805c784148221ee60977346bd00fb83c76894419cea3ad805d"),
    "counts --basin ramified --m 2 -n 3 --max-d 12 --format csv": (0, "3411915f2cdd47b0db03f42f76352fb384f651684fbef72b27b93ad07ffcf09b"),
    "enumerate --case ramified --p 3 -n 2 --max-contribution 5 --format csv": (0, "ecd90cd6dfa50e0ded59d7d8e22c341412a0e7e7089dfc444ecc6d0d0feaec49"),
    "tree --basin ramified --m 2 --radius 2 --format dot": (0, "b55d6c79e8b7b914be320a3a5ef04280750bf068410ca9a5b3f37ba5ff4780bf"),
    "zeta --case unramified -n 8 --series-terms 10": (0, "9726dbe2393f8763abbddb6dd8251f2389be2c2bafbff6c12f5314cce208767b"),
    "zeta --case unramified -n 8 --series-terms 10 --format json": (0, "d6aaf2a2b82aec507cdd34654f9617f5c699d5605f8e5d13997678d8fe73ab40"),
    "zeta --case unramified -n 32 --format json": (0, "01e4457b0a6e1d3bfb923f7a04d89955e3f2bd46b185709f10c03fc1b0eba750"),
    "genfun --basin unramified --m 3 -n 32 --format json": (0, "565fe6378a7047be233467453ae1baa03324b129f377dd355f386ece2cb67001"),
    "genfun --basin unramified --m 3 -n 6 --series-terms 10": (0, "00531a82f6c56811b5c402c6048a5ad916c56859328b90c9c3a803c700d15985"),
    "counts --basin unramified --m 2 -n 3 --max-d 12 --format csv": (0, "8fa96eeea9e609c18cf0b1032fa943fbf75585fbf59a4fc4cb174aa29be328e9"),
    "enumerate --case unramified --p 3 -n 2 --max-contribution 5 --format csv": (0, "d7a29a6c2dbdc807ca9cbfb2a1bfe2a740530f329a87d6a90848472e78e22ffd"),
    "tree --basin unramified --m 2 --radius 2 --format dot": (0, "747cdfd46fd6bff90717bf749b9c4e5303785448de84b06e02cd70d864d2ea27"),
    "zeta --case split -n 8 --series-terms 10": (0, "a4043a3bbc5aa7d8c8f5763fe8393c8899a70de6fdc80ba9390aadb8f7c3d598"),
    "zeta --case split -n 8 --series-terms 10 --format json": (0, "8fffb47f8d62bfde54a261742421924b292573e9e8ed3308ec9e8c510d59c737"),
    "zeta --case split -n 32 --format json": (0, "6ce752cb9b8e706aa70a8e450950a6258060b36e4a8d55db79fe64c1fa3b99bb"),
    "genfun --basin split --m 3 -n 32 --format json": (0, "7915fe90676c5c2260dafac0e0fe16cfda1ea5bfdfd9f1c50573837b08a8068e"),
    "genfun --basin split --m 3 -n 6 --series-terms 10": (0, "47471a1edd904cf2935c1816dc4b68cec688a3149a3ecd71cdacd29f1b88a9ef"),
    "counts --basin split --m 2 -n 3 --max-d 12 --format csv": (0, "2c356197ff89ec4b4748c08d90ff09debee188c45fd35b3f88860aa9ea70345f"),
    "enumerate --case split --p 3 -n 2 --max-contribution 5 --format csv": (0, "54079c063c0bb15945ed3ed0af03023dd0a368a6719059bb68597e14cec1a150"),
    "tree --basin split --m 2 --radius 2 --format dot": (0, "e5e8ea6c9d860dc54d1f924bd4230912b416d96e2fa7bb94b697d762168015db"),
    "enumerate --case split --p 2 -n 0 --max-contribution 7 --format csv": (0, "689c595c4fb3e6ca6a2d915f67cb8d47e957bff95a58efca78c58dea4c93ca42"),
    "enumerate --case ramified --p 2 -n 2 --max-contribution 7 --format csv": (0, "0c0776bf9b10c98f2fa14cdd7bf17efc6e14839b057f49fdfd2c3dd72177a1d8"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_byte_identical(capsys, command):
    code = main(command.split())
    out = capsys.readouterr()
    assert (code, hashlib.sha256(out.out.encode()).hexdigest()) == GOLDEN[command]
    assert out.err == ""


def test_every_command_is_pinned():
    assert sorted(GOLDEN) == sorted(COMMANDS)
