"""Golden SHA-256 hashes of the CLI datasets and printed summaries.

Each case runs in-process through ``cli.main`` inside an empty directory,
with the relative output name ``out.csv``, and hashes the CSV bytes and
the captured stdout.  The hashes pin the exact bytes of the reference
outputs, so a refactor of the CLI, the writer or the physics helpers must
reproduce every dataset and summary byte for byte.
"""

import hashlib

import pytest

from lattice_polariton.cli import main

# (arguments, sha256 of out.csv, sha256 of stdout)
REFERENCE = [
    # the eight figure presets
    ("figure 3a", "055a6466b22360ab3acce65f1b3d1ec2d674c393d33cedb644c8792037a909ae", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    ("figure 3b", "055a6466b22360ab3acce65f1b3d1ec2d674c393d33cedb644c8792037a909ae", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    ("figure 4a", "b1acb19fbf0f4803f81b242504717fc174ce1c78914f3d98127246a033491580", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    ("figure 4b", "a956d943bbde7d29e35134c1fb7e0283064e2305ee98c1c2fa4bb88718c51c48", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    ("figure 5", "54dc89eda6a1220782636a4b7401fe3cccb48efa2cc24a9c32eb4f27f87ec6e9", "446918250fa0416f1c8ffa9b57f7a9b319350c8e2390b834f9fa2a7aeb36e1dc"),
    ("figure 6", "efc028596dd56f6858b9a84501238b13fcc045beb8bc8a29de89c25f9a7bab2e", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    ("figure 7a", "f54f68e4595cbd0dbc170b195fdc9cf42562b3b2f98a5d3ce38fc0ef4d580a93", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    ("figure 7b", "897909f5e52598209188f95dd56a985faafff3b327730f034fe0a338d4e6f555", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    # the six commands with their defaults
    ("dispersion", "055a6466b22360ab3acce65f1b3d1ec2d674c393d33cedb644c8792037a909ae", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    ("couplings", "055a6466b22360ab3acce65f1b3d1ec2d674c393d33cedb644c8792037a909ae", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    ("polariton", "0c58ded1b8c79dd87680257c84a805f5e01cf2fb5f265c4d7925ceb7aa8057dd", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    ("spectrum", "54dc89eda6a1220782636a4b7401fe3cccb48efa2cc24a9c32eb4f27f87ec6e9", "446918250fa0416f1c8ffa9b57f7a9b319350c8e2390b834f9fa2a7aeb36e1dc"),
    ("rabi-vs-n", "efc028596dd56f6858b9a84501238b13fcc045beb8bc8a29de89c25f9a7bab2e", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    ("rabi-vs-theta", "f54f68e4595cbd0dbc170b195fdc9cf42562b3b2f98a5d3ce38fc0ef4d580a93", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    # the other two spectrum models
    ("spectrum --model multimode", "cad0fc9c24051293ce96dadc7d2bf6e5fdfba752423409f28a59dc916354ea9e", "fcf1490daef91af80729b7c83b26e8c309edf97082733defa32cbf9bb6d59d48"),
    ("spectrum --model noninteracting", "a7928907f0370b1a9dd0cdb73e2b8e3f642d84df9d829011d32ac9f647b53578", "3166b0f95eec9c80e07303c6803b398ef3e2fbed224c272374cdd9bd762c0097"),
    # non-default sizes, angles, grids, envelope and cavity frequency
    ("couplings --num-sites 7 --theta-deg 70", "b1253e4eadeea6bb66ecae542b976cfacd4e8e3e6ecb39e708750de4d73660f2", "47c7c9139cc8d3f0226c6c8966130caa697c8f1c67d525ca6b09bd29aa6a7eb0"),
    ("dispersion --num-sites 1", "922be15b93e1c716eb666cb1f05b0131eeb6b763c6747855ee6ef625e3a5aeac", "5ff1364670e5c02bbad24a526ffcab0d507666e5528a081ca45e0e67376a2eda"),
    ("polariton --grid-points 11 --grid-span-hz 5e7", "cbe7cda829b34b791dd4020133bb7613d6110d76e1a9e67b8f9bc44a38c58c62", "918bb98bf3f1614c8320fd3afcc553691fd825a38ed4c851736f9b67c65f01aa"),
    ("figure 4b --grid-points 21 --num-sites 200", "17a2f21147acd93592e27a07491e452ba44154709e9c7f5a3797abe8b8f5f50e", "54fdbabbbc73e9e2d1709d22eaa31cef53748e19dba9b87f5afac94f6d5e5fff"),
    ("spectrum --grid-points 301 --grid-span-hz 1e8 --num-sites 300", "7dafad811d4dc713c759b64f68ce31d4d46f0c43401412378cae519197a95915", "572dcde1e04e14f6f5e8b07da664985c79c6eb4514a3054af02912ec54c7a0ef"),
    ("spectrum --model multimode --envelope exact --num-sites 400", "dc0ad6a2687755959e6329f488ebd89aac0c79aefbefe0448d523e19bd0c352b", "613ff85bbd6a1c14ca04639918690094162c224a49d5187a68e0c69b017f9849"),
    ("spectrum --nu-c-hz 4.0000001e14 --num-sites 500", "37fccaff120b45ac07f69cc5b4dbb05f4fe79288cb1dc87330dab76e0fb19d28", "731b60ccca9f0859d52ebdfb629d009a740ee09ede4e191dfe23d96306b789b6"),
    ("rabi-vs-theta --grid-points 7 --num-sites 50", "0800e65a3ded2c4cce50107860ddea10ecb384c8294f66656cbd5b5304229ed1", "ce0674c2bad8b9f84c5913412488b901bcd437bf9fb9369eaa7dc6600f97d34e"),
    ("figure 7b --num-sites 300 --theta-deg 30", "c35cfc2ae6a5e298e7761679829e786fff40c6696c2e69d8c24331ca004bd8d9", "e9ddd0cbf503607401d36a71e68ae0d942c2346d0fcf227594baf2ec85735311"),
    ("rabi-vs-n --num-sites 3000 --theta-deg 80", "d5346983a4d0ae4f7bbb6255030a417df4aeb667d8ba85cd7290f654e67da60b", "e924db71403613c9be70d1399197ebbd7577dfe07a6ad88e2c2fa909e3565e6f"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("args, csv_sha, stdout_sha", REFERENCE, ids=[case[0] for case in REFERENCE])
def test_output_bytes_match_golden(args, csv_sha, stdout_sha, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*args.split(), "--out", "out.csv"]) == 0
    assert _sha256((tmp_path / "out.csv").read_bytes()) == csv_sha
    assert _sha256(capsys.readouterr().out.encode()) == stdout_sha
