"""Byte-exact command line: the sha256 of (exit status, stdout, stderr) per invocation.

The digests were recorded before the command table replaced the per-command
branches of ``cli.main``; any change to a report byte, an error text or an
exit status fails here.  After an intended output change, print the new
table with ``PYTHONPATH=src python tests/test_cli_golden.py`` and paste it
over ``GOLDEN``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

from conftest import engineered_trivial_datasets, random_dataset
from test_rigidity import P7_ORBIT_POINTS

from equispin.cli import main
from equispin.dataset import (
    FixedPointDataset,
    IsolatedPoint,
    ManifoldInvariants,
    fermat_quartic,
    to_json,
)


def _datasets() -> dict[str, FixedPointDataset]:
    balanced, negative_one, negative_four = engineered_trivial_datasets()
    orbit = FixedPointDataset(
        7, ManifoldInvariants.k3(), 3, False,
        isolated=tuple(IsolatedPoint(*pt) for pt in P7_ORBIT_POINTS),
    )
    return {
        "fermat": fermat_quartic(),
        "balanced": balanced,
        "negative-one": negative_one,
        "negative-four": negative_four,
        "p7-orbit": orbit,
        "random-p5": random_dataset(random.Random(5), p=5),
        "random-p11": random_dataset(random.Random(11), p=11),
    }


DATASETS = _datasets()
FORMATS = ("text", "json")


def _invocations() -> dict[str, list[str]]:
    out = {}
    for name, d in DATASETS.items():
        for fmt in FORMATS:
            for power in (*range(d.p), d.p, -1):
                out[f"spin-{name}-{power}-{fmt}"] = [
                    "spin", f"{name}.json", "--power", str(power), "--format", fmt
                ]
            for command in ("kvector", "quotient", "verdict"):
                out[f"{command}-{name}-{fmt}"] = [command, f"{name}.json", "--format", fmt]
    for fmt in FORMATS:
        for command in ("spin", "kvector", "quotient", "verdict"):
            out[f"{command}-batch-{fmt}"] = [command, "--batch", "batch", "--format", fmt]
        for name in ("fermat", "negative-one", "negative-four"):
            out[f"prop41-{name}-{fmt}"] = ["prop41", f"{name}.json", "--format", fmt]
        out[f"prop41-vectors-{fmt}"] = ["prop41", "--m", "2,2,2", "--n", "2,1,1", "--format", fmt]
        out[f"prop41-bad-vectors-{fmt}"] = ["prop41", "--m", "2,2,2", "--n", "2,2,2", "--format", fmt]
        out[f"prop41-neither-{fmt}"] = ["prop41", "--format", fmt]
        out[f"prop41-m-only-{fmt}"] = ["prop41", "--m", "2,2,2", "--format", fmt]
        for flags in (["--quotient-b-plus", "1"], ["--quotient-b-plus", "3"],
                      ["--quotient-b-plus", "3", "--trivial"], ["--p", "5", "--quotient-b-plus", "3"]):
            out["enumerate-" + "-".join(f.strip("-") for f in flags) + f"-{fmt}"] = [
                "enumerate", *flags, "--format", fmt
            ]
        out[f"selftest-{fmt}"] = ["selftest", "--format", fmt]
    out["spin-missing-file"] = ["spin", "missing.json"]
    out["verdict-missing-file"] = ["verdict", "missing.json", "--format", "json"]
    out["prop41-missing-file"] = ["prop41", "missing.json"]
    out["verdict-missing-directory"] = ["verdict", "--batch", "missing-dir"]
    out["kvector-directory-as-file"] = ["kvector", "batch"]
    out["verdict-no-input"] = ["verdict", "--format", "json"]
    out["verdict-precision-20"] = ["verdict", "random-p11.json", "--precision", "20"]
    out["usage-enumerate-no-rank"] = ["enumerate"]
    out["usage-bad-format"] = ["verdict", "fermat.json", "--format", "xml"]
    return out


INVOCATIONS = _invocations()


def _write_inputs(root: Path) -> None:
    for name, d in DATASETS.items():
        (root / f"{name}.json").write_text(to_json(d), encoding="utf-8")
    batch = root / "batch"
    batch.mkdir()
    for name in ("fermat", "negative-one", "random-p5"):
        (batch / f"{name}.json").write_text(to_json(DATASETS[name]), encoding="utf-8")
    (batch / "malformed.json").write_text("{not json", encoding="utf-8")


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    record = json.dumps([status, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    _write_inputs(root)
    return root


@pytest.mark.parametrize("key", sorted(INVOCATIONS))
def test_cli_output_is_unchanged(key, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    assert _digest(INVOCATIONS[key]) == GOLDEN[key], INVOCATIONS[key]


def test_every_invocation_is_pinned():
    assert sorted(GOLDEN) == sorted(INVOCATIONS)


GOLDEN = {
    "enumerate-p-5-quotient-b-plus-3-json": "fc0296db9afbe877e23207ec51232624ea086f69a81bcfa0030b0db0c20747be",
    "enumerate-p-5-quotient-b-plus-3-text": "fc0296db9afbe877e23207ec51232624ea086f69a81bcfa0030b0db0c20747be",
    "enumerate-quotient-b-plus-1-json": "f69dd28f9c1dd52abaeaa5b1c9ef9c26dccc6f8d7c4abb9c23bd327932e4c037",
    "enumerate-quotient-b-plus-1-text": "95628973d5078f088c1774dc61d1a74c2ef11c92ee07553457d25bae67271a48",
    "enumerate-quotient-b-plus-3-json": "2b5048db23613668515141c3f3567e6f3e73f73471f6ac7c8aae21d8807775c0",
    "enumerate-quotient-b-plus-3-text": "edff533d2781b617742c2782144674f7eb06d9a259e0cf7bf881c6cb49f14179",
    "enumerate-quotient-b-plus-3-trivial-json": "ceeb0e66d03b6d52365d675708d03a8d53323539ed8a88083a4815a2669b2d9e",
    "enumerate-quotient-b-plus-3-trivial-text": "0573061db15f51e7b0bee09c47db1086b086ce88c1e84c84a7cc695f2a5a0506",
    "kvector-balanced-json": "4a4389bfe18220d34e986fc4d55139db34b4566154756bdc9ee96f7f3b26f1a9",
    "kvector-balanced-text": "40e06e92f07ff4cca7101ba5455296309381a61401e30c376fc41e6046ecd17e",
    "kvector-batch-json": "ee14587d62fd50c6d6efb8f27e68d18ef17a8b835fa9cb718716379db0d52fd5",
    "kvector-batch-text": "f975e7d349316cd263f851107118b396605e49d84c5a181d1a39e05c01642406",
    "kvector-directory-as-file": "0d2767817753b1190201143eedcdc79a493c7f70d2bde93a8a2f463e4321cbfe",
    "kvector-fermat-json": "4a4389bfe18220d34e986fc4d55139db34b4566154756bdc9ee96f7f3b26f1a9",
    "kvector-fermat-text": "40e06e92f07ff4cca7101ba5455296309381a61401e30c376fc41e6046ecd17e",
    "kvector-negative-four-json": "37d91352b70417061fd9d9ebb8e634e22e369a75ffb26395de69f503043977ce",
    "kvector-negative-four-text": "7254faa4457c0389936afd5dfaa93f9bd7583df0a8be8e838ffeefe1f12956b1",
    "kvector-negative-one-json": "44b04aea47aa716fcaca58ab51a34710234858161f12f90d8664fc1b822077a4",
    "kvector-negative-one-text": "03e1addf37a4d77be402fa061a54fea3bad005e4647ecb96160aeaa2129381cb",
    "kvector-p7-orbit-json": "bccc77e6a28bb01abc120ed952bc382dc73041b974f7a072b3df2a8a0d5a48b9",
    "kvector-p7-orbit-text": "b3a924219fca49de26cb7db491825d3f45f690ee45cb64778398228a654c905a",
    "kvector-random-p11-json": "a29e90b67720dc9d879ba735c09fdfd05c19a6434397e68dc4f270cc0f7927c8",
    "kvector-random-p11-text": "da8b4f22ac4274ad84ac3d87160bc31255373c74d4f28de4e95bee7aae8085f9",
    "kvector-random-p5-json": "d2b11bb5f8b97eb28e82fb62918a995fa3113e229d403ee08dc33994bfe6f8ee",
    "kvector-random-p5-text": "b9ed87b1b0022f6d5b100af9b375e72315cb2f778eb75d34fea451ad6a2a2812",
    "prop41-bad-vectors-json": "ff1861eb9739742bc5b8c886978bd71c85915ffe169f3372f2895b60ea75ae82",
    "prop41-bad-vectors-text": "ff1861eb9739742bc5b8c886978bd71c85915ffe169f3372f2895b60ea75ae82",
    "prop41-fermat-json": "98c28389d2a11a562761136ddc475730fa6f3fc8fd9d6c1692920e634d217542",
    "prop41-fermat-text": "e85795b63dc2bfe22c825d07982a87109826487aaffba02e1f78216c1ed38e8d",
    "prop41-m-only-json": "6787b3c9a3284bfd94013f3e208da75a044baa1c46b799d7ae8b640109415e8c",
    "prop41-m-only-text": "6787b3c9a3284bfd94013f3e208da75a044baa1c46b799d7ae8b640109415e8c",
    "prop41-missing-file": "654bef71e39292f591c582e942619afe3cb45034c569206ff9130e9d4fbc6f8a",
    "prop41-negative-four-json": "93250faa25587b5c48d5f1283ccc0c26612863d45d75210971bca34842e37212",
    "prop41-negative-four-text": "5b675e269df0c3dd81f5ee38ccad34b5bf9aa6a430ee87300b271d64b762c7fd",
    "prop41-negative-one-json": "7e4378b86cda880ca1e7c111aea97f45e5905fae734f8404efdb48880974ba2e",
    "prop41-negative-one-text": "168c158bb7fac6c496c1e0885eb0a3c0a728d558da9b1cd133b4e821ba0d78da",
    "prop41-neither-json": "6787b3c9a3284bfd94013f3e208da75a044baa1c46b799d7ae8b640109415e8c",
    "prop41-neither-text": "6787b3c9a3284bfd94013f3e208da75a044baa1c46b799d7ae8b640109415e8c",
    "prop41-vectors-json": "7e4378b86cda880ca1e7c111aea97f45e5905fae734f8404efdb48880974ba2e",
    "prop41-vectors-text": "168c158bb7fac6c496c1e0885eb0a3c0a728d558da9b1cd133b4e821ba0d78da",
    "quotient-balanced-json": "f52905c29691568acf5e77d11f1a6b353cd13749017ac67fbd955e8ca6ae024c",
    "quotient-balanced-text": "df3d1569ce09af5647061c7b9688c71a908e61c6ed02efb9b384d0509fee6bde",
    "quotient-batch-json": "fa770d3132e8fb2c23de454ace3333481a1e84914d7f70f747f72f74df2debda",
    "quotient-batch-text": "c6b8b062052151810a7056d466983d697cfd427a9960a285869c89e5df75ddc7",
    "quotient-fermat-json": "4a65a6a2a81bdf58c36310398c15ccdc2b4a1c605a25b0a74ff9f4e8cceebbf6",
    "quotient-fermat-text": "3edf08ca9ca63990b4ce1d7e092fab3576d772af9f1618daccaff3a9e10a59bb",
    "quotient-negative-four-json": "f52905c29691568acf5e77d11f1a6b353cd13749017ac67fbd955e8ca6ae024c",
    "quotient-negative-four-text": "df3d1569ce09af5647061c7b9688c71a908e61c6ed02efb9b384d0509fee6bde",
    "quotient-negative-one-json": "f52905c29691568acf5e77d11f1a6b353cd13749017ac67fbd955e8ca6ae024c",
    "quotient-negative-one-text": "df3d1569ce09af5647061c7b9688c71a908e61c6ed02efb9b384d0509fee6bde",
    "quotient-p7-orbit-json": "02463ffbb3b3534a6518589db028cd726fa9ab5c230a1189edeeaf8218098352",
    "quotient-p7-orbit-text": "02463ffbb3b3534a6518589db028cd726fa9ab5c230a1189edeeaf8218098352",
    "quotient-random-p11-json": "02463ffbb3b3534a6518589db028cd726fa9ab5c230a1189edeeaf8218098352",
    "quotient-random-p11-text": "02463ffbb3b3534a6518589db028cd726fa9ab5c230a1189edeeaf8218098352",
    "quotient-random-p5-json": "02463ffbb3b3534a6518589db028cd726fa9ab5c230a1189edeeaf8218098352",
    "quotient-random-p5-text": "02463ffbb3b3534a6518589db028cd726fa9ab5c230a1189edeeaf8218098352",
    "selftest-json": "b8a3c53f4ef0f6447556a205a601ba73d319cfa8304c331c7d9ab02905e7cd4b",
    "selftest-text": "11e8fc3346f38c2bc2a4f7464e07ecfa557b38136ee27864d673b4f2464e6c75",
    "spin-balanced--1-json": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-balanced--1-text": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-balanced-0-json": "989a89d38208d4a496a54592172d0d3dd2d4a4fbd4c60bacdec80ef11dda614f",
    "spin-balanced-0-text": "05ddf7a32f3baca85162abedd759d0547e82a8d93bf09c9742393eb00c7aa89a",
    "spin-balanced-1-json": "2c3c32a37d6e42425adb0d58a35b84591f6003f5ec2d030f8eb7632ac472cc50",
    "spin-balanced-1-text": "136e076070b47080203e1b91746913dd0dc485bf9a6ba50b75d90b691a8ab16e",
    "spin-balanced-2-json": "5e82a13cdf5eff96b7a223dcbe1561aff897c859780c3b062efc758db28fd76d",
    "spin-balanced-2-text": "3171078d146b45c2066efa1696474beb13be34834f6fd7c47ff0905190db8fd1",
    "spin-balanced-3-json": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-balanced-3-text": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-batch-json": "57903878ac43b06811e5e5cf67eab3e8521c07c7498768568fe917e57d2f5fcf",
    "spin-batch-text": "ec82341428521ca9fbd381bcea87fe40fed33b13826fb08f70eefb936a45e42a",
    "spin-fermat--1-json": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-fermat--1-text": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-fermat-0-json": "989a89d38208d4a496a54592172d0d3dd2d4a4fbd4c60bacdec80ef11dda614f",
    "spin-fermat-0-text": "05ddf7a32f3baca85162abedd759d0547e82a8d93bf09c9742393eb00c7aa89a",
    "spin-fermat-1-json": "2c3c32a37d6e42425adb0d58a35b84591f6003f5ec2d030f8eb7632ac472cc50",
    "spin-fermat-1-text": "136e076070b47080203e1b91746913dd0dc485bf9a6ba50b75d90b691a8ab16e",
    "spin-fermat-2-json": "5e82a13cdf5eff96b7a223dcbe1561aff897c859780c3b062efc758db28fd76d",
    "spin-fermat-2-text": "3171078d146b45c2066efa1696474beb13be34834f6fd7c47ff0905190db8fd1",
    "spin-fermat-3-json": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-fermat-3-text": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-missing-file": "654bef71e39292f591c582e942619afe3cb45034c569206ff9130e9d4fbc6f8a",
    "spin-negative-four--1-json": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-negative-four--1-text": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-negative-four-0-json": "989a89d38208d4a496a54592172d0d3dd2d4a4fbd4c60bacdec80ef11dda614f",
    "spin-negative-four-0-text": "05ddf7a32f3baca85162abedd759d0547e82a8d93bf09c9742393eb00c7aa89a",
    "spin-negative-four-1-json": "aeee03c740cb6dfa0d3e45ee882f0620bfa475bd9303e00a9d73f96be1bf5395",
    "spin-negative-four-1-text": "8517a7bd9f6c091e4aaa65fa2b019bed453df51e610db14a687cd3260a3ec66b",
    "spin-negative-four-2-json": "2aed46d50ee972d731056db39059c3097719516285d2998dcb98708bc938b08c",
    "spin-negative-four-2-text": "b14e1e72840fb3ceb9d2ff8dfdfdc84f0700c4fbc2f8fc8e392eddc0967d684b",
    "spin-negative-four-3-json": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-negative-four-3-text": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-negative-one--1-json": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-negative-one--1-text": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-negative-one-0-json": "989a89d38208d4a496a54592172d0d3dd2d4a4fbd4c60bacdec80ef11dda614f",
    "spin-negative-one-0-text": "05ddf7a32f3baca85162abedd759d0547e82a8d93bf09c9742393eb00c7aa89a",
    "spin-negative-one-1-json": "5b6209550ce837fb693fc49c259bfeafba9f39413f90fc244a9b8b5c6c6dae71",
    "spin-negative-one-1-text": "288ba7abdea05bd24452b3457273a2126cb88a75d446cc07149a3033adb3fac0",
    "spin-negative-one-2-json": "282c977c6ea4add8f0a744e680fa93db9b6711f60cc01091259c369bc021a082",
    "spin-negative-one-2-text": "c2fad8229d23f97a85d0ab78e91ccc189b765fae0182f20e806823f6ae3d212a",
    "spin-negative-one-3-json": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-negative-one-3-text": "2215fceb55f94406a268d2fc88232ae3426121e2332f45c57662ba8a4dd4b311",
    "spin-p7-orbit--1-json": "874a07530935f54c87de2f85dfe02e76ea28c2032e886f71ef7d33fa2c35b046",
    "spin-p7-orbit--1-text": "874a07530935f54c87de2f85dfe02e76ea28c2032e886f71ef7d33fa2c35b046",
    "spin-p7-orbit-0-json": "989a89d38208d4a496a54592172d0d3dd2d4a4fbd4c60bacdec80ef11dda614f",
    "spin-p7-orbit-0-text": "05ddf7a32f3baca85162abedd759d0547e82a8d93bf09c9742393eb00c7aa89a",
    "spin-p7-orbit-1-json": "8c0774fb18df3f97914505db2e12872c473c0b1c63ce598892be06d3c300bbf2",
    "spin-p7-orbit-1-text": "2e0042d9832aa6848977d3111b0f48ae51a60d35950d8312fcf7a234d85ec746",
    "spin-p7-orbit-2-json": "457123164a252b787a1861821427a76d8807dc9ab0de6bc2727565297ad6ed5c",
    "spin-p7-orbit-2-text": "2ebfcfaaa53f74133f444521d992ad1b3d659d0929e0ff9ca8a447b69fb99917",
    "spin-p7-orbit-3-json": "29eae6baf82f18bbb6df36bf25785ecd864e2ac0b7e1dc97af6ee16d5f0ba4ce",
    "spin-p7-orbit-3-text": "1d86d3be32dbb7722c7b430a1b8669850dc0c1c974ce5966eb124e2428ca17cf",
    "spin-p7-orbit-4-json": "f1462af1b10a9cf12e005e224cb7c63a9c55e6f14c5e38df10e054479891552b",
    "spin-p7-orbit-4-text": "cd47beee02a52e9237394d4fa3acfa1d72343e22bf8dd6629a5af14b3727df96",
    "spin-p7-orbit-5-json": "97cdcfbd060ba2d6b64c1016606e130c1144500240d6beda936702123cf58908",
    "spin-p7-orbit-5-text": "28f104e8964dcab5e8625baa84e516b344114a6397f0d3e67dfb89c3a4e22a6a",
    "spin-p7-orbit-6-json": "b9049b78a7dbf0d5926ce4cd4d0218aefab37bf4cca21faa8fd08e3b1219fde5",
    "spin-p7-orbit-6-text": "de5b76a46e8ef8aaefd4d420b6bf7c3f2bb831533cca84afa96c8f12fed36c51",
    "spin-p7-orbit-7-json": "874a07530935f54c87de2f85dfe02e76ea28c2032e886f71ef7d33fa2c35b046",
    "spin-p7-orbit-7-text": "874a07530935f54c87de2f85dfe02e76ea28c2032e886f71ef7d33fa2c35b046",
    "spin-random-p11--1-json": "4c4ad5c53f62bea7464588c4854800b9c85003085e524b4db7be00c8f22031ac",
    "spin-random-p11--1-text": "4c4ad5c53f62bea7464588c4854800b9c85003085e524b4db7be00c8f22031ac",
    "spin-random-p11-0-json": "989a89d38208d4a496a54592172d0d3dd2d4a4fbd4c60bacdec80ef11dda614f",
    "spin-random-p11-0-text": "05ddf7a32f3baca85162abedd759d0547e82a8d93bf09c9742393eb00c7aa89a",
    "spin-random-p11-1-json": "423ee3762a701141346502a1f4282ce9eeef1817bb17bbd6f35602dd4b413fe9",
    "spin-random-p11-1-text": "3c67ecfda9a0ec25d65e0f4a611ca2e166980d375f519a30d7403f812bd78f29",
    "spin-random-p11-10-json": "7dc6ff9a3a1bfbe25b84be49137c183ae7c7b6635e3d7e131d5d7e739412867e",
    "spin-random-p11-10-text": "bdcf509b1c76964ce69dd0b9eb2295eb54acbcae8fe08c0d0e62d35294d23f3f",
    "spin-random-p11-11-json": "4c4ad5c53f62bea7464588c4854800b9c85003085e524b4db7be00c8f22031ac",
    "spin-random-p11-11-text": "4c4ad5c53f62bea7464588c4854800b9c85003085e524b4db7be00c8f22031ac",
    "spin-random-p11-2-json": "4c522124eba381d2d6851b2381617818c0ea6341f71cb6b3293a955fdd890545",
    "spin-random-p11-2-text": "c46e385ac833ee79c60b86e3196cb95ae800580d751abc786f42d0c3b7a2816b",
    "spin-random-p11-3-json": "34fe1f8bd890f9157ecd2a33d210ed0b02ae2a5ce97db5fa99ef7f102989d33e",
    "spin-random-p11-3-text": "37ff175882d1d7ed32e6256f7956e5255b34f6ae92549b7794187edf6ee48283",
    "spin-random-p11-4-json": "07e7e79c61b07cedbd2e2e3db066d18177fae57d76cbc9af4e10e47040a80cfc",
    "spin-random-p11-4-text": "0d1dd9acd332c148fdae87edfb4fe72ee08bf555eedcbe8bfc7a031628bcd3d1",
    "spin-random-p11-5-json": "6c03c2ab62b220c2581ef5656accc82ebb5493f2d80ef63fbbd7c88d4c07cd84",
    "spin-random-p11-5-text": "9f5988baeaba4e0f42aa588a6549f709b674ff369a8f971c0a20929e5a5a8965",
    "spin-random-p11-6-json": "67a0ad011527c809e31e17e1e69e10e630ce18b8dfe8c1774cdc15306274bcd8",
    "spin-random-p11-6-text": "02af758aa786b7dadc224386bea17a4b744a396406ae99a0b808731a5d8bd93a",
    "spin-random-p11-7-json": "f73133d4cc1738d262a375db3a5b1f2d16ecb5404b6209e9318440c70569d5b7",
    "spin-random-p11-7-text": "a9e4eaeb642e32d8db7679f1707f038406070991928b6b157371322a46748cf0",
    "spin-random-p11-8-json": "ba1aa542e18f5f2df1ab26748537d83829f32f718c4d8e8b94ed48899b855cc3",
    "spin-random-p11-8-text": "45289990b46868c0841bae848e679dd1e7196b9e260732da04f916800d78ba2d",
    "spin-random-p11-9-json": "17b300a5fa52cb301ab55bace8e13641dc65891697122ec3b4698477e99f6e5d",
    "spin-random-p11-9-text": "f951be4c91b5be1a2a15b16e8627aeeceec386bef90388fe2e764ef769b2fe6a",
    "spin-random-p5--1-json": "b70bc7419481b34f83fa099c7918d56c3809c5d5f2cfdb848f95d429099a7617",
    "spin-random-p5--1-text": "b70bc7419481b34f83fa099c7918d56c3809c5d5f2cfdb848f95d429099a7617",
    "spin-random-p5-0-json": "989a89d38208d4a496a54592172d0d3dd2d4a4fbd4c60bacdec80ef11dda614f",
    "spin-random-p5-0-text": "05ddf7a32f3baca85162abedd759d0547e82a8d93bf09c9742393eb00c7aa89a",
    "spin-random-p5-1-json": "2f303e135309141a99820868887078a8cc9ed78b4a98cadf3c560b78d4d51b96",
    "spin-random-p5-1-text": "9c2547d7ce0886357d25d4fe5f7f799cff55755a17183f375f9cb1c112115c0b",
    "spin-random-p5-2-json": "62dde59661fa224ed8cbffe9644c34c03bf287663f6e2b2a2ff8b74acf9bb53b",
    "spin-random-p5-2-text": "984c90632bfcad12bc033dd3216078ce3e5bd36b719c0bba61c72ab480869a15",
    "spin-random-p5-3-json": "e35983dc8519d170f4e4d369cac4c51f0b3dd6c5786d4ec381373c05ee2c44f7",
    "spin-random-p5-3-text": "3e8074fbb1a1351318f4d978ee902f49afb8e1137e57bef4cab412d7c6db6653",
    "spin-random-p5-4-json": "1b719063917d4380648a4fdf83094533820a52bab8693aac74a70400444a1bf5",
    "spin-random-p5-4-text": "7fd87d2c8d0e5abf762e97674fbf3f41ec9b2e6d3e7c5fd52f7b8ab2c1b1c48f",
    "spin-random-p5-5-json": "b70bc7419481b34f83fa099c7918d56c3809c5d5f2cfdb848f95d429099a7617",
    "spin-random-p5-5-text": "b70bc7419481b34f83fa099c7918d56c3809c5d5f2cfdb848f95d429099a7617",
    "usage-bad-format": "1ddfcdb2af5e61cae9154a6c64390df31d3779738f93d3d8cceb87d63d4af378",
    "usage-enumerate-no-rank": "2754aca73ff0f97f56894049a6e79170988d8b1f6f21ca50f8f52d1d57093728",
    "verdict-balanced-json": "c459f439db14d34da4c21026aac5e63edd6e4beff1bb2a81b143ee61102fbe34",
    "verdict-balanced-text": "c8d41d72d3d64e890edd7540f9db499a305ae3946ff85a5e5f4d0bbdc39adf42",
    "verdict-batch-json": "65dc10abb3999805106289aa83bd5aa56ce3f5eaf5d0d3e5267d14137664cf7d",
    "verdict-batch-text": "a42f4b64d543632e13b3a45434cc680f7f5411c0cb2d30f84331134a79aca75c",
    "verdict-fermat-json": "a7e4971d6e2b072fceeda48fa9bdfc5ef3359e1482b9d5f1db4ea2c90ce7aabd",
    "verdict-fermat-text": "f12f6c8697d0895e9453bbb46df056776d78ff0609cb0fb7a5675132e6eb614e",
    "verdict-missing-directory": "633c34ff4352dbefbd16386e5d772759734468456ecfbbffddb1a77668b2e20a",
    "verdict-missing-file": "654bef71e39292f591c582e942619afe3cb45034c569206ff9130e9d4fbc6f8a",
    "verdict-negative-four-json": "f2622cf511f6114b1320f388ac0652bf84c9e56045d8799e6989490a86f72eb0",
    "verdict-negative-four-text": "6cc67a1406311756951a86084dd02479e1083aa867088b0106b204429b44d70e",
    "verdict-negative-one-json": "22f5df95a1e35679e821d97176adb19aab7747ec245b5bd26d5248c0403fbbbc",
    "verdict-negative-one-text": "024c1760f74bfc3d8b7e4abd9ac1b90be063d0be580d5ffed8b2c198c6a1f92e",
    "verdict-no-input": "b9266fbf6edfc6e2da58937406c656e48b193dac6810b390eab5c5ae3dc7fb45",
    "verdict-p7-orbit-json": "38cc71af4b9e8fb9dc21283b1c00dd523c90b9ad7a264514e10addd5dd3aa4fb",
    "verdict-p7-orbit-text": "44fbeb51b87915b37f56517ce3b0d76bf343dccf8da3e757011d4bf494404105",
    "verdict-precision-20": "b35e193ce947364eb1e1bf51f34b8750e243b1b42798ff9610e41a998b60f62e",
    "verdict-random-p11-json": "703be537ff409c713f1c6856ce1b8404add1b531a8bbb74a51a9a2206b7d9bb5",
    "verdict-random-p11-text": "c2c8b496aafeb86811409effcf4c8ae337add4792ddbed833bed99f64f0c8e7a",
    "verdict-random-p5-json": "13269a3202b8d722b072de32189072aeb6f398d6a4307afdd5a229d74857de50",
    "verdict-random-p5-text": "48ae339cbd1d97ebdc49063a8ee00f226a13caf33b47b2c52c241a54ee619a66",
}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        os.chdir(tmp)
        print("GOLDEN = {")
        for key in sorted(INVOCATIONS):
            print(f"    {key!r}: {_digest(INVOCATIONS[key])!r},")
        print("}")
