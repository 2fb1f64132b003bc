"""Golden byte test for the CLI.

Each case runs ``main(argv)`` in-process from the repository root and
compares the sha256 of its stdout, its stderr and its exit code against a
stored digest. Refactors must keep every digest; regenerate the table with
``PYTHONPATH=src python tests/test_golden.py`` only when an output change is
intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from pathlib import Path

import pytest

from quiverlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
QUIVER_FILES = ("a2sym", "framed2", "jordan2", "jordan3", "loop2")
EXPORT_TARGETS = ("add", "rem", "aux", "cb", "fixed", "chambers")
SEARCH_REP = "tests/data/a2sym_search_rep.json"
FILE_COMMANDS = ("analyze", "aux", "cb", "fixed", "chambers", "stab-table", "triangle", "moment-check")


def _cases() -> list[tuple[str, ...]]:
    cases = [("--format", "json", "verify", "all", "--seed", "7", "--samples", "5")]
    for name in QUIVER_FILES + ("jordan2_rep",):
        for what in EXPORT_TARGETS:
            cases.append(("export", f"inputs/{name}.json", "--what", what))
    for fmt in ("json", "table"):
        for name in QUIVER_FILES:
            for cmd in FILE_COMMANDS:
                extra = ("--samples", "5", "--seed", "7") if cmd == "moment-check" else ()
                cases.append(("--format", fmt, cmd, f"inputs/{name}.json") + extra)
        for cmd in ("stability", "tau"):
            cases.append(("--format", fmt, cmd, "inputs/jordan2_rep.json"))
        # a mixed theta runs the randomized search on a two-node representation
        cases.append(("--format", fmt, "stability", SEARCH_REP, "--theta=1,-2", "--seed", "3"))
    for name in QUIVER_FILES:
        sigma = "0,0" if name == "framed2" else "0"
        cases.append(("--format", "json", "fixed", f"inputs/{name}.json", "--sigma", sigma))
    cases.append(("--format", "json", "triangle", "inputs/loop2.json", "--window=-1..1"))
    return cases


def run_case(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    blob = f"{code}\n{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


GOLDEN = {
    '--format json verify all --seed 7 --samples 5': 'e44fad36c46e5c888f31722534ce4662c40dc6591c67d9a41d541077c156c8f8',
    'export inputs/a2sym.json --what add': 'e6cc6c6fd08939661de4d8d586debd63de423938ff61ecb9bc0f38266ec8bb5a',
    'export inputs/a2sym.json --what rem': 'e6b673aa7216d1ec7883efba582853d0efb554d536f7c2b7999d0e99cc472e57',
    'export inputs/a2sym.json --what aux': '69f1664ce0c06c5ecb8420dc658bb90734d78caf6d4817e4c6f53d0e37faabc7',
    'export inputs/a2sym.json --what cb': '98a58d44a4427635c5af0a81e646eb35aa2c495569bd74352aadb9c802b3db7d',
    'export inputs/a2sym.json --what fixed': 'db935428b383e16173abf5dfca84f885c9fa44d711c047fc02f69682bd6a654c',
    'export inputs/a2sym.json --what chambers': '47bd48aef753d74c7d6fd1e0bff9423d782e9c28ee8e4ddd85f4e4a11cb89f79',
    'export inputs/framed2.json --what add': '8e37a1605743d14a9341cce6bd3c27989b8bf00ba5c23db10c8fa82799b42af1',
    'export inputs/framed2.json --what rem': '82ea6a3f200e5001dc92a149ee7fd690c153492e6d56b5f9c870927770167aa4',
    'export inputs/framed2.json --what aux': '7a0636f7b1efcd2fe8c395359ca2e6c96b111ae73077d00efd40a5438527e8d0',
    'export inputs/framed2.json --what cb': '745844076eaee12a5a70bf2e06f5b263fd42f1b23e30ab53dd58ef12c7b95276',
    'export inputs/framed2.json --what fixed': '906ae0d8be311a7a6ff8c26b8ef8ff33f02511f2faaec2f4cc40eaf904c6519b',
    'export inputs/framed2.json --what chambers': 'a71fd9de14393022f52a6a3f377ae7a0c3df78f402379f3ee4cee79359da76dc',
    'export inputs/jordan2.json --what add': '9a4c38bd216506257cc0e028a748b0d9f0e13c82d76ee576995c2d525812c1b7',
    'export inputs/jordan2.json --what rem': 'b377fbcd7dee5770a31dcb02ef74b422976127d43e9c79a5f96817613c4be7d7',
    'export inputs/jordan2.json --what aux': '7b45a3157387d834632598b384cd76b59008a72f7b08a510cebc607611aa9059',
    'export inputs/jordan2.json --what cb': '27e83fa86ce197225bab46daeed18d117156df15901533be6bd8264bbc484fcf',
    'export inputs/jordan2.json --what fixed': '62600e1317606261101d33bc8602d4afe04684de5a92714c5b40e1c0841915d0',
    'export inputs/jordan2.json --what chambers': '47bd48aef753d74c7d6fd1e0bff9423d782e9c28ee8e4ddd85f4e4a11cb89f79',
    'export inputs/jordan3.json --what add': 'd68d3d30e6a685f7732ca904c7eb1a18f257223616e74b32a6e73ca6030909fa',
    'export inputs/jordan3.json --what rem': 'ee87996bc2b1318035ce33a8ef07c507a0875bdc22eb94baa85d838074e714a9',
    'export inputs/jordan3.json --what aux': 'db5eacbcc89973c2050e658fd5381bbaf67e371f8a760b4e9b0615698912c720',
    'export inputs/jordan3.json --what cb': 'dc1966b408f9f5d12d1e9242391a94a2b25cf6836b37bf53ef426cff55da8fe7',
    'export inputs/jordan3.json --what fixed': 'de7addc50401ad47fbf0c239f3ed2bb02a498828d10de2a4cbabd4468cac4486',
    'export inputs/jordan3.json --what chambers': '47bd48aef753d74c7d6fd1e0bff9423d782e9c28ee8e4ddd85f4e4a11cb89f79',
    'export inputs/loop2.json --what add': '92d3b2902eb7ad370cfb646e2194ae344776b6da261a00dceac8f7ecd58f84af',
    'export inputs/loop2.json --what rem': 'bcc83fa749a21c0475d9cd0eb3a84616c7a3fe87a10df69b0e4d424a8df386b7',
    'export inputs/loop2.json --what aux': '254efd86045f717d788c9f0c25501780a715da1b88c9ce97eee157befe019413',
    'export inputs/loop2.json --what cb': '9aadb9af5da9fe68881e071507a9fdb13e219384712d01061de2bd28916b771e',
    'export inputs/loop2.json --what fixed': 'f05726eacade42e682c055758e55a40f56341c92d25205cd4d56ce2b163a8527',
    'export inputs/loop2.json --what chambers': '47bd48aef753d74c7d6fd1e0bff9423d782e9c28ee8e4ddd85f4e4a11cb89f79',
    'export inputs/jordan2_rep.json --what add': 'a4c276a1a56fa87162213e8e25e6edc4c160ac1868aebc7d61557c3bfe483395',
    'export inputs/jordan2_rep.json --what rem': 'a4c276a1a56fa87162213e8e25e6edc4c160ac1868aebc7d61557c3bfe483395',
    'export inputs/jordan2_rep.json --what aux': 'a4c276a1a56fa87162213e8e25e6edc4c160ac1868aebc7d61557c3bfe483395',
    'export inputs/jordan2_rep.json --what cb': 'a4c276a1a56fa87162213e8e25e6edc4c160ac1868aebc7d61557c3bfe483395',
    'export inputs/jordan2_rep.json --what fixed': 'a4c276a1a56fa87162213e8e25e6edc4c160ac1868aebc7d61557c3bfe483395',
    'export inputs/jordan2_rep.json --what chambers': 'a4c276a1a56fa87162213e8e25e6edc4c160ac1868aebc7d61557c3bfe483395',
    '--format json analyze inputs/a2sym.json': '36b2082b5f9b37a03114c8415c9895e8ab1dcfe6b0f9a014382263fcf0153a1e',
    '--format json aux inputs/a2sym.json': '69f1664ce0c06c5ecb8420dc658bb90734d78caf6d4817e4c6f53d0e37faabc7',
    '--format json cb inputs/a2sym.json': '98a58d44a4427635c5af0a81e646eb35aa2c495569bd74352aadb9c802b3db7d',
    '--format json fixed inputs/a2sym.json': 'db935428b383e16173abf5dfca84f885c9fa44d711c047fc02f69682bd6a654c',
    '--format json chambers inputs/a2sym.json': '573de86491761f188c04d5f9dea56e1866b845db295785327089f30b05b5883a',
    '--format json stab-table inputs/a2sym.json': '89fcae35e9e885c5783729a03ffad4ccbe834121e60853f2ae576e029ab668df',
    '--format json triangle inputs/a2sym.json': '774a3dd1e147dac1feb9bbd187a15895e4e8c723f9abdc055e21061a8e461141',
    '--format json moment-check inputs/a2sym.json --samples 5 --seed 7': 'e328d15d6a026c62dbc8fda0b261f9e9283720ceb3a755cbc185ad4aa3503134',
    '--format json analyze inputs/framed2.json': 'c7786e0b4c20e5a29c7e6fafe7d4543a0f9630cbb59d90c2b3d54cb079fbaab0',
    '--format json aux inputs/framed2.json': '7a0636f7b1efcd2fe8c395359ca2e6c96b111ae73077d00efd40a5438527e8d0',
    '--format json cb inputs/framed2.json': '745844076eaee12a5a70bf2e06f5b263fd42f1b23e30ab53dd58ef12c7b95276',
    '--format json fixed inputs/framed2.json': '906ae0d8be311a7a6ff8c26b8ef8ff33f02511f2faaec2f4cc40eaf904c6519b',
    '--format json chambers inputs/framed2.json': '68ebca2c0e398f619ef8ad9c130969ac45c33b91d661c8c85c9a4c756a5a5252',
    '--format json stab-table inputs/framed2.json': 'cafa64e54655c7e5a8437366c1bd8bd267d003191a16391aaebcee1d39a361ff',
    '--format json triangle inputs/framed2.json': '190e0846c50bf1748c80d249058f376465d06ba872db6524e638f31979960c27',
    '--format json moment-check inputs/framed2.json --samples 5 --seed 7': 'e328d15d6a026c62dbc8fda0b261f9e9283720ceb3a755cbc185ad4aa3503134',
    '--format json analyze inputs/jordan2.json': '956d6abba4f8df4dc310f2d05475e22eb56745ed5cb798484417c3e85545e5c2',
    '--format json aux inputs/jordan2.json': '7b45a3157387d834632598b384cd76b59008a72f7b08a510cebc607611aa9059',
    '--format json cb inputs/jordan2.json': '27e83fa86ce197225bab46daeed18d117156df15901533be6bd8264bbc484fcf',
    '--format json fixed inputs/jordan2.json': '62600e1317606261101d33bc8602d4afe04684de5a92714c5b40e1c0841915d0',
    '--format json chambers inputs/jordan2.json': '573de86491761f188c04d5f9dea56e1866b845db295785327089f30b05b5883a',
    '--format json stab-table inputs/jordan2.json': 'f922d4ebdc2cae3039bcb302b30cf640ee3f04d319bd0bd26bac5c4a71bd11e0',
    '--format json triangle inputs/jordan2.json': 'f4ca89ab2950e77d399ecdf513f4ba094c32885589cf13ad38a6576f494a156e',
    '--format json moment-check inputs/jordan2.json --samples 5 --seed 7': 'e328d15d6a026c62dbc8fda0b261f9e9283720ceb3a755cbc185ad4aa3503134',
    '--format json analyze inputs/jordan3.json': 'ed609a8ba0902c6cfe124768e88ecf4f251deea85578e537e14bace978dca290',
    '--format json aux inputs/jordan3.json': 'db5eacbcc89973c2050e658fd5381bbaf67e371f8a760b4e9b0615698912c720',
    '--format json cb inputs/jordan3.json': 'dc1966b408f9f5d12d1e9242391a94a2b25cf6836b37bf53ef426cff55da8fe7',
    '--format json fixed inputs/jordan3.json': 'de7addc50401ad47fbf0c239f3ed2bb02a498828d10de2a4cbabd4468cac4486',
    '--format json chambers inputs/jordan3.json': '573de86491761f188c04d5f9dea56e1866b845db295785327089f30b05b5883a',
    '--format json stab-table inputs/jordan3.json': '941e5842189acd88988a32807e70b813b16c532000046be39ed6ae6d57542a12',
    '--format json triangle inputs/jordan3.json': '4d1296f0dddc824a669fc71514b059f6a0b91564d1868c4c9270157ef3644679',
    '--format json moment-check inputs/jordan3.json --samples 5 --seed 7': 'e328d15d6a026c62dbc8fda0b261f9e9283720ceb3a755cbc185ad4aa3503134',
    '--format json analyze inputs/loop2.json': '4cb94629a4e484128b9eb709b122e2732c37754d77f293e3dbdceda246111d07',
    '--format json aux inputs/loop2.json': '254efd86045f717d788c9f0c25501780a715da1b88c9ce97eee157befe019413',
    '--format json cb inputs/loop2.json': '9aadb9af5da9fe68881e071507a9fdb13e219384712d01061de2bd28916b771e',
    '--format json fixed inputs/loop2.json': 'f05726eacade42e682c055758e55a40f56341c92d25205cd4d56ce2b163a8527',
    '--format json chambers inputs/loop2.json': '573de86491761f188c04d5f9dea56e1866b845db295785327089f30b05b5883a',
    '--format json stab-table inputs/loop2.json': '2b23032fa64b131c3cb8fa5f247ba5c747c0f77253d058b8590a55aaeed1386c',
    '--format json triangle inputs/loop2.json': '652a00e9647e5ed4d74a5526769acad04060a4a5891e75eea4ab944c092a5339',
    '--format json moment-check inputs/loop2.json --samples 5 --seed 7': 'e328d15d6a026c62dbc8fda0b261f9e9283720ceb3a755cbc185ad4aa3503134',
    '--format json stability inputs/jordan2_rep.json': 'd1d6e12f2a1291de8aae8ec657b786d37f9e15ee281a66c2e6f675cfdfb96575',
    '--format json stability tests/data/a2sym_search_rep.json --theta=1,-2 --seed 3': '07455395d33be0384959e9eafce43043f12478924370135da9af38f3a0744aeb',
    '--format json tau inputs/jordan2_rep.json': '482b00a2f3b585060540db26b03da04b08d0a6cecc654e6c448fdc0368865d2d',
    '--format table analyze inputs/a2sym.json': '1504311456dba4afd185327b82233b3f4f24108e44a61dc3455cfdbf877d081e',
    '--format table aux inputs/a2sym.json': '69f1664ce0c06c5ecb8420dc658bb90734d78caf6d4817e4c6f53d0e37faabc7',
    '--format table cb inputs/a2sym.json': '98a58d44a4427635c5af0a81e646eb35aa2c495569bd74352aadb9c802b3db7d',
    '--format table fixed inputs/a2sym.json': 'b9416869bdc06cb4227f629562481040fe91dc652b5989c92ca1e2d324f5bb85',
    '--format table chambers inputs/a2sym.json': '7115437b9ce70e30d5359db9ad263f5194805280910b1426b5017eda598a79a4',
    '--format table stab-table inputs/a2sym.json': '2504583838f0aba785573f481922d0f08a6b3ab28f5a08057d2faef1babc65ad',
    '--format table triangle inputs/a2sym.json': '2d071e90754217adb563330e8654f3cfa72d3ad19307ff65cbb9887e5b6aa625',
    '--format table moment-check inputs/a2sym.json --samples 5 --seed 7': '95160d44d36e5b881089abca79bcd27411f287b0678080823e6049b9250de733',
    '--format table analyze inputs/framed2.json': '37dafe0e43dde3fe91be6515a2189eb8921471fc846f1a3b57054afb11ac9b09',
    '--format table aux inputs/framed2.json': '7a0636f7b1efcd2fe8c395359ca2e6c96b111ae73077d00efd40a5438527e8d0',
    '--format table cb inputs/framed2.json': '745844076eaee12a5a70bf2e06f5b263fd42f1b23e30ab53dd58ef12c7b95276',
    '--format table fixed inputs/framed2.json': '18e3c6db0cfd6073ca44214344808494df453607928d37da60a6125326aa28e1',
    '--format table chambers inputs/framed2.json': '59881316124e8d2862cc153191352fac17eff122725b34e3588caed5d3838f7f',
    '--format table stab-table inputs/framed2.json': '1accedb553b2154205d46c898ecf81a77dc5435621ebcdd891cf284e36b8d7a4',
    '--format table triangle inputs/framed2.json': '7bdfb44b51a5312bd649da46f1f8611ad9a2718cdad8f6e270653db73d2ad551',
    '--format table moment-check inputs/framed2.json --samples 5 --seed 7': '95160d44d36e5b881089abca79bcd27411f287b0678080823e6049b9250de733',
    '--format table analyze inputs/jordan2.json': '0d255aa8622ec1afb3194816eae23dbd2286a232e425bd1e9d8cc4239fd4ceb7',
    '--format table aux inputs/jordan2.json': '7b45a3157387d834632598b384cd76b59008a72f7b08a510cebc607611aa9059',
    '--format table cb inputs/jordan2.json': '27e83fa86ce197225bab46daeed18d117156df15901533be6bd8264bbc484fcf',
    '--format table fixed inputs/jordan2.json': '10af18a774521660dc4ce726604b3ba6235a8e0dc8d4f312b54f859d93168f4d',
    '--format table chambers inputs/jordan2.json': '7115437b9ce70e30d5359db9ad263f5194805280910b1426b5017eda598a79a4',
    '--format table stab-table inputs/jordan2.json': '673246df0c7c33b8cdef31582a816306937cd29aa069c17a59c500c7505bced5',
    '--format table triangle inputs/jordan2.json': '71ec870cfe3e3d7d6283a42f0f80c7b5d21fd9b425d5eaffe0d1af06a212970e',
    '--format table moment-check inputs/jordan2.json --samples 5 --seed 7': '95160d44d36e5b881089abca79bcd27411f287b0678080823e6049b9250de733',
    '--format table analyze inputs/jordan3.json': 'dafebb1d08c5190a81e3d76c6cef7fd4ae73d641fed0533f8edfb5eca0ded005',
    '--format table aux inputs/jordan3.json': 'db5eacbcc89973c2050e658fd5381bbaf67e371f8a760b4e9b0615698912c720',
    '--format table cb inputs/jordan3.json': 'dc1966b408f9f5d12d1e9242391a94a2b25cf6836b37bf53ef426cff55da8fe7',
    '--format table fixed inputs/jordan3.json': '744e28e349ae9879d58631453e94b432873b35fd1b48cdd988150774233c6f2c',
    '--format table chambers inputs/jordan3.json': '7115437b9ce70e30d5359db9ad263f5194805280910b1426b5017eda598a79a4',
    '--format table stab-table inputs/jordan3.json': 'a150c36b90ecff2968a7ecb9bc557c03cfb6e3c86da5a0d0816f305303f861dd',
    '--format table triangle inputs/jordan3.json': 'eaea539a9e16c6441295b4c3e87b974e3dc711988786f83902116f8c0579881f',
    '--format table moment-check inputs/jordan3.json --samples 5 --seed 7': '95160d44d36e5b881089abca79bcd27411f287b0678080823e6049b9250de733',
    '--format table analyze inputs/loop2.json': 'f9c03931de25408b5f24b827b7edee3e2db1b6ce453d4d88dd1b325c09873cb0',
    '--format table aux inputs/loop2.json': '254efd86045f717d788c9f0c25501780a715da1b88c9ce97eee157befe019413',
    '--format table cb inputs/loop2.json': '9aadb9af5da9fe68881e071507a9fdb13e219384712d01061de2bd28916b771e',
    '--format table fixed inputs/loop2.json': '1a09c99ddf2db8ce63a0d01c889739fc646bb1e2e4559d9208da9f4a768f6aee',
    '--format table chambers inputs/loop2.json': '7115437b9ce70e30d5359db9ad263f5194805280910b1426b5017eda598a79a4',
    '--format table stab-table inputs/loop2.json': 'dffe6f9bc372c5a0772d01c5e780981682e2cb7bfcd57e8bb972967e9cf91b9b',
    '--format table triangle inputs/loop2.json': '8a7d44b052ac895fc59447405410b101c0627949164d89b7b784ad99bd43525f',
    '--format table moment-check inputs/loop2.json --samples 5 --seed 7': '95160d44d36e5b881089abca79bcd27411f287b0678080823e6049b9250de733',
    '--format table stability inputs/jordan2_rep.json': '9c8b0fb6b34e19a8c1c344442bbdaacbb26f8f6b299e8103ede7700baddef2e4',
    '--format table stability tests/data/a2sym_search_rep.json --theta=1,-2 --seed 3': '2e3ad17bf671238b4f50dd7cce5a4be8149cba4fdaac1b0dd56cb9b8fe9d2430',
    '--format table tau inputs/jordan2_rep.json': 'c2f9eb1755b1fcabd4cffbf49f7866a221070e7fe4c0c0baf5c4b9fbcc1294d3',
    '--format json fixed inputs/a2sym.json --sigma 0': 'aca058bace24ad352636f1642d9331eef690c2da958123ad392bae4e1daf1d45',
    '--format json fixed inputs/framed2.json --sigma 0,0': '89a92dea41f8e4db0eaa91bfba89d48a64b1f8ed39d6c58a123a8e87b26e33e0',
    '--format json fixed inputs/jordan2.json --sigma 0': 'e8f6dcf89f4c90d60cd3e9c932f73be754efcf63c3cf6cea64a671bc4f710599',
    '--format json fixed inputs/jordan3.json --sigma 0': '910af6a66642a316726243f061c044fcc07ade3d9a9f2bdd2a307594d2a04aa0',
    '--format json fixed inputs/loop2.json --sigma 0': 'bb82b66850acbfa773d4634f2d578beaf86f1a2aaf8c4f613936d2837539c9d6',
    '--format json triangle inputs/loop2.json --window=-1..1': '30e72c93b5996b8e5e5c1fad348025babe7de21a6439f342ada6c019ba9e155f',
}


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_golden(argv):
    assert run_case(argv) == GOLDEN[" ".join(argv)]


if __name__ == "__main__":
    for argv in _cases():
        print(f"    {' '.join(argv)!r}: {run_case(argv)!r},")
