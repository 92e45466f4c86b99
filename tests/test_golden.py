"""Golden CLI output: SHA-256 of ``main(argv)`` stdout and the exit code.

The digests pin every byte the ``emit``, ``eval``, ``verify`` and
``report`` commands print, so refactors of the builders and renderers
cannot change the output unnoticed.  A digest may change only with a
format change announced in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from zeps.cli import main

GOLDEN = (
    ("emit --domain z --dim 2 --T 1 --format json", 0, "19f08ce64199c623b8f58c2f8817a002b436a3d2ab918f9a3fa1b3c1d214620f"),
    ("emit --domain z --dim 2 --T 1 --format text", 0, "27dfb948e83501c8bce3e0060ff312b47c357da7556d582d52138c037177605c"),
    ("emit --domain z --dim 2 --T 1 --format latex", 0, "8c0eabedafe14216027a00d7ac03c3a8218e45a65660e4267901ad1264acf826"),
    ("emit --domain z --dim 2 --T 1,1/2 --format json", 0, "19f08ce64199c623b8f58c2f8817a002b436a3d2ab918f9a3fa1b3c1d214620f"),
    ("emit --domain z --dim 2 --T 1,1/2 --format text", 0, "27dfb948e83501c8bce3e0060ff312b47c357da7556d582d52138c037177605c"),
    ("emit --domain z --dim 2 --T 1,1/2 --format latex", 0, "8c0eabedafe14216027a00d7ac03c3a8218e45a65660e4267901ad1264acf826"),
    ("emit --domain z --dim 3 --T 1 --format json", 0, "9333a90d6d0bbea07ea2e4b333454014ebf431ceb7bb885269ca70948d8e3f4c"),
    ("emit --domain z --dim 3 --T 1 --format text", 0, "84e0a5e9d1256c65e932702423e98f85d123776b6f7c40f79cf308925453d718"),
    ("emit --domain z --dim 3 --T 1 --format latex", 0, "2e11c0b080fc0f1f08bb36ec1eaf971aa98f3f880292c635789c8cb61e9599d7"),
    ("emit --domain z --dim 3 --T 1/2,1,3/2 --format json", 0, "9333a90d6d0bbea07ea2e4b333454014ebf431ceb7bb885269ca70948d8e3f4c"),
    ("emit --domain z --dim 3 --T 1/2,1,3/2 --format text", 0, "84e0a5e9d1256c65e932702423e98f85d123776b6f7c40f79cf308925453d718"),
    ("emit --domain z --dim 3 --T 1/2,1,3/2 --format latex", 0, "2e11c0b080fc0f1f08bb36ec1eaf971aa98f3f880292c635789c8cb61e9599d7"),
    ("emit --domain z --dim 4 --T 1 --format json", 0, "aa357ae932c825cd887ed62b0f807313e6c5bc050419ad784af20c13192e6847"),
    ("emit --domain z --dim 4 --T 1 --format text", 0, "3320aebee292b7dae0ebffe3c535f65eb36474ebac28de8c069ee714ba0e4102"),
    ("emit --domain z --dim 4 --T 1 --format latex", 0, "8bb801996c310bb0c7d19806401bde2db31c89faed27dc094e1bb610af3d31f3"),
    ("emit --domain z --dim 4 --T 1/3,1,2,1/2 --format json", 0, "aa357ae932c825cd887ed62b0f807313e6c5bc050419ad784af20c13192e6847"),
    ("emit --domain z --dim 4 --T 1/3,1,2,1/2 --format text", 0, "3320aebee292b7dae0ebffe3c535f65eb36474ebac28de8c069ee714ba0e4102"),
    ("emit --domain z --dim 4 --T 1/3,1,2,1/2 --format latex", 0, "8bb801996c310bb0c7d19806401bde2db31c89faed27dc094e1bb610af3d31f3"),
    ("emit --domain z --dim 5 --T 1 --format json", 0, "def3a03b9bae814040d5c968dbc504741498dd8dc9abf5ab6f71f2d62cb24c1a"),
    ("emit --domain z --dim 5 --T 1 --format text", 0, "9477a46199576c23517e2df7ba788baf4cb06805f6bd72098512ab488cb45f52"),
    ("emit --domain z --dim 5 --T 1 --format latex", 0, "874074b214542d175e8a1929cc98f3c226bdf9b6e7c866c0e739fa6c76f1dd8f"),
    ("emit --domain z --dim 5 --T 1,1/2,2,3/2,1/4 --format json", 0, "def3a03b9bae814040d5c968dbc504741498dd8dc9abf5ab6f71f2d62cb24c1a"),
    ("emit --domain z --dim 5 --T 1,1/2,2,3/2,1/4 --format text", 0, "9477a46199576c23517e2df7ba788baf4cb06805f6bd72098512ab488cb45f52"),
    ("emit --domain z --dim 5 --T 1,1/2,2,3/2,1/4 --format latex", 0, "874074b214542d175e8a1929cc98f3c226bdf9b6e7c866c0e739fa6c76f1dd8f"),
    ("emit --domain s --dim 2 --T 1 --format json", 0, "3ec3346145abd2b40e088e17f371a2d0baa817426a0eb0b1ce5623c0a374c3ac"),
    ("emit --domain s --dim 2 --T 1 --format text", 0, "bab080c976aa734ebfd567502b8a5a4fc17a0b282ac02badae24b5b918941df9"),
    ("emit --domain s --dim 2 --T 1 --format latex", 0, "2825acc1011a6204611369145ab6f72801da50dbfad6e4d00fb421defab57300"),
    ("emit --domain s --dim 2 --T 1,1/2 --format json", 0, "73c282b557dcdc2f32084a8573cb8a7e940b7447b7e68585c3a1ad4031f8af59"),
    ("emit --domain s --dim 2 --T 1,1/2 --format text", 0, "b5a236e78da9499a7bdd984021d4bcc1da4f02a597b32db21943ba073beb07a0"),
    ("emit --domain s --dim 2 --T 1,1/2 --format latex", 0, "03ae333ea3d490eaeb22ab8ab0c6031d85ecf36539770b6e6a0db71e8f55c35a"),
    ("emit --domain s --dim 3 --T 1 --format json", 0, "8286bb2699418b839576533c09632ebb89dbd9477e4d977f1c636177c2a9e6bf"),
    ("emit --domain s --dim 3 --T 1 --format text", 0, "a9c89dba8a49d546320c6ed2b1fe6aea8cc833dc32327b02acbe0320cddcd9ed"),
    ("emit --domain s --dim 3 --T 1 --format latex", 0, "fe38f82e44b5a3e8002b3f987c5851888ccbf7b7c0d3e81137f146d6254ef5c4"),
    ("emit --domain s --dim 3 --T 1/2,1,3/2 --format json", 0, "65dd9c026d047de20554510935fc7c0ebaa2a8a346f075571cc8a254c659622e"),
    ("emit --domain s --dim 3 --T 1/2,1,3/2 --format text", 0, "d40f65cd1bfedeccb57c836b029e97b6e5ba6355c18ab70bb78426a77a1656f9"),
    ("emit --domain s --dim 3 --T 1/2,1,3/2 --format latex", 0, "48df73916ecfa5a89a99c098376881daf058f021e66edfcf87ee44517bf0d8ec"),
    ("emit --domain s --dim 4 --T 1 --format json", 0, "fb35cdd85b0de829e1cc613a9978fc73b30febcab899734ae079f1645d7625c1"),
    ("emit --domain s --dim 4 --T 1 --format text", 0, "c2a7c59ca1a3a63ce4fd9176de5ff1186510ab14faea899a4b2daa90637dddd4"),
    ("emit --domain s --dim 4 --T 1 --format latex", 0, "908e2a0fe90c5ecdb3b590aba49112302d4291ddb8ff322c85b4ab2c157383c6"),
    ("emit --domain s --dim 4 --T 1/3,1,2,1/2 --format json", 0, "31d3296e1a019521b60cb60ceacac9bd7ffc4f563bd4d47561487b0ba1574b00"),
    ("emit --domain s --dim 4 --T 1/3,1,2,1/2 --format text", 0, "38ce6d6717ee94431da23397403bf42617e466b5334b98595381673915235762"),
    ("emit --domain s --dim 4 --T 1/3,1,2,1/2 --format latex", 0, "3221a4d593b88f2a4c946122116136b5bd9db26b30f09d8eaea771d98eee98a0"),
    ("emit --domain z --dim 6 --format json", 0, "64b7263be587c19084c8211e7bc0f2e9ff1dc06d4fa96fd7ba07163b1cf40544"),
    ("emit --domain s --dim 5 --T 1 --format json", 0, "1dc1e3bfde8edc2781920812389894809920cdab8f61efb17ea0d93f2b40e082"),
    ("emit --domain s --dim 5 --T 1/2,1,3/2,2,5/2 --format latex", 0, "6f6e4bbcbcaeee569074c6486f4620e5c86a9bf9e09d28501d05e02a3e087fa2"),
    ("report --dim 2 --T 1/2 --format text", 0, "9eb6dd75986a25f0da4cb21b61660345992627bf64f310a82c64db2a83396282"),
    ("report --dim 2 --T 1/2 --format json", 0, "fc78984eb0802d5f3c8d56ef2f78cc21065cd915dad7dacda31c3bbe25b3d875"),
    ("verify --dim 3 --seed 7 --samples 10", 0, "6169bf26dbe5964f2f34b492fada257820921e44729f2c250ec3c78c7233a660"),
    ("verify --dim 4 --T 1,1/2,2,1/3 --seed 7 --samples 5", 0, "afe6731f44faf8b1ea0845b99c451eb60690f86cb6667e330fc53686bf34ba17"),
    ("eval --domain z --dim 3 --point 2,1/2,3", 0, "ff1be7b47ed40da43241c11f1765230121d657f235479db75fd8bd85f021db2a"),
    ("eval --domain z --dim 3 --point 1+1j,2-0.5j,0.5+2j", 0, "a2563d40915082294a74459c24b277cc4835dc70242ad40a2ec40a977bd474b8"),
    ("eval --domain s --dim 3 --T 1/2,1,2 --point 1/3,-1,3", 0, "07f6703831b8cd390d97dd4b53684cac19f766283dd608960d6d9abc415153e5"),
    ("eval --domain s --dim 3 --T 1/2,1,2 --point 0.5+1j,-1+0.25j,0.3-2j", 0, "cffc806347bf443f478fe2c2c5c1666acfcd45059a107d8b46137cda33f7a9e3"),
)


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_stdout_matches_golden_digest(command, code, digest):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = main(command.split())
    assert exit_code == code
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == digest
