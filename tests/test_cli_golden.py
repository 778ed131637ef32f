"""Golden output of one command line per subcommand and form.

Each command line runs through ``cli.run`` on files saved from the FIX
fixtures, once with ``--machine`` and once as plain text with
``--decimal 4``. Its exit code and the sha256 of its stdout must equal the
values recorded in GOLDEN, so any change to the bytes a command prints,
however it comes about, shows up here.

After a deliberate change of output, print the new table with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from lp_lab import fixtures
from lp_lab.ancillarity import condition_on_block
from lp_lab.cli import run
from lp_lab.model import pair_at
from lp_lab.partition import Partition
from lp_lab.serialization import save_model, save_pair, save_prior

# name -> command line, with {file} for the files of ``write_files``
COMMANDS = {
    "validate-pair": ["validate", "{b1}"],
    "validate-model": ["validate", "{d}"],
    "reduce": ["reduce", "{a1}"],
    "relate-S": ["relate", "--kind", "S", "{a1}", "{b1}"],
    "relate-C": ["relate", "--kind", "C", "{d1}", "{dc}"],
    "relate-L": ["relate", "--kind", "L", "{b2}", "{c1}"],
    "relate-SC": ["relate", "--kind", "SC", "{b2}", "{c1}"],
    "relate-DURBIN": ["relate", "--kind", "DURBIN", "{d1}", "{dc}"],
    "ancillaries-all": ["ancillaries", "{d}"],
    "ancillaries-maximal": ["ancillaries", "{d}", "--maximal"],
    "ancillaries-laminal": ["ancillaries", "{d}", "--laminal"],
    "birnbaumize": ["birnbaumize", "{b2}", "{c1}"],
    "efm": ["efm", "{b2}", "{c1}"],
    "chain-SC": ["chain", "--kind", "SC", "{b2}", "{c1}"],
    "chain-C": ["chain", "--kind", "C", "{b2}", "{c1}"],
    "closure": ["closure", "--kind", "SC", "--dir", "{dir}"],
    "closure-birnbaum": ["closure", "--kind", "SC", "--dir", "{dir}", "--augment", "birnbaum"],
    "closure-efm": ["closure", "--kind", "C", "--dir", "{dir}", "--augment", "efm"],
    "search-c-transitivity-found": ["search", "c-transitivity", "--max-space", "3", "--max-denominator", "4"],
    "search-c-transitivity-exhausted": ["search", "c-transitivity", "--max-space", "2", "--max-denominator", "4"],
    "search-c-transitivity-3-3-3": ["search", "c-transitivity", "--theta-size", "3", "--max-space", "3", "--max-denominator", "3"],
    "search-c-transitivity-defaults": ["search", "c-transitivity"],
    "search-c-transitivity-4-3-2": ["search", "c-transitivity", "--theta-size", "4", "--max-space", "3", "--max-denominator", "2"],
    "search-l-minus-sc-found": ["search", "l-minus-sc", "--max-space", "2", "--max-denominator", "4"],
    "search-l-minus-sc-exhausted": ["search", "l-minus-sc", "--max-space", "1", "--max-denominator", "4"],
    "rb-analyze": ["rb", "analyze", "{b2}", "--prior", "{e}", "--hypothesis", "t1"],
    "rb-estimate": ["rb", "estimate", "{b2}", "--prior", "{e}"],
    "rb-strength": ["rb", "strength", "{b2}", "--prior", "{e}", "--theta", "t2"],
    "check-model": ["check", "model", "{a1}"],
    "check-model-ancillary": ["check", "model", "{d1}", "--ancillary", "1,2|3,4"],
    "check-prior": ["check", "prior", "{a1}", "--prior", "{e}"],
}
FORMS = {"machine": ["--machine"], "decimal": ["--decimal", "4"]}

# (command, form) -> (exit code, sha256 of stdout)
GOLDEN = {
    ('validate-pair', 'machine'): (0, '636bf71b100a127f9225c8732835a37bc35f9acaf774da4739911adb2acf091c'),
    ('validate-pair', 'decimal'): (0, 'b8652bca1da199a0e50b570a61d616f15e5239c8bc020a6eedc53caadea03af8'),
    ('validate-model', 'machine'): (0, 'b8fc1f7ec517d45c8983e7f9a2762727d10d697f5aafd9c19636c9f09901c127'),
    ('validate-model', 'decimal'): (0, 'a8e0d1f9d344a0f2986175596a884aa54b21aabe64a4097f853ddad6b29daa64'),
    ('reduce', 'machine'): (0, '54d37bd2c0a97d16d11fe508ebfe9689ccefafdad87b20aecec3dadfce1ee024'),
    ('reduce', 'decimal'): (0, 'f1303946a54f6760bfe135a5ba6b4786c3ad478a878b7120af48d38571bb8ba0'),
    ('relate-S', 'machine'): (0, 'aa68c1d511784eb494254b2e58a5a2d689ff2ed0f31f71ee4e5455c938fb375a'),
    ('relate-S', 'decimal'): (0, '845e3c4de27408dfb763fbdc65b722ec034e145d348426082d09e1b9280597a6'),
    ('relate-C', 'machine'): (0, 'c34f26e74516ff9c7532fe4cddd2c0ce7a69490946ef9cb7fd71a589ffac3c28'),
    ('relate-C', 'decimal'): (0, '2a58ba19da575690c43142181b8684d108d3b99b8be3304c99bcf75e98346373'),
    ('relate-L', 'machine'): (0, '9011d6586056c93792e629ac0f50c705b0090e8e80b38e9b935ed4451ca4c6a5'),
    ('relate-L', 'decimal'): (0, '665800517a749102f7f0178b0b96abb894244f43ba6570580b41387d677f62f8'),
    ('relate-SC', 'machine'): (1, '93fd33443f0b66352031e253f19221e5bb01a5f7120e1683070abf4095472995'),
    ('relate-SC', 'decimal'): (1, '55e586f6db0f46c035c98852b97b9381742489cb8de247506dc47204d6954eb3'),
    ('relate-DURBIN', 'machine'): (1, '77a8e93c111e7659b736d38b4e75ce95fbfa9894cccd864527d460c3e9e68d9b'),
    ('relate-DURBIN', 'decimal'): (1, '535a54554b16f50cf7c040d8f7787f3211c97c74e61d41f8fa9e2732934ad33b'),
    ('ancillaries-all', 'machine'): (0, '0d6761867202b0cb888e5b2c2424c00154f52eb4604bc650deea4159bc2c484b'),
    ('ancillaries-all', 'decimal'): (0, '4e334cfb7e1233f4a1ab612ebe61774c5b32e54cdbcf5e646f33532a3ce53c67'),
    ('ancillaries-maximal', 'machine'): (0, '0d6761867202b0cb888e5b2c2424c00154f52eb4604bc650deea4159bc2c484b'),
    ('ancillaries-maximal', 'decimal'): (0, '4004952fb64e2788a7525e21a2e51df872f4a7ddd5347aec0a553dc46582257c'),
    ('ancillaries-laminal', 'machine'): (0, '0d6761867202b0cb888e5b2c2424c00154f52eb4604bc650deea4159bc2c484b'),
    ('ancillaries-laminal', 'decimal'): (0, '934262ea125c50e72ada0c3083b8aa848ee15db3f1635c85f9905ad8ae2bcca0'),
    ('birnbaumize', 'machine'): (0, '6c74ceb61954964236394c8043fb26f840a20933d6de0043a6751081a113ae99'),
    ('birnbaumize', 'decimal'): (0, '5963b6a592bc40b9cb6bb1196b9e7a906a101cf4b59512f50dcf1c677e09d7a5'),
    ('efm', 'machine'): (0, 'ebf79183ce7c92fec07140389732caf6dcfc6f28c18cb561dae812eb31660dc4'),
    ('efm', 'decimal'): (0, '3b2728e882f6e34cf44dd1fde72d98e8bc8a95e6e81623fbf939769d4dc45a39'),
    ('chain-SC', 'machine'): (0, '0b1b08f06485b3b6a5ab837b8e821b50283edb46330b9666de689a54ae32da26'),
    ('chain-SC', 'decimal'): (0, 'a80126e10d94ee60b270d359454efced0fb1140b61a58b34621811c53de70c18'),
    ('chain-C', 'machine'): (0, '7347062af24aa5d44667d48974a319bfb0e5b62af964520f241dec00a9c2eb9a'),
    ('chain-C', 'decimal'): (0, '3b7f596209b209f071b215d6dace53ecf2019faf31cf7d2d0e1b3da1e46e3809'),
    ('closure', 'machine'): (0, '8cb685c38c8773ed7ca7065afd3f10f92c62bda4238fba17e1d3a7fc7ba2456e'),
    ('closure', 'decimal'): (0, '23912c96b4b1629be2428baba0a13d93ea1df30879cdc2ead9b057f7773f218f'),
    ('closure-birnbaum', 'machine'): (0, '14fc343cc95237a15c828e943bbfad7d1399b6f23cfdcf0f48dc4035070118c1'),
    ('closure-birnbaum', 'decimal'): (0, '52209825bb850ccb175b5ea6c0aca87345333b1edb23b30e04981e3475a6c954'),
    ('closure-efm', 'machine'): (0, '9032506d50f87f76bc9e50ce35426eb8359670341488745bb1de4824e8a74d16'),
    ('closure-efm', 'decimal'): (0, 'de3e35f30fae87915015edafd18aae7fdda5971910fc74f9018e561ba0a107ef'),
    ('search-c-transitivity-found', 'machine'): (0, 'af4af4d640ac1cdce63cd6d9005834268e5fda03df0f63ae7e1ba5ff2ee57b24'),
    ('search-c-transitivity-found', 'decimal'): (0, 'a7d5a223a608143fa1460658e6b83941d778713d8c0cfcf4a07a9032c002fbea'),
    ('search-c-transitivity-exhausted', 'machine'): (1, '78637eaf2c8beadbe56a3dba2fa7eb7b8de820adcf78e63265bdc5efd4f45407'),
    ('search-c-transitivity-exhausted', 'decimal'): (1, '2934779119be9f8ba347be1384a55e811f5ecb1fdbdea31d1e0f06614e411281'),
    ('search-c-transitivity-3-3-3', 'machine'): (1, '320041ea1740d546cef25e6933ff189057b032dc15460bae802a81144c14d009'),
    ('search-c-transitivity-3-3-3', 'decimal'): (1, '2934779119be9f8ba347be1384a55e811f5ecb1fdbdea31d1e0f06614e411281'),
    ('search-c-transitivity-defaults', 'machine'): (0, 'eb5f1ee78918d52c34d778ef05d5136c80c9e690f1dab6dfb36f986cd561deb1'),
    ('search-c-transitivity-defaults', 'decimal'): (0, 'a7d5a223a608143fa1460658e6b83941d778713d8c0cfcf4a07a9032c002fbea'),
    ('search-c-transitivity-4-3-2', 'machine'): (1, '43d54c760a769d59f750b54a094583a469fefc6ffb5329198de566494383d114'),
    ('search-c-transitivity-4-3-2', 'decimal'): (1, '2934779119be9f8ba347be1384a55e811f5ecb1fdbdea31d1e0f06614e411281'),
    ('search-l-minus-sc-found', 'machine'): (0, '9328bd65d617f76bd5f9f5906ce515cee24474b178c3b7571a8e42021fdc1261'),
    ('search-l-minus-sc-found', 'decimal'): (0, 'e4c2998c98def3a962d5d17fbbf32f9314b7d7621a1cbf401af9f71269e45889'),
    ('search-l-minus-sc-exhausted', 'machine'): (1, '707eba267c59fb4727bed02aa98a0f7b56633bbd25d5af65a83bd8ca754d303b'),
    ('search-l-minus-sc-exhausted', 'decimal'): (1, 'd37ae4f1704f630f268b2e7ce5141640a2cc59436afe547eb3ce7b8abaca4c11'),
    ('rb-analyze', 'machine'): (0, '0b031b0d8357716fc2c1fd70d515425f89abf708da763d9fda1630c06a5d6fe9'),
    ('rb-analyze', 'decimal'): (0, 'f66937a6322231396b975e420be32be78a25d1f0894e5a2797549cbed974d7f0'),
    ('rb-estimate', 'machine'): (0, '94327e2efe44dea475213b33a34a9420750631c7d4403dce897ecf48240682c2'),
    ('rb-estimate', 'decimal'): (0, 'ab71ff30113ed01b9de5418a59039bb053a3079a945f83eda8abaa4f20d8098a'),
    ('rb-strength', 'machine'): (0, '5d974868ccc0c469e034fa17d95d62800a3ee5d22319250adfec307b5a78f580'),
    ('rb-strength', 'decimal'): (0, '03375e4aaa665e6b3516153a159845f421c816efcd63d0eb875ee1874c17f5d9'),
    ('check-model', 'machine'): (0, '48ace5cf2a5fb74254467c72e16755d8ee6a129837fd5c854ca2582197d270ec'),
    ('check-model', 'decimal'): (0, '52cc21d7b7006b626ffd7cfd0fdc183fe8017234d928eb1106cc59a3c67dbf78'),
    ('check-model-ancillary', 'machine'): (0, '92b3cfdade7625c7dcfc524ee4a2a87817b7d6c5f1aea496d2f7889323ce0ea4'),
    ('check-model-ancillary', 'decimal'): (0, '2c53c18f577100f9dc89a7ca2c52e949cd73ed3a8015e373b43d4db0125e7af6'),
    ('check-prior', 'machine'): (0, 'ea78999cf3c0b6ab4f78417b5fefb9d90e433978f12ad25193085269df123a03'),
    ('check-prior', 'decimal'): (0, '2058290256aaa3c329ae08bd0f6ed1f2748a223b851f4ff4ac9c0f56e5f7aa90'),
}


def golden_pairs() -> dict:
    """The pairs the command lines read: FIX pairs and a conditional of
    FIX-D."""
    fb, fd = fixtures.fix_b(), fixtures.fix_d()
    d1 = pair_at(fd, "1")
    return {
        "a1": pair_at(fixtures.fix_a(), "x1"),
        "b1": pair_at(fb, "y1"),
        "b2": pair_at(fb, "y2"),
        "c1": pair_at(fixtures.fix_c(), "z1"),
        "d1": d1,
        "dc": condition_on_block(d1, Partition.of(4, [[0, 1], [2, 3]])),
    }


def write_files(directory: Path) -> dict:
    """Save the golden pairs, FIX-D and FIX-E under directory."""
    fd = fixtures.fix_d()
    closure_dir = directory / "universe"
    closure_dir.mkdir()
    paths = {"dir": str(closure_dir)}
    for name, pair in golden_pairs().items():
        paths[name] = str(directory / f"{name}.pair")
        save_pair(pair, paths[name])
        if name in ("a1", "b1", "b2", "c1"):
            save_pair(pair, closure_dir / f"{name}.pair")
    paths["d"] = str(directory / "d.model")
    save_model(fd, paths["d"])
    paths["e"] = str(directory / "e.prior")
    save_prior(fixtures.fix_e(), paths["e"])
    return paths


def outcome(command: str, form: str, paths: dict) -> tuple[int, str]:
    argv = FORMS[form] + [arg.format(**paths) for arg in COMMANDS[command]]
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_files(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("command", COMMANDS)
def test_golden_output(command, form, paths):
    assert outcome(command, form, paths) == GOLDEN[command, form]


def test_exhausted_searches_name_their_bounds(paths):
    # the payload carries the bounds, so searches that find nothing over
    # different grids print different bytes
    outcomes = [
        outcome(command, "machine", paths)
        for command in (
            "search-c-transitivity-exhausted",
            "search-c-transitivity-3-3-3",
            "search-c-transitivity-4-3-2",
        )
    ]
    assert {code for code, _ in outcomes} == {1}
    assert len({digest for _, digest in outcomes}) == 3


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = write_files(Path(tmp))
        table = {
            (command, form): outcome(command, form, files)
            for command in COMMANDS
            for form in FORMS
        }
    sys.stdout.write("GOLDEN = {\n")
    for key, value in table.items():
        sys.stdout.write(f"    {key!r}: {value!r},\n")
    sys.stdout.write("}\n")
