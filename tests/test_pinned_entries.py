"""Exact entries of F's differentials and of the ζ maps, pinned by hash.

The golden layouts fix only which blocks are nonzero; these hashes of the
JSON export fix every entry, sign included, of dF_1..dF_6 and of ζ^k_u for
k ≤ 2, on both worked examples over ℚ and over 𝔽_32003.  The hashes of the
`resolve --out` files fix the whole exported tree of a generic 4-variable
ring, the shape the benchmark's `resolve-4var-fp` runs.
"""

import hashlib

import pytest

from koszulator import cli
from koszulator.fields import PrimeField, RationalField
from koszulator.koszul import build_koszul, cycles_from_generators
from koszulator.render import export_map_json
from koszulator.resolution import assemble_f
from koszulator.zetamaps import build_zeta

from conftest import CODEPTH2_GENS, CODEPTH3_GENS, VARS
from oracles import ring_from_strings

RINGS = {"codepth2": CODEPTH2_GENS, "codepth3": CODEPTH3_GENS}
FIELDS = {"Q": RationalField(), "F32003": PrimeField(32003)}

PINNED = {
    ('codepth2', 'Q'): {
        'dF_1': '3179daaed41350385580cc091169ae7ae4b69e66b985e52c6e837667927a397a',
        'dF_2': '2bf8c4e453668c1092514dcd11d598e9d9b5da8b87731cea5f0cc9d14180af08',
        'dF_3': 'a6e6d2731889f25bdfb9956d5ebcb6a28430804f94fa35137c19781b2dc66bb7',
        'dF_4': '0813790735af4ae7c80aac1669f88504b1603a0fe726c7eab8c3f9f040a971b5',
        'dF_5': 'adfba80eb3ac3b2c1c848fa76f28b2156f91bbd9dea4b605a8434628a6c3b1b9',
        'dF_6': 'dd7bb75eb9b4c96c2b9c002580e352caf103f64dcf9f2aa218b59cd9c69caccc',
        'zeta^0_1': '41127068e10add36c5167474f90fbcc7ef26290dda508e4a7cd892a2e3fdc497',
        'zeta^0_2': '263b28f696e56609564989d84d6b2582cd3c95c9fd60b2638243996f27e9c308',
        'zeta^0_3': '53bbe286a5dd95615292972452d9706cdbb1b74f7b2043a34bd397e60a331a1a',
        'zeta^1_1': '7cb81d52e47ae2e478a1f1000c66e48bdf4281d6fe4d43e3b39261b7387448c7',
        'zeta^1_2': '9db794edaf63df9eae12c7030b09c99ca8ffc9c232655295bc15ab55ece1530e',
        'zeta^1_3': 'cec091b62ff77fb4fbc52dc1a95daac8861bad4e0911269ec924c081b15bd63d',
        'zeta^2_1': '99b1029444bcff2634935c04ecd8415ececec77c3b705c49faefa86aa4109ecf',
        'zeta^2_2': 'eb219c93a22327990da531d40158e84030930bdfc42e9855792f3053a668ae99',
        'zeta^2_3': 'e806c9bf64d53f88762ad8f36fc047a69e920bbae3a050a550b6ad611642f0fd',
    },
    ('codepth2', 'F32003'): {
        'dF_1': '3179daaed41350385580cc091169ae7ae4b69e66b985e52c6e837667927a397a',
        'dF_2': '2bf8c4e453668c1092514dcd11d598e9d9b5da8b87731cea5f0cc9d14180af08',
        'dF_3': 'a6e6d2731889f25bdfb9956d5ebcb6a28430804f94fa35137c19781b2dc66bb7',
        'dF_4': '0813790735af4ae7c80aac1669f88504b1603a0fe726c7eab8c3f9f040a971b5',
        'dF_5': 'adfba80eb3ac3b2c1c848fa76f28b2156f91bbd9dea4b605a8434628a6c3b1b9',
        'dF_6': 'dd7bb75eb9b4c96c2b9c002580e352caf103f64dcf9f2aa218b59cd9c69caccc',
        'zeta^0_1': '41127068e10add36c5167474f90fbcc7ef26290dda508e4a7cd892a2e3fdc497',
        'zeta^0_2': '263b28f696e56609564989d84d6b2582cd3c95c9fd60b2638243996f27e9c308',
        'zeta^0_3': '53bbe286a5dd95615292972452d9706cdbb1b74f7b2043a34bd397e60a331a1a',
        'zeta^1_1': '7cb81d52e47ae2e478a1f1000c66e48bdf4281d6fe4d43e3b39261b7387448c7',
        'zeta^1_2': '9db794edaf63df9eae12c7030b09c99ca8ffc9c232655295bc15ab55ece1530e',
        'zeta^1_3': 'cec091b62ff77fb4fbc52dc1a95daac8861bad4e0911269ec924c081b15bd63d',
        'zeta^2_1': '99b1029444bcff2634935c04ecd8415ececec77c3b705c49faefa86aa4109ecf',
        'zeta^2_2': 'eb219c93a22327990da531d40158e84030930bdfc42e9855792f3053a668ae99',
        'zeta^2_3': 'e806c9bf64d53f88762ad8f36fc047a69e920bbae3a050a550b6ad611642f0fd',
    },
    ('codepth3', 'Q'): {
        'dF_1': '3179daaed41350385580cc091169ae7ae4b69e66b985e52c6e837667927a397a',
        'dF_2': 'c482a2305e055022487b854b1c9361b5dbc43ff203d4f96fa0f30a74ef32da90',
        'dF_3': 'dcaab6fb08e28e0a8bcd30a97ad2a3f054b38cbbee077093c5c24540ef8ba973',
        'dF_4': '83f1225dba2a4f39c2ce5b392e6de46b95d7c122b18161ac190063885cc79e91',
        'dF_5': 'b162b7a46df77614475f0f3de0f029f5ff9cf37a8a806dc0c1fed3685b4592ce',
        'dF_6': 'a99e324deb7a654c3ca46213fb79c9e54d24b71ff8ebfdb7ee0ca9229873b04d',
        'zeta^0_1': '61d6fa69be3cdac7eb5ec409de994ceab056a1d5ff111c31c5486e6763a5f415',
        'zeta^0_2': 'a38b371c1744bc1858cbc2420de18d824d83bcb38e3522111d7451c90733316a',
        'zeta^0_3': '3fd72e4c911071a5e30c6ecef0410b14621a080b07ba88f4563c38af9b01e8a2',
        'zeta^1_1': '3e756b4aca59815534c24d6b202a3868444a6de9138d76b9ee31860e873b25cd',
        'zeta^1_2': 'd1fef3b41315dc9d1ff17016e0ef506be08564f2af3e311c01c0d2146ae14095',
        'zeta^1_3': 'cff172d781ac78c31710c62b5c28cfa8777ee75bd2848cd4809ff368673a53b6',
        'zeta^2_1': 'f3ba790238d414c3540a31a211643c1b5343977fa2cc090f101b5f91c424b3c2',
        'zeta^2_2': '761a1157285cba1f168e3822f473f40d7014480e0daca9936bcc1f2eaa0e6443',
        'zeta^2_3': 'cac1689aed908c64a05dd65d86691d787ed2059106b57da7a8dd301aa754bda4',
    },
    ('codepth3', 'F32003'): {
        'dF_1': '3179daaed41350385580cc091169ae7ae4b69e66b985e52c6e837667927a397a',
        'dF_2': 'c482a2305e055022487b854b1c9361b5dbc43ff203d4f96fa0f30a74ef32da90',
        'dF_3': 'dcaab6fb08e28e0a8bcd30a97ad2a3f054b38cbbee077093c5c24540ef8ba973',
        'dF_4': '83f1225dba2a4f39c2ce5b392e6de46b95d7c122b18161ac190063885cc79e91',
        'dF_5': 'b162b7a46df77614475f0f3de0f029f5ff9cf37a8a806dc0c1fed3685b4592ce',
        'dF_6': 'a99e324deb7a654c3ca46213fb79c9e54d24b71ff8ebfdb7ee0ca9229873b04d',
        'zeta^0_1': '61d6fa69be3cdac7eb5ec409de994ceab056a1d5ff111c31c5486e6763a5f415',
        'zeta^0_2': 'a38b371c1744bc1858cbc2420de18d824d83bcb38e3522111d7451c90733316a',
        'zeta^0_3': '3fd72e4c911071a5e30c6ecef0410b14621a080b07ba88f4563c38af9b01e8a2',
        'zeta^1_1': '3e756b4aca59815534c24d6b202a3868444a6de9138d76b9ee31860e873b25cd',
        'zeta^1_2': 'd1fef3b41315dc9d1ff17016e0ef506be08564f2af3e311c01c0d2146ae14095',
        'zeta^1_3': 'cff172d781ac78c31710c62b5c28cfa8777ee75bd2848cd4809ff368673a53b6',
        'zeta^2_1': 'f3ba790238d414c3540a31a211643c1b5343977fa2cc090f101b5f91c424b3c2',
        'zeta^2_2': '761a1157285cba1f168e3822f473f40d7014480e0daca9936bcc1f2eaa0e6443',
        'zeta^2_3': 'cac1689aed908c64a05dd65d86691d787ed2059106b57da7a8dd301aa754bda4',
    },
}


def _sha(gmap) -> str:
    return hashlib.sha256(export_map_json(gmap).encode()).hexdigest()


@pytest.mark.parametrize("ring_name,field_name", sorted(PINNED))
def test_exported_entries_match_pinned_hashes(ring_name, field_name):
    ring = ring_from_strings(VARS, RINGS[ring_name], FIELDS[field_name])
    K = build_koszul(ring)
    Z = cycles_from_generators(K)
    F = assemble_f(K, Z, 6)
    got = {f"dF_{i}": _sha(F.differential(i)) for i in range(1, 7)}
    for k in range(3):
        zeta = build_zeta(K, Z, k)
        got.update({f"zeta^{k}_{u}": _sha(zeta.component(u)) for u in range(1, 4)})
    assert got == PINNED[(ring_name, field_name)]


# `workloads.generic_ci_ring(1)`, as printed in bench/README.md: a generic
# codepth-3 CI over 𝔽_32003 in 4 variables
GENERIC4_SEED1 = """\
field prime 32003
vars x,y,z,w
gen 15789*x^2 + 28014*x*y + 30558*x*z + 25859*x*w + 19194*y^2 + 24841*y*z + 23056*y*w + 13545*z^2 + 17514*z*w + 18165*w^2
gen 20016*x^2 + 27922*x*y + 8116*x*z + 28479*x*w + 16090*y^2 + 20735*y*z + 145*y*w + 25618*z^2 + 23857*z*w + 9371*w^2
gen 30054*x^2 + 9689*x*y + 31881*x*z + 26738*x*w + 31944*y^2 + 16510*y*z + 41*y*w + 29653*z^2 + 15418*z*w + 30233*w^2
"""

# sha256 of each file of `resolve --imax 6 --verify-all --betti --out` on it
PINNED_GENERIC4_OUT = {
    'betti.csv': '1bf7e0d2a2728e54dba1371d447ba7dba52f159250d09b2372b4694e4d74ad1c',
    'dF_1.json': 'cf448eb8738968930595ff54d6ab10fcc4ab57ba190ee681bb1efc49531faaaf',
    'dF_1.svg': '557409484c5fa7552fd95a07249df84e396db0bf73516e24d4b74e772ae3ce00',
    'dF_1.txt': 'd2fab2a33b1c3438929311540f8d922ff51b334207b3641d30db80625f777acb',
    'dF_2.json': '8187b7dcd97b7f037db639f971db31270e779533997c65b379d2b5e9546e5aa8',
    'dF_2.svg': 'fb4fe457ede9fcc4d530fe15e7c457b2892ef9eb6180f5193b85c277ed467d31',
    'dF_2.txt': '9e9a5a4115743bfad1d2c24d0456253acb37705235deaf02ce88e82b1680aff4',
    'dF_3.json': '99283ed08c8f83d8c30ade6d96696c16d611ad2ce510662c7cd87dfd636d1a66',
    'dF_3.svg': 'b8e5ab850945ca2b5b0d74e4a7917e0121e9e0239522e84def88ee577c138a24',
    'dF_3.txt': 'bd15bfda0ca29ff2d50b130c9f39688bfe65eca577dd0032f957d77837aa2de4',
    'dF_4.json': 'c94e10bef097cfa4fdfb3476c03253b5f525820228609133d1459653c0928df9',
    'dF_4.svg': '26a356ae27a0243bfc8346893b4884cc845573ce396fcb5b2d3f56da2924af64',
    'dF_4.txt': '813114b1796782168a167f45e5467e4041098f2d5992e2b83bd19cf07adeda02',
    'dF_5.json': '3832f1d861aaab744cabb3877760ce8875be671cbf1332026cb5a38cebd794b8',
    'dF_5.svg': '8a11be1b8ed885eb6bad2961e855c831339c55ce0fa341b5db91b3e30f62de76',
    'dF_5.txt': '642120152afe1dca1eef6fe8502e34623dd4cd0739038984ff1243484c510000',
    'dF_6.json': 'c5fabba91d7e4a9ad8a415b839c727ee88788d7d65ac50b1c73ebe7e78517210',
    'dF_6.svg': 'eccb7b78bacd79cff1165926e5d507942e75a071de31cb512786db3b41184f10',
    'dF_6.txt': '5b5d28343a52812fa3ca5b1b13b5f67c6528bb9105fb3bcf1d3657d0137c77fd',
}


def test_generic4_resolve_out_tree_matches_pinned_hashes(tmp_path, capsys):
    ring = tmp_path / "generic4-seed1.ring"
    ring.write_text(GENERIC4_SEED1)
    out = tmp_path / "out"
    argv = ["resolve", "--ring", str(ring), "--imax", "6", "--verify-all", "--betti",
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert "betti:    1    4    9   16   25   36   49\n" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == sorted([*PINNED_GENERIC4_OUT, "report.json"])
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in PINNED_GENERIC4_OUT}
    assert got == PINNED_GENERIC4_OUT
