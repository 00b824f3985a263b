"""Exact entries of F's differentials and of the ζ maps, pinned by hash.

The golden layouts fix only which blocks are nonzero; these hashes of the
JSON export fix every entry, sign included, of dF_1..dF_6 and of ζ^k_u for
k ≤ 2, on both worked examples over ℚ and over 𝔽_32003.
"""

import hashlib

import pytest

from koszulator.fields import PrimeField, RationalField
from koszulator.koszul import build_koszul, cycles_from_generators
from koszulator.polyring import ring_from_strings
from koszulator.render import export_map_json
from koszulator.resolution import assemble_f
from koszulator.zetamaps import build_zeta

from conftest import CODEPTH2_GENS, CODEPTH3_GENS, VARS

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
    got = {f"dF_{i}": _sha(F.complex.differential(i)) for i in range(1, 7)}
    for k in range(3):
        zeta = build_zeta(K, Z, k)
        got.update({f"zeta^{k}_{u}": _sha(zeta.component(u)) for u in range(1, 4)})
    assert got == PINNED[(ring_name, field_name)]
