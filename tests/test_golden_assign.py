"""Golden-assignment gate: outputs pinned as sha256 digests.

The S5P, CLUGP and 2PS-L assignment digests and the vertex→cluster
table digests were computed before the per-edge loops of clustering,
postprocess, CLUGP and 2PS-L moved from numpy scalar indexing to Python
lists. The HDRF and Greedy assignment digests and the game ``c2p``
digests (S5P, S5P one-stage, CLUGP) were computed before HDRF and
Greedy moved from scoring all k partitions per edge in numpy to scoring
only candidate partitions, and before the game's initial assignments
stopped looping over dead cluster ids. Any rewrite must reproduce every
digest bit for bit. Inputs are the catalog stand-ins LJ, IN and OK at
the ``bench`` preset (40 k edges).
"""
import hashlib
from functools import lru_cache

import numpy as np
import pytest

import repro.baselines.clugp as clugp
import repro.core.s5p as s5p
from repro.baselines.clugp import clugp_cluster, clugp_partition
from repro.baselines.greedy import greedy_partition
from repro.baselines.hdrf import hdrf_partition
from repro.baselines.twops import twops_cluster, twops_partition
from repro.core.clustering import cluster_capacity, skewness_aware_clustering
from repro.core.s5p import s5p_partition_np
from repro.core.stream import degrees_np
from repro.graphgen.catalog import standin_edges

GRAPHS = ("LJ", "IN", "OK")
KS = (8, 64, 256)

#: (partitioner, graph, k) -> sha256 of the int64 assignment array.
ASSIGNMENTS = {
    ("S5P", "LJ", 8):
        "5ca3b115f1ca6f35e0f66a0c0b42ed18e96a54d4f5981a7b3a405cfe3729fb8f",
    ("S5P", "LJ", 64):
        "fa5b5907ee9114a1ab4027f30e5bbfb81a761ef2ee8ada0745b79cec60ba8549",
    ("S5P", "LJ", 256):
        "54803d5ca2c5ee9f2bcdc504f929983726064d9517b45707fd16bf71bd24be22",
    ("S5P", "IN", 8):
        "3ab29f151fea825e4d8a6752282abb633bea927fbe312687bda67e845796ef03",
    ("S5P", "IN", 64):
        "79ca87bb43753ace3cb4f32a5721340f14fd2166e01916ab8f8b1479ae7cfefd",
    ("S5P", "IN", 256):
        "456a4ce5510ec63c83a7d09bb311c9329ef63a1cf2d31a663fad4b8f1c9ff8fb",
    ("S5P", "OK", 8):
        "eece55724a65c30ea86dd966ff6bfb0b7e04ced7b4e0077d98c62532aebc5f57",
    ("S5P", "OK", 64):
        "884a5b507d7e1680ef69ed4a8d60d468f7fb510d77eaaa1669eeb2e5d73b2bda",
    ("S5P", "OK", 256):
        "3a3b6f82f097a35d0833280c4d3678243f75829f317940ce2f89853673388450",
    ("S5P-B", "LJ", 8):
        "e528414d1b5c0533fb3407262daa738fd4c0f20333108ce16f0f1c15f1d02401",
    ("S5P-B", "LJ", 64):
        "e528414d1b5c0533fb3407262daa738fd4c0f20333108ce16f0f1c15f1d02401",
    ("S5P-B", "LJ", 256):
        "e528414d1b5c0533fb3407262daa738fd4c0f20333108ce16f0f1c15f1d02401",
    ("S5P-B", "IN", 8):
        "7352f9147df78c41a3c12a775eac487514a8365141af088c51ea8f8aace408bc",
    ("S5P-B", "IN", 64):
        "9d091daf51b4e938c84aeacc9ba304036b035cd789532e6ee08a23ec38e2d80b",
    ("S5P-B", "IN", 256):
        "7fc56be3b6bde532525e77434d23d18c5ae839cbb425f4668b17a29163f83555",
    ("S5P-B", "OK", 8):
        "585e050b6c21bffc7198221b7f1cefe9c04f741fce1d6801e713bafc6b56b716",
    ("S5P-B", "OK", 64):
        "585e050b6c21bffc7198221b7f1cefe9c04f741fce1d6801e713bafc6b56b716",
    ("S5P-B", "OK", 256):
        "585e050b6c21bffc7198221b7f1cefe9c04f741fce1d6801e713bafc6b56b716",
    ("S5P-one-stage", "LJ", 8):
        "8844bff57413d92b2f2fa1e3beba690e2dceea62cd4b0468834e39bbb84dceb2",
    ("S5P-one-stage", "LJ", 64):
        "6705335a2caa8bb92b122653f89eecbd15d2fb029c969ce8b183f37c80afa118",
    ("S5P-one-stage", "LJ", 256):
        "1a013bf05ceb82ce472b399cd11219f68bb4f140848249b2850312428b290654",
    ("S5P-one-stage", "IN", 8):
        "c0ee673bd70467e7464bbc03ad27976f0f4b49543231f1affd689e27c16df861",
    ("S5P-one-stage", "IN", 64):
        "84ad19b980c6a8ca4395dbb505d737f0732e5f2d01997c38da5c388cbd3ab096",
    ("S5P-one-stage", "IN", 256):
        "a2cd3e6533b8331bb41e9d60672a438b48405e262888495af1c52ac37868c3f5",
    ("S5P-one-stage", "OK", 8):
        "495b70f813c1d408eb16110c3643bc087c1a1976cf9e3333539275d82030f262",
    ("S5P-one-stage", "OK", 64):
        "664c7e7f1370cb23d630b275b553ef8ad39b076fc05e1092c1c2af7c83d4282e",
    ("S5P-one-stage", "OK", 256):
        "0efa50ae446eabe63b63e483a91f4f5edd27728db6407a0386a9fd5d0bd454d8",
    ("S5P-exact", "LJ", 8):
        "0955f2491ba5c7781e9f6c665288937a74b9ae90685b32000381fdc18f6f0add",
    ("S5P-exact", "LJ", 64):
        "518943476d2984f40b8d149a8270bb68c99590dd452248493ba4a89032beac56",
    ("S5P-exact", "LJ", 256):
        "07ef6bded0e042117bb872010d0df5f723b9819f0ef7002dbcbef7249faa42a5",
    ("S5P-exact", "IN", 8):
        "6fff010e58765ddaff0023052317c1875cae2bd1a4a9767f0ae951ecb10b2475",
    ("S5P-exact", "IN", 64):
        "9c94be325e6f9527e2a70b9565a34da2ede19b6d4a89e10fd712225cbd7a33df",
    ("S5P-exact", "IN", 256):
        "b9dbff619656f5b56f707812e71e3a49bc11c560815373a9206907449fbd9e36",
    ("S5P-exact", "OK", 8):
        "9f0040c6df8ce5e38f78b779c5b721c0687cdc232299a42da078eb36faceb995",
    ("S5P-exact", "OK", 64):
        "b4f46748ab669d5b35c03571c29609308fbb7c8e6a14778d5a62b742476c9b24",
    ("S5P-exact", "OK", 256):
        "1547993e95aecc1c1c12e358e2dbb6db2310ea89c65692c82e744d069b26a2ec",
    ("CLUGP", "LJ", 8):
        "618158987d0364dc0ce27584e9aa3b537cf1f221557db9cac061924629e871e8",
    ("CLUGP", "LJ", 64):
        "bcbec8643e86ef8b15b1784f22e1171bb6ce0cba6a71f5c375f15da3682cc9e5",
    ("CLUGP", "LJ", 256):
        "79e1a69db84c41820a1dbd57134717617c4e9bcba061281f0e179225965e22ba",
    ("CLUGP", "IN", 8):
        "f717f78d78ebae2887fa9dc4026c96aca3db1968370751889c4c4dfa751d8b32",
    ("CLUGP", "IN", 64):
        "04f0ea171eb216a0fc7c778da6cd2c2f377054c34e8dd08aec05a3eb523dd690",
    ("CLUGP", "IN", 256):
        "c870581fe6822b746453df052cf3f6f9a71d72d9ebdf51187257d8bac78d0e05",
    ("CLUGP", "OK", 8):
        "9e5628143b6be807dd22c22da98ba5ce56b378ce620de374b347f5edbb3e8934",
    ("CLUGP", "OK", 64):
        "8c0491f8806e4e6a03888bcdbd276850570a7d17757ca17d13b43c1f0fdcf29d",
    ("CLUGP", "OK", 256):
        "386322f7b5cad0b20e95593d3f662b73b80fa14414da232a4eebcd178211eba4",
    ("2PS-L", "LJ", 8):
        "2550466d950cd9e8c7bd58f6e74708cb28d5c34f9e86626347abb67ce15b4064",
    ("2PS-L", "LJ", 64):
        "68e8435111de67b614bab0c8572c420b9716c71d1a21777bf274bc1f8e44b293",
    ("2PS-L", "LJ", 256):
        "c64a28275f777e1961072a01a802b54e8528171ee6d044462a92c6fd8e7fca0e",
    ("2PS-L", "IN", 8):
        "beb76a668cf761ea371d12c98219c97e34547c52f7c52ec780477bc04b61df48",
    ("2PS-L", "IN", 64):
        "efe59a042bcc9c2e851def5ab71ff006fda5dc8427a0c1e19139d68606cf803c",
    ("2PS-L", "IN", 256):
        "bbf024dceaecdb04330480c611ab7f2ea1adf9061e0ab18801791172feda3c7d",
    ("2PS-L", "OK", 8):
        "74beb07041fce046657c65cd4abcbde41e3bcd766702f39ff736a99c16cbd988",
    ("2PS-L", "OK", 64):
        "7bf4a7de199371fc4a2f69fc81af1ca2482433026a985ec085ea32c8776af85e",
    ("2PS-L", "OK", 256):
        "025ee5507560c8b827615c9440a6cf94775731caea3d1c30c8fb1511c2d7ef85",
    ("HDRF", "LJ", 8):
        "f162f7e91807c0c1739134c7c8ba6f1647fd78fca4052f988fe33baf4fe67dd5",
    ("HDRF", "LJ", 64):
        "6a23a04167a0a9eb91ef60186d13a60fff3fd9aa5355580a8bba60f231333cab",
    ("HDRF", "LJ", 256):
        "4521e359a5e3b995c3d68772d7f92a78c02267506ade7f7081a6628780673818",
    ("HDRF", "IN", 8):
        "6054e9d77273a1b2cf476e049a58024514c35d3ee570689543b5b109fca39083",
    ("HDRF", "IN", 64):
        "48a9dcab1c2023d8575e563a2304a9fc6061538dfead87a4dbeb8880d45a616c",
    ("HDRF", "IN", 256):
        "7172a98e9801321625ca6cc1db23fc9cfbc8baa1c9232a31fe3dff35cd7fea00",
    ("HDRF", "OK", 8):
        "a959f27d68bb7393fe6994d394d8babc0f6f90173b0b5ecc44c52bf62abe7fb3",
    ("HDRF", "OK", 64):
        "2d26c5497da909042797b02dd45750e6572ce6deb1592cdf52b462ed036dd531",
    ("HDRF", "OK", 256):
        "386fc04d29dd502f5dab076a03ea648504f8c2d7f668b4a3e03ee013544ad180",
    ("Greedy", "LJ", 8):
        "eab3d9d79b1309bc10acd8972220f01406639725927a675159c3325096e09966",
    ("Greedy", "LJ", 64):
        "3cc6bbda2d6286b5ae3204028af440ce765ff36ffff4362e89254e8ef9b3a453",
    ("Greedy", "LJ", 256):
        "f739997c69b086973520b0c760e06a05292166b69c4691d8c40210ec66fb5131",
    ("Greedy", "IN", 8):
        "a6f525208eabfb5f075beb84722dae39bdfc587c781b78328bcbd4d64de879d5",
    ("Greedy", "IN", 64):
        "314578b3c709270eaed8ae069e24a90350a265a17dabbcc730c20c7d566ad3e2",
    ("Greedy", "IN", 256):
        "1d56397be60ceae531a2e7632520350eb8f0e5d4bb73051a5e327958496d9e15",
    ("Greedy", "OK", 8):
        "d7a70251555f74ea28ee897797bb502a565143b802b499e1354f5d6708ffd73b",
    ("Greedy", "OK", 64):
        "e8527fe4ef091874e9ebf4557d635b7a1e91e7657ad71717a6da3424d5cb6875",
    ("Greedy", "OK", 256):
        "f37deb2ee2bbe8011ded874e0b87b49f1a9d80251a30ebaf48845e6d7c36ccf1",
}

#: (game, graph, k) -> sha256 of the int64 cluster→partition map
#: (``GameResult.c2p``, dead cluster ids included).
GAMES = {
    ("S5P", "LJ", 8):
        "35ca602a22eff784fc16c855148ccee8500bad81143fe8ae564fa1a147094af4",
    ("S5P", "LJ", 64):
        "fce07d72d9f55a26853714f423d88396faa36f07c83e567b720e2fcdf28cf284",
    ("S5P", "LJ", 256):
        "85ebd5e44b0f585a542bb05af6126d6b7e37a55e537f3d76c7b4a30cafae5b32",
    ("S5P", "IN", 8):
        "0c069980df093824f12373435fb0827f5b2aded757b6a31fd58f015ba6e4008c",
    ("S5P", "IN", 64):
        "a9cfc79d17f21a63a92bb3aca1db825223e2ffcdccff891fa4a5ec2995446bd8",
    ("S5P", "IN", 256):
        "4704d8057ef2e8c66dabcda575e6426ac03d087de8b2dba1d4173f9ce160e645",
    ("S5P", "OK", 8):
        "a7dc44878607a52a97ebf54befb3db0c3ffbda1ee54938f694edb19f7e3e8a3e",
    ("S5P", "OK", 64):
        "870e32224dfccd432d91dabd52131ff57df3dee4f2747aad50efd4744e700e65",
    ("S5P", "OK", 256):
        "d4d7d3715bb0871786b402118d0d23121bb5d5a177bf1f19dd3351abb7ef552a",
    ("S5P-one-stage", "LJ", 8):
        "3a5401cf20b50bfc77419aee551ad540e6e2f9d3550d7e1adcfab359882e993c",
    ("S5P-one-stage", "LJ", 64):
        "944395ebebf5d93f201f849805f1b7f504ad2dd155ca8ff753c4fa8c89e3a6c3",
    ("S5P-one-stage", "LJ", 256):
        "1d43abb87175b098f6b2fb510d190dbf46e9a2914f02bfe7a88426632e0abc19",
    ("S5P-one-stage", "IN", 8):
        "35b3b9b131805b79b84ca597c6579c4ca32ebb8a2b74be15879c03bc28de7ab5",
    ("S5P-one-stage", "IN", 64):
        "be3eaa1e54494b2bedc60ed2bd4bcec8af393e2b5eeade2128c5eb4f34a84f56",
    ("S5P-one-stage", "IN", 256):
        "ad169fabedd18a35d617514e4dbda8cccafece347bbc4732aafb9624150ffeed",
    ("S5P-one-stage", "OK", 8):
        "fc05065957e377402afc64e0d89244b777f59340f80975298935fb116f6947cf",
    ("S5P-one-stage", "OK", 64):
        "b964910a04bbe98945646bee4da9ef28f7ce123bc827001706d717bf28051757",
    ("S5P-one-stage", "OK", 256):
        "c3dbe3a35895d1803eff89e459dba7bbab5e60a9b6dcc2a108030f7bcff03011",
    ("CLUGP", "LJ", 8):
        "b685f3f8b9f00a2d6ffa5eb11615465eb0fef8e9636f171be36837934c133267",
    ("CLUGP", "LJ", 64):
        "4a484cbb4ddc6b934af78082e2b354ee88a43c7efa04a12f6d2641a89f27713e",
    ("CLUGP", "LJ", 256):
        "898bce9285ec0cc4a961117ec46fd9c5a0e1ef2d1dec90fbf012938b590f5625",
    ("CLUGP", "IN", 8):
        "ddbd36968a42cb844e582514d9ef26c22f45d9c7fc26a643a45b510f7d84a7b1",
    ("CLUGP", "IN", 64):
        "a864c8a89d63433aee5265101a99583445bf5964e4355e610ffc74ad3c5362a3",
    ("CLUGP", "IN", 256):
        "dafa18db2f488a29b28c50a70ac3599bf28290bb63d2be51023ab53e7c29edc9",
    ("CLUGP", "OK", 8):
        "3a361b94b811df36a20fd2c575d94a41708559968ed5707b20dbfc49caca07e6",
    ("CLUGP", "OK", 64):
        "093551d8760edd1e1f16082fffc6a79f453b3d421f985454b73aa50f6986aa26",
    ("CLUGP", "OK", 256):
        "289d99f11bffe462f1d84df77785b5a89690c26c0bd952355811c9f681cb902e",
}

#: (table, graph, k) -> sha256 of the int64 vertex→cluster array.
TABLES = {
    ("s5p-head", "LJ", 8):
        "b4b1661be604e7ecc4185b7c05dc04a192267a8fd310b365b7cefbee98223dde",
    ("s5p-head", "LJ", 64):
        "d14f4c7e3741b6fca9c54a0aad3c24f6f3878e557789c6b0ce61abdb5f38f633",
    ("s5p-head", "LJ", 256):
        "6fb49bb47f32608a894d4e1d7d3d7253beceee5ffb3e9283b88ee3997b32ddac",
    ("s5p-head", "IN", 8):
        "291dff73812b1e5365671bdb97f81e1c6b62a7dd3143cd838c62f00fc4991f5e",
    ("s5p-head", "IN", 64):
        "7645b63b7e95e005d684896f82825286ad2b17d8207049a572b76261a6136f89",
    ("s5p-head", "IN", 256):
        "f7e19b1d0e4ecf496c7e79f4978e4e1310ebb21e3ac5ffbd0e9f7220e3cd5bc8",
    ("s5p-head", "OK", 8):
        "1eb29ed37414224b5a226761e1ca0c97b07cd33fa37f339dd7ce6c4353ce1f73",
    ("s5p-head", "OK", 64):
        "4da561fd2ece606fce9bbb8f48c67087bf259b38e3a11d0f11ccd87ba823bd70",
    ("s5p-head", "OK", 256):
        "9c5feb23a6dcd3d81de619efaa3542c967af923c9eed2e754319c311272504b8",
    ("s5p-tail", "LJ", 8):
        "02f7872f14ccdc0fe1a654244b3ac0746ac1d23ef8940faf7b1a248bff46f120",
    ("s5p-tail", "LJ", 64):
        "edf54c871ad5d7c6dc38185ef966924b474dca41c6ba337d129e166901009bcc",
    ("s5p-tail", "LJ", 256):
        "cdd593290e032a7f8d235c4c619a1c4c564656ed3589b4397c1d25307fe57421",
    ("s5p-tail", "IN", 8):
        "d3b9fc9df531627a335a7139e584e0819a4eec2914341274701698e538eb2c92",
    ("s5p-tail", "IN", 64):
        "bac142e1b0563feb0155dd60ff05814a145ffbd9e9360b91250aba1ae9c6d2ac",
    ("s5p-tail", "IN", 256):
        "da91b7945d24cbf1a8dd7de190bcecdc2acb4367466b58e5239d85f4ffb6afbe",
    ("s5p-tail", "OK", 8):
        "72f1d7bc7d39b619d2b22d2b0912ed493b1819df3a72f6afbe92d244e776e8c9",
    ("s5p-tail", "OK", 64):
        "15312b0d42d86698cfb0f1ba1b8f555b1392d44e35fafdccad88974902d01de6",
    ("s5p-tail", "OK", 256):
        "3e0ba1c19370d3a8a185a918561d243b7efe162a03f2f1ffa9e6ecaa4995aeae",
    ("clugp", "LJ", 8):
        "c3ffe1d26224bedd4a501be57e7c31d777c7ab8e6baa15946f4edc320b24179f",
    ("clugp", "LJ", 64):
        "8971ddae665cbd87cf482621a46f0841cb38b5d054e1c56900057675a729254e",
    ("clugp", "LJ", 256):
        "54ded0522129a518adf635ccd7e7a0272c2050143fa52d0858225367b37c68b9",
    ("clugp", "IN", 8):
        "5cc17bd7897dc2573a70057c3b31aba25709a946dbd6d091d2f8ffab963bb23c",
    ("clugp", "IN", 64):
        "6f4c72afbb75d0d6cad2848225eea5e890d565ac767a6c04f29e9a6bd7108942",
    ("clugp", "IN", 256):
        "3f618a5872279da5a73dc25d099c80f0d54d21b4680bee300cbcd742a658b52e",
    ("clugp", "OK", 8):
        "415413585cd7bda31d115cec495ee7ba4905ac1d4edbb0a4c45dd7334fe79c81",
    ("clugp", "OK", 64):
        "6d66a9e6abd621060919a53dfafc692af2aed0a1a86cc2e8003f9d8b72bbaaea",
    ("clugp", "OK", 256):
        "7b06d62e012d5a7413bb538dc82ac7c07f9402a0503e8f6c68c974cc8c37fb5d",
    ("2ps-l", "LJ", 8):
        "02993648b0ef6f05da6f51177d8c0271a05c2e91982cffcadd5e7ba0c112b681",
    ("2ps-l", "LJ", 64):
        "eb370967c4d37e4392c300259740a583e7aaa206898e8ba0c631ffb443158f7f",
    ("2ps-l", "LJ", 256):
        "aa212c79cc58eb130f63a44e280072f891a6b45815f5819f05203caca9c1f666",
    ("2ps-l", "IN", 8):
        "52487df0a0bd0b2fabb186d1f7b435793424b3bb3a1ededdbf148b6b80ef883d",
    ("2ps-l", "IN", 64):
        "6cb8e908bfa4fc7318b69edfc14f74cff53a47a6783904f29d689e26b6f8a941",
    ("2ps-l", "IN", 256):
        "c23de294e7e39213210ee5b407cdcef7647efa5a29c919bbeb1ebc3b6fe2134f",
    ("2ps-l", "OK", 8):
        "826188be475514853c88883bc0ba8078c98e6ec662f783affb842e189f20eefd",
    ("2ps-l", "OK", 64):
        "2470342447cec0a81fe193c0f719fd4a294cf5a1ede780695449bc91136702e6",
    ("2ps-l", "OK", 256):
        "a9eac3ea0e161f78246f61ea688afe378b97818d1526d11849643274945f40ab",
}


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.int64).tobytes()).hexdigest()


@lru_cache(maxsize=None)
def _edges(graph: str) -> np.ndarray:
    return standin_edges(graph, "bench")


PARTITIONERS = {
    "S5P": lambda e, k: s5p_partition_np(e, k)[0],
    "S5P-B": lambda e, k: s5p_partition_np(e, k, bounded=True)[0],
    "S5P-one-stage": lambda e, k: s5p_partition_np(e, k, one_stage=True)[0],
    "S5P-exact": lambda e, k: s5p_partition_np(e, k, use_cms=False)[0],
    "CLUGP": clugp_partition,
    "2PS-L": twops_partition,
    "HDRF": hdrf_partition,
    "Greedy": greedy_partition,
}

#: game -> (module whose ``stackelberg_game`` the pipeline calls, pipeline).
GAME_RUNS = {
    "S5P": (s5p, lambda e, k: s5p_partition_np(e, k)),
    "S5P-one-stage": (s5p, lambda e, k: s5p_partition_np(e, k, one_stage=True)),
    "CLUGP": (clugp, clugp_partition),
}


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("name", list(PARTITIONERS))
def test_assignment(name, graph, k):
    part = PARTITIONERS[name](_edges(graph), k)
    assert _digest(part) == ASSIGNMENTS[(name, graph, k)]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("name", list(GAME_RUNS))
def test_game_c2p(name, graph, k, monkeypatch):
    module, run = GAME_RUNS[name]
    results = []
    game = module.stackelberg_game

    def recording(*args, **kwargs):
        results.append(game(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, "stackelberg_game", recording)
    run(_edges(graph), k)
    (result,) = results
    assert _digest(result.c2p) == GAMES[(name, graph, k)]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("graph", GRAPHS)
def test_cluster_tables(graph, k):
    e = _edges(graph)
    kappa = cluster_capacity(len(e), k)
    cl = skewness_aware_clustering(e, k)
    got = {
        "s5p-head": cl.v2c_head,
        "s5p-tail": cl.v2c_tail,
        "clugp": clugp_cluster(e, kappa)[0],
        "2ps-l": twops_cluster(e, kappa, degrees_np(e))[0],
    }
    for table, v2c in got.items():
        assert _digest(v2c) == TABLES[(table, graph, k)], table
