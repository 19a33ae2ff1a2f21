//! Known-answer table for the Schnorr layer.
//!
//! The rows were generated by the commit before the generator got its
//! exponentiation table (plain square-and-multiply throughout) and are
//! pinned here so that any change under `modmath`/`schnorr`/`keys`
//! must reproduce every public key and signature byte for byte — the
//! wire format, `WIRE_ABI.lock` and the three-way differential all
//! assume signatures are a pure function of `(seed, message)`.
//!
//! Seeds cover the identities every runtime derives
//! (`Identity::derive("edge"|"client"|"cloud", 0..=3)`) plus a few
//! free-form ones; message lengths sit on the SHA-256 padding
//! boundaries (0, 1, 55, 56, 64) and one multi-block size (512).

use wedge_crypto::schnorr::{Keypair, PublicKey, Signature, P, Q};
use wedge_crypto::Identity;

/// Seeds in table order; a vector's message depends on its seed's
/// index here (see [`message`]).
fn seeds() -> Vec<String> {
    let mut seeds = Vec::new();
    for label in ["edge", "client", "cloud"] {
        for id in 0..=3u64 {
            seeds.push(format!("wedge-identity:{label}:{id}"));
        }
    }
    seeds.extend(["", "bench", "benchmark", "edge-node-1"].map(String::from));
    seeds
}

fn message(seed_idx: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| ((j * 31 + seed_idx * 7 + len) % 251) as u8).collect()
}

/// `(seed, message length, public key, e, s)`.
#[rustfmt::skip]
const VECTORS: [(&str, usize, u128, u128, u128); 96] = [
    ("wedge-identity:edge:0", 0, 0x013e052dbf06ee9ab78ba110c8c526f3, 0x0cabec02e2aa9f6b609cfd1d691cacc8, 0x0599c8413fe95fead57d647e72e2a0d8),
    ("wedge-identity:edge:0", 1, 0x013e052dbf06ee9ab78ba110c8c526f3, 0x156b772fd6136fd8597755844d958c77, 0x1e998a7922155db4681daace16de58a2),
    ("wedge-identity:edge:0", 55, 0x013e052dbf06ee9ab78ba110c8c526f3, 0x042424db3933922246b5eda08640f04a, 0x0cd4ce256558164a0f1f196de16e845d),
    ("wedge-identity:edge:0", 56, 0x013e052dbf06ee9ab78ba110c8c526f3, 0x18c42e7714905823b6c2649fab959224, 0x0246f51e0e084276ba5d138215d3d5be),
    ("wedge-identity:edge:0", 64, 0x013e052dbf06ee9ab78ba110c8c526f3, 0x1f1c7c749a77f7622e2cca5aec46306a, 0x106f0866d707115849b709ad6ab885c1),
    ("wedge-identity:edge:0", 512, 0x013e052dbf06ee9ab78ba110c8c526f3, 0x110d1550b0e4b22aae46fccead327e4b, 0x0e190f0dd35e85e02b2e51d8ff097b61),
    ("wedge-identity:edge:1", 0, 0x0f3a107e83ac857585ed31774d5ce267, 0x12b0dbfc331c835b0a1d8e50b3032174, 0x154f16d9f94dc79b76e3e91e3983de3d),
    ("wedge-identity:edge:1", 1, 0x0f3a107e83ac857585ed31774d5ce267, 0x1c023331bf0e98330452b8b5e90ebc9d, 0x06685ef4eb04f0fc58076027adde332c),
    ("wedge-identity:edge:1", 55, 0x0f3a107e83ac857585ed31774d5ce267, 0x0c5edf40351494b2fbff27458e3b2c85, 0x14789843ca826729a88b18c6a018a0cd),
    ("wedge-identity:edge:1", 56, 0x0f3a107e83ac857585ed31774d5ce267, 0x164b4589bf11cb1785a8dec7160e5e6b, 0x002790989a3058c73ff31a4722b69d23),
    ("wedge-identity:edge:1", 64, 0x0f3a107e83ac857585ed31774d5ce267, 0x0f57133f63c3fe4b49d4ca03c0dd2ae6, 0x1335a6a4a7b8bda5b03333b652dfd439),
    ("wedge-identity:edge:1", 512, 0x0f3a107e83ac857585ed31774d5ce267, 0x03bd4b6ccc2ebe3fff95128c82136ab4, 0x10b00f94d38a704871f057650cc33fa0),
    ("wedge-identity:edge:2", 0, 0x27ad3676eb4468acc0fa98c7d89a88f6, 0x037c440e9f17cd7091219ab5f5741dd4, 0x0247b532c9bdf09e3549ba7fbb50f7ec),
    ("wedge-identity:edge:2", 1, 0x27ad3676eb4468acc0fa98c7d89a88f6, 0x18ff3bcbcf8cf7d2de63a537c5f8f900, 0x007d4452534d4d6cbf43265b627f6394),
    ("wedge-identity:edge:2", 55, 0x27ad3676eb4468acc0fa98c7d89a88f6, 0x1bc204e4d2a65f730e5280bb0a85f60f, 0x0a741c404d851bdd48feef6f06157c75),
    ("wedge-identity:edge:2", 56, 0x27ad3676eb4468acc0fa98c7d89a88f6, 0x14130203efacf44a90fe8083147de2fb, 0x05edee1caf6753d81cc0f5f20d59b394),
    ("wedge-identity:edge:2", 64, 0x27ad3676eb4468acc0fa98c7d89a88f6, 0x1fdbfcfe0a27c24896df3f0f8ce6ac17, 0x085b6a82a228c4fdc604c444d75ecd01),
    ("wedge-identity:edge:2", 512, 0x27ad3676eb4468acc0fa98c7d89a88f6, 0x100a667162721e46a86f42e81f984047, 0x0dd6d7e216bb1ab28d48f63d52be9b6b),
    ("wedge-identity:edge:3", 0, 0x062ec0fe6bc03df64d50d382d2501f7d, 0x1f75358809255ab97cb3f2eee71c694d, 0x0b61da9cbd814b7412c69c0d669d0079),
    ("wedge-identity:edge:3", 1, 0x062ec0fe6bc03df64d50d382d2501f7d, 0x07d3f5a8d8e59f5f30f100988d3dd0be, 0x19b723586ec2395c561c115cc267f3ec),
    ("wedge-identity:edge:3", 55, 0x062ec0fe6bc03df64d50d382d2501f7d, 0x13cc6b458bb5464c1b1bfdc2a76be7f7, 0x1ff0f4ed805a852bab9cfdfc75b8ba45),
    ("wedge-identity:edge:3", 56, 0x062ec0fe6bc03df64d50d382d2501f7d, 0x1a312fb9032ed9fd1a799a109c4bfaa0, 0x0ee4e63b9adb585020604e00ac6e4383),
    ("wedge-identity:edge:3", 64, 0x062ec0fe6bc03df64d50d382d2501f7d, 0x06a9126e956f26e310c37fb7045f89fd, 0x1749155b8e0f169a3735ea712a748436),
    ("wedge-identity:edge:3", 512, 0x062ec0fe6bc03df64d50d382d2501f7d, 0x09531a6ace24cdb5a96d3be0d39d0bb7, 0x12c6826ff64b3023b3a698b089374a2c),
    ("wedge-identity:client:0", 0, 0x2f7f72edaafc9a9bdee559a36bd001c5, 0x199c990a2d02969aa63c3f88aa6263fd, 0x10801179de59be00ac2775fff71593a2),
    ("wedge-identity:client:0", 1, 0x2f7f72edaafc9a9bdee559a36bd001c5, 0x1403520a06d6216117e977d74321925b, 0x0a40be7dca64c6918fd882c1a56aa50f),
    ("wedge-identity:client:0", 55, 0x2f7f72edaafc9a9bdee559a36bd001c5, 0x1395f23333d47267a2242ed9e876193a, 0x1758c251c71976c8a75cdd5202ada603),
    ("wedge-identity:client:0", 56, 0x2f7f72edaafc9a9bdee559a36bd001c5, 0x1b230eb28d51d1fd9f6ff03512b5067f, 0x0a395ea9739e32578fe3e7476735b37f),
    ("wedge-identity:client:0", 64, 0x2f7f72edaafc9a9bdee559a36bd001c5, 0x0c764293e72e4d184017d90168ccb55e, 0x0874b4af05ea0b8734efc39f609de42c),
    ("wedge-identity:client:0", 512, 0x2f7f72edaafc9a9bdee559a36bd001c5, 0x1e25ea6e5df5300ea532bb087a9e8f8e, 0x1b30d8e1ed15737031fb77fda96906fc),
    ("wedge-identity:client:1", 0, 0x272130f99426851ded8d560f8f080e0c, 0x113e1503cb93912020ff93c170391d0b, 0x176915ce9ad1550108220c70bc8e77df),
    ("wedge-identity:client:1", 1, 0x272130f99426851ded8d560f8f080e0c, 0x1e382d3165536c03ff035f1aeb33e3f1, 0x0a7ed3c581ce571628e5afcff6034886),
    ("wedge-identity:client:1", 55, 0x272130f99426851ded8d560f8f080e0c, 0x10278476bfe7973924454553a77df0a1, 0x0c438c3bc6e4dfcea4b676b5074ea794),
    ("wedge-identity:client:1", 56, 0x272130f99426851ded8d560f8f080e0c, 0x089876cedbc5f84c7ba4c4859a258112, 0x08680f5c1bdde96a4b5992d10114dcc5),
    ("wedge-identity:client:1", 64, 0x272130f99426851ded8d560f8f080e0c, 0x0bfa2978b20000fa6c05e9047e141551, 0x0194d4ee4790f85bb049b9aa1f3b5bb9),
    ("wedge-identity:client:1", 512, 0x272130f99426851ded8d560f8f080e0c, 0x19e19892de73d284756ffe586e4e3c8e, 0x1e1c83674a07fe427218faf1a9ba4025),
    ("wedge-identity:client:2", 0, 0x180e8ab6db6fbca6213e73657573d51b, 0x15eeb61961b08b149c7d995836e4f3d8, 0x0f89925b04403cf37073db52dd6c7a99),
    ("wedge-identity:client:2", 1, 0x180e8ab6db6fbca6213e73657573d51b, 0x0edda0e9d0a5f174e6419ee73c17f867, 0x085f5f0f78c3ca285e3260ad4d7f84ba),
    ("wedge-identity:client:2", 55, 0x180e8ab6db6fbca6213e73657573d51b, 0x09b85ee9cec6d2b429d3ba02186bdafb, 0x0c080fac09ac2bbabb6c4a2c2273c897),
    ("wedge-identity:client:2", 56, 0x180e8ab6db6fbca6213e73657573d51b, 0x17d002c15c5ae572984f683345a5e4ce, 0x08a7ae963122c292584b1c3a4f2da275),
    ("wedge-identity:client:2", 64, 0x180e8ab6db6fbca6213e73657573d51b, 0x09bfd12bb57110d8c9d5f848ed94b513, 0x1f39918b2e9ffe0074411a36ba43851b),
    ("wedge-identity:client:2", 512, 0x180e8ab6db6fbca6213e73657573d51b, 0x1d866872336b1f290514a068f8e814c4, 0x04ac1758f0d183040babb55d6dd6a5a5),
    ("wedge-identity:client:3", 0, 0x087fb4cd9eaddf3ed56ca3edda533cc2, 0x032d7329d1565452fc114fdef39fec11, 0x148b8537bb99ced7bd2e27565f2ad7d6),
    ("wedge-identity:client:3", 1, 0x087fb4cd9eaddf3ed56ca3edda533cc2, 0x1f05a5510a4812001cde9694247ae15d, 0x0a97e797afcd04abd43e8a178466ad71),
    ("wedge-identity:client:3", 55, 0x087fb4cd9eaddf3ed56ca3edda533cc2, 0x1fe981ee9bb37a50e2fb35dda6120b6b, 0x0b259952b4a15e7405f26e77181549b9),
    ("wedge-identity:client:3", 56, 0x087fb4cd9eaddf3ed56ca3edda533cc2, 0x0858538bb874fd6a3f9c430f3f623f0f, 0x121828c20d682db54d1b1b10154e064f),
    ("wedge-identity:client:3", 64, 0x087fb4cd9eaddf3ed56ca3edda533cc2, 0x01a5cf96429a5a23dba220762fa420eb, 0x1a3142d2bd021a0801c8130abd7a7094),
    ("wedge-identity:client:3", 512, 0x087fb4cd9eaddf3ed56ca3edda533cc2, 0x0c58293531dbbc8bb6d8760359cd4200, 0x02afbb20b61329ecad74163abb3846ef),
    ("wedge-identity:cloud:0", 0, 0x139bfccf78e3d1794b989d6a68a53c94, 0x17ddfb13567f0e46cb6bb91026a9ee2d, 0x07b19b913c0bdb1839362fa16cfd69ea),
    ("wedge-identity:cloud:0", 1, 0x139bfccf78e3d1794b989d6a68a53c94, 0x03dc8fbeefb0aeb7b7ab55c28de0bc39, 0x0e6f34b380074b3d74f7ac86ed04e07e),
    ("wedge-identity:cloud:0", 55, 0x139bfccf78e3d1794b989d6a68a53c94, 0x16651e9f1d8c561151f44f929c66ee3c, 0x13d08f229e860f36d406938ac8f1c936),
    ("wedge-identity:cloud:0", 56, 0x139bfccf78e3d1794b989d6a68a53c94, 0x0be530a6138cdea2805548484509686f, 0x04baededbf1636dab4663616fa44755e),
    ("wedge-identity:cloud:0", 64, 0x139bfccf78e3d1794b989d6a68a53c94, 0x019fa18ff3309e95ceff99b95373f877, 0x15cd5648bfc8e143ad0a72a48373121f),
    ("wedge-identity:cloud:0", 512, 0x139bfccf78e3d1794b989d6a68a53c94, 0x18102dd3e61806981f6c30878dd32daa, 0x0445073fabad7c1287acdc9f72a42565),
    ("wedge-identity:cloud:1", 0, 0x3da870e53ffff0b4ea5189862961c315, 0x097995d96369320f4da9dec617b10a3e, 0x0700d1871c270b53af7c7899573c4147),
    ("wedge-identity:cloud:1", 1, 0x3da870e53ffff0b4ea5189862961c315, 0x1e303a2a2cc3b081482e510f54e6e99d, 0x18201cba6a57e3af66987a90f984fa48),
    ("wedge-identity:cloud:1", 55, 0x3da870e53ffff0b4ea5189862961c315, 0x076ec7627618e7202354f600d0a3ca06, 0x065b3b3168d7bf88c5858a96ac2ca676),
    ("wedge-identity:cloud:1", 56, 0x3da870e53ffff0b4ea5189862961c315, 0x10e41cb4446e74bf211c6570fca8928e, 0x1227d82831cd1173214b7ab6fbdaa620),
    ("wedge-identity:cloud:1", 64, 0x3da870e53ffff0b4ea5189862961c315, 0x138c7db6ba5b6bdaa6176780d4151604, 0x00d257e4c763da7c87a5a2e5d4defa74),
    ("wedge-identity:cloud:1", 512, 0x3da870e53ffff0b4ea5189862961c315, 0x14466b411046c2669c0c6b6aad86b5ae, 0x1c4b61cdc2a56c0b695c78dc6d9b098f),
    ("wedge-identity:cloud:2", 0, 0x2c92533082086e67997c33fe651c9300, 0x02a5ddcd15705010fc13767d485da296, 0x14b973018880358cc5e33bfe734bf263),
    ("wedge-identity:cloud:2", 1, 0x2c92533082086e67997c33fe651c9300, 0x02b6d0453bb802ac8968ba56e4b381ae, 0x06ca1bc1a6914ddc8e8ea2cc665596ef),
    ("wedge-identity:cloud:2", 55, 0x2c92533082086e67997c33fe651c9300, 0x1e20d989f6b2971850e11aced4fc3d3c, 0x0765d8ba061e53cb79a5349ef44ab1fe),
    ("wedge-identity:cloud:2", 56, 0x2c92533082086e67997c33fe651c9300, 0x0b47a23d5f8c3044dab1f66e11935335, 0x137cf66f6eb4d8313ea313d93c293d5c),
    ("wedge-identity:cloud:2", 64, 0x2c92533082086e67997c33fe651c9300, 0x08157beb30a68d58031aa6bcad483a99, 0x09c989876cdf744e8bc22b4a4449902f),
    ("wedge-identity:cloud:2", 512, 0x2c92533082086e67997c33fe651c9300, 0x1f5d442cb1d677de173ed62a773aa6ad, 0x167e1edad2f462b1ab0392accbc98f2d),
    ("wedge-identity:cloud:3", 0, 0x0966a1535c9adf98c89ded5c203d5d97, 0x02c5b25a7652225d8040c423243767e4, 0x1ee5464f08acaa391e2f7f1c626bfefb),
    ("wedge-identity:cloud:3", 1, 0x0966a1535c9adf98c89ded5c203d5d97, 0x0bd261c501075d88b4a7c1173ff101f9, 0x1ff0b4b73decd03db871c2e25cc0872e),
    ("wedge-identity:cloud:3", 55, 0x0966a1535c9adf98c89ded5c203d5d97, 0x04b9f6432b6ab3f7c3a32f2907e70b35, 0x13b8e273d13f8194db07b4a8c08c7088),
    ("wedge-identity:cloud:3", 56, 0x0966a1535c9adf98c89ded5c203d5d97, 0x032693499931511192b275df563d71d8, 0x1552a62210ee9f98c087c58d965b9d4c),
    ("wedge-identity:cloud:3", 64, 0x0966a1535c9adf98c89ded5c203d5d97, 0x0326427cdaf4c2e4a99fabce0683807e, 0x09cbeac2f239c84d1707d27fc67fb78e),
    ("wedge-identity:cloud:3", 512, 0x0966a1535c9adf98c89ded5c203d5d97, 0x19959a8bbb84ea66fde682da18978787, 0x0fc8b65184bb4a9b0300f98c48409445),
    ("", 0, 0x2a842e28606f7316f532b86b254fc6b1, 0x0ba1e283d593a6002dd76ac6fd8063f5, 0x01cb6179d80c4f971db25ec5f1951400),
    ("", 1, 0x2a842e28606f7316f532b86b254fc6b1, 0x1f0bc27d82ee1ee80551d8cb26c1aa3a, 0x0c71726cb5c8af79463d8ed282542d7e),
    ("", 55, 0x2a842e28606f7316f532b86b254fc6b1, 0x10f00415da5f2e244959493d0d311066, 0x1182ad6f3c138d1b84fa53d7d810a8f0),
    ("", 56, 0x2a842e28606f7316f532b86b254fc6b1, 0x05a78726dd680a68ec32a7462a54c684, 0x063a62ea2469fa11b977f9e69acbdf5d),
    ("", 64, 0x2a842e28606f7316f532b86b254fc6b1, 0x010ead3d32573135f035d31e17dd552c, 0x1aa28ad028ef9d5c9a5fa3206c12a92b),
    ("", 512, 0x2a842e28606f7316f532b86b254fc6b1, 0x0153f1f7566395c031eff680675018c5, 0x0ee9a4f65e006fe7e2adec0798da8c17),
    ("bench", 0, 0x2ab5c1222a5b88af60c3e2272d83cd01, 0x179058beb52c0cfe05922c20f63dc156, 0x0d5a5ae9acc3c6ef39149f378f1722d4),
    ("bench", 1, 0x2ab5c1222a5b88af60c3e2272d83cd01, 0x048dd6e09d691ffd9281b9424f21f9a4, 0x05e42ec68e4908b391a476bd46a4825c),
    ("bench", 55, 0x2ab5c1222a5b88af60c3e2272d83cd01, 0x05884ccdd2932a59f51c7b0975d66723, 0x0002e28d1752460d3397fb8c74290fab),
    ("bench", 56, 0x2ab5c1222a5b88af60c3e2272d83cd01, 0x161fbfe6fe4b1a836b087d10ca379351, 0x188bc3eb8a1bacaa57bdb855aa84b09d),
    ("bench", 64, 0x2ab5c1222a5b88af60c3e2272d83cd01, 0x0d92e318a71cb57aa0d8b2c7c23c547a, 0x0e31c7c9ccf894aca6edaaad8c36023e),
    ("bench", 512, 0x2ab5c1222a5b88af60c3e2272d83cd01, 0x0064b3da02bbac4aae0ab0c9cfb11e98, 0x0384874136346c64baed65b88a9ac16d),
    ("benchmark", 0, 0x3cad0db6b04986f9a1627f4d4724cec6, 0x0eb55df120981e9e271eb659f76544de, 0x1436f3eabd88d4b206dc5ecff366118f),
    ("benchmark", 1, 0x3cad0db6b04986f9a1627f4d4724cec6, 0x1f9e955b37c52c1ac38a276c2b926802, 0x0ae630d86ed7980c592a45a864b8d02d),
    ("benchmark", 55, 0x3cad0db6b04986f9a1627f4d4724cec6, 0x1bc0600cd0f346b8104b151591b6a756, 0x0ff4a53b936833ed59822e600700cb22),
    ("benchmark", 56, 0x3cad0db6b04986f9a1627f4d4724cec6, 0x0b5f6c0d6272d282f831e73a94f35141, 0x190b2e9a067ab0f78ce9c5019e6b1c9e),
    ("benchmark", 64, 0x3cad0db6b04986f9a1627f4d4724cec6, 0x13b5560693f065d5bcbba29861853d9e, 0x02a10f9891dec57cb4967b481ea37028),
    ("benchmark", 512, 0x3cad0db6b04986f9a1627f4d4724cec6, 0x179d2fc7c0b53628422f1b8b2b8e9bae, 0x0445b52cb3c5e37bdd3b354c225eda62),
    ("edge-node-1", 0, 0x24365675cffbfaed161e0d2e73f1e388, 0x1365746a856e65043c87635989d95896, 0x0af2db812713ee3d0d346290d3cd3229),
    ("edge-node-1", 1, 0x24365675cffbfaed161e0d2e73f1e388, 0x004eeb32a1d01b19bf242ab5b5e966fa, 0x116b13ef3d56a474342361dbc3d96496),
    ("edge-node-1", 55, 0x24365675cffbfaed161e0d2e73f1e388, 0x0ee8082a0d79db31094a79f9eb404128, 0x13231375398e85b8d9c82c1b07f78729),
    ("edge-node-1", 56, 0x24365675cffbfaed161e0d2e73f1e388, 0x027630e9d0dd43e25c26f181e68dea2f, 0x0374ec0d33df586029dd0a24c4164245),
    ("edge-node-1", 64, 0x24365675cffbfaed161e0d2e73f1e388, 0x094316d407a3835e5c2cdea7c70b8f32, 0x13594b642e4d16fb6f56a328a76a0edf),
    ("edge-node-1", 512, 0x24365675cffbfaed161e0d2e73f1e388, 0x01005dbdbd88d4b438c068a9ecbeb4be, 0x12e87a952dc5c12bcd175cb05a1c74b8),
];

#[test]
fn signatures_and_public_keys_match_the_pinned_table() {
    let seeds = seeds();
    for (row, &(seed, len, y, e, s)) in VECTORS.iter().enumerate() {
        let seed_idx = seeds.iter().position(|x| x == seed).expect("seed is in the seed list");
        let msg = message(seed_idx, len);
        let kp = Keypair::from_seed(seed.as_bytes());
        assert_eq!(kp.public().to_u128(), y, "row {row}: public key of {seed:?}");
        let sig = kp.sign(&msg);
        assert_eq!((sig.e, sig.s), (e, s), "row {row}: signature of {seed:?} over {len} bytes");
        // The pinned bytes verify, both as signed and as decoded from
        // the wire under a key rebuilt from its encoding.
        let decoded = Signature::from_bytes(&Signature { e, s }.to_bytes());
        assert!(PublicKey::from_u128(y).verify(&msg, &decoded), "row {row}");
    }
}

#[test]
fn derived_identities_match_their_seed_rows() {
    for label in ["edge", "client", "cloud"] {
        for id in 0..=3u64 {
            let ident = Identity::derive(label, id);
            let seed = format!("wedge-identity:{label}:{id}");
            let rows: Vec<_> = VECTORS.iter().filter(|v| v.0 == seed).collect();
            assert_eq!(rows.len(), 6, "{seed}");
            let seed_idx = seeds().iter().position(|x| *x == seed).expect("listed");
            for &&(_, len, y, e, s) in &rows {
                assert_eq!(ident.public().to_u128(), y, "{seed}");
                let sig = ident.sign(&message(seed_idx, len));
                assert_eq!((sig.e, sig.s), (e, s), "{seed} over {len} bytes");
            }
        }
    }
}

#[test]
fn negative_vectors_are_rejected() {
    let seeds = seeds();
    for &(seed, len, y, e, s) in &VECTORS {
        let seed_idx = seeds.iter().position(|x| x == seed).expect("listed");
        let msg = message(seed_idx, len);
        let key = PublicKey::from_u128(y);
        assert!(key.verify(&msg, &Signature { e, s }));

        // Out-of-range scalars.
        assert!(!key.verify(&msg, &Signature { e: Q, s }));
        assert!(!key.verify(&msg, &Signature { e, s: Q + 5 }));
        assert!(!key.verify(&msg, &Signature { e: e + Q, s }));
        assert!(!key.verify(&msg, &Signature { e, s: s + Q }));
        // Degenerate or out-of-range public keys.
        for bad_y in [0, 1, P, y + P] {
            assert!(!PublicKey::from_u128(bad_y).verify(&msg, &Signature { e, s }), "y = {bad_y}");
        }
        // One flipped bit anywhere in `e`, `s` or the message.
        for bit in [0u32, 1, 63, 64, 124] {
            assert!(!key.verify(&msg, &Signature { e: e ^ (1 << bit), s }), "e bit {bit}");
            assert!(!key.verify(&msg, &Signature { e, s: s ^ (1 << bit) }), "s bit {bit}");
        }
        for at in [0, len / 2, len.saturating_sub(1)] {
            if at < len {
                let mut tampered = msg.clone();
                tampered[at] ^= 0x10;
                assert!(!key.verify(&tampered, &Signature { e, s }), "message byte {at}");
            }
        }
        // A neighbouring key never accepts it.
        assert!(!PublicKey::from_u128(y ^ 2).verify(&msg, &Signature { e, s }));
    }
}
