//! Pinned vectors for the public signature surface: the RFC 8032 §7.1
//! test vectors, an outcome table for malformed and adversarial inputs,
//! and signatures recorded from the commit before the division-free
//! kernels. Everything here goes through the public API only, so the
//! file runs unchanged against an older checkout — which is how the
//! recorded values were taken and the outcome table was confirmed.

use at_crypto::scalar::order;
use at_crypto::{
    verify_batch, KeyStore, Keypair, PrecomputedKey, PublicKey, Signature, SignatureError,
};
use at_model::ProcessId;

fn unhex(hex: &str) -> Vec<u8> {
    assert!(hex.len().is_multiple_of(2));
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// RFC 8032 §7.1 TEST 1024's 1023-byte message.
const TEST_1024_MESSAGE: &[&str] = &[
    "08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98fa6e264bf09efe12ee50f8f54e9f77b1",
    "e355f6c50544e23fb1433ddf73be84d879de7c0046dc4996d9e773f4bc9efe5738829adb26c81b37c93a1b270b20329d",
    "658675fc6ea534e0810a4432826bf58c941efb65d57a338bbd2e26640f89ffbc1a858efcb8550ee3a5e1998bd177e93a",
    "7363c344fe6b199ee5d02e82d522c4feba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36553e",
    "06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbefefd75499da96bd68a8a97b928a8bbc10",
    "3b6621fcde2beca1231d206be6cd9ec7aff6f6c94fcd7204ed3455c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed1",
    "85ce81bd84359d44254d95629e9855a94a7c1958d1f8ada5d0532ed8a5aa3fb2d17ba70eb6248e594e1a2297acbbb39d",
    "502f1a8c6eb6f1ce22b3de1a1f40cc24554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13fd65f270",
    "88d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc2732e69485bbc9c90bfbd62481d9089b",
    "eccf80cfe2df16a2cf65bd92dd597b0707e0917af48bbb75fed413d238f5555a7a569d80c3414a8d0859dc65a46128ba",
    "b27af87a71314f318c782b23ebfe808b82b0ce26401d2e22f04d83d1255dc51addd3b75a2b1ae0784504df543af8969b",
    "e3ea7082ff7fc9888c144da2af58429ec96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e056a9b47acdb7",
    "51fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c42f58c30c04aafdb038dda0847dd988d",
    "cda6f3bfd15c4b4c4525004aa06eeff8ca61783aacec57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34df",
    "f7310fdc82aebfd904b01e1dc54b2927094b2db68d6f903b68401adebf5a7e08d78ff4ef5d63653a65040cf9bfd4aca7",
    "984a74d37145986780fc0b16ac451649de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a3ca8e1b939ae49e4",
    "88acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc5600a32ef5b52a1ecc820e308aa342721aac09",
    "43bf6686b64b2579376504ccc493d97e6aed3fb0f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5f",
    "b93246f6b1116398a346f1a641f3b041e989f7914f90cc2c7fff357876e506b50d334ba77c225bc307ba537152f3f161",
    "0e4eafe595f6d9d90d11faa933a15ef1369546868a7f3a45a96768d40fd9d03412c091c6315cf4fde7cb68606937380d",
    "b2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac86aba41c0618983f8741c5ef68d3a101e8a3b8ca",
    "c60c905c15fc910840b94c00a0b9d0",
];

/// RFC 8032 §7.1: (seed, public key, message, signature).
fn rfc8032_vectors() -> Vec<(&'static str, &'static str, Vec<u8>, &'static str)> {
    vec![
        (
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            Vec::new(),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        ),
        (
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            unhex("72"),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        ),
        (
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            unhex("af82"),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        ),
        (
            "f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5",
            "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e",
            unhex(&TEST_1024_MESSAGE.concat()),
            "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350\
             aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03",
        ),
    ]
}

#[test]
fn rfc8032_seed_to_public_key_to_signature() {
    for (seed, public, message, signature) in rfc8032_vectors() {
        let seed: [u8; 32] = unhex(seed).try_into().expect("32-byte seed");
        let keypair = Keypair::from_seed(&seed);
        assert_eq!(hex(keypair.public().as_bytes()), public);
        let sig = keypair.sign(&message);
        assert_eq!(
            hex(&sig.to_bytes()),
            signature,
            "message of {} bytes",
            message.len()
        );
        assert_eq!(keypair.public().verify(&message, &sig), Ok(()));
        assert_eq!(
            PrecomputedKey::new(*keypair.public()).verify(&message, &sig),
            Ok(())
        );
    }
    assert_eq!(unhex(&TEST_1024_MESSAGE.concat()).len(), 1023);
}

/// The three verification entry points on one input; they must agree,
/// and the batch must attribute a failure to index 0.
fn outcome(key: &PublicKey, message: &[u8], sig: &Signature) -> Result<(), SignatureError> {
    let plain = key.verify(message, sig);
    let precomputed = PrecomputedKey::new(*key);
    assert_eq!(precomputed.verify(message, sig), plain, "comb-table path");
    let batch = verify_batch(&[(&precomputed, message, sig)]);
    assert_eq!(batch, plain.map_err(|_| vec![0]), "batch path");
    plain
}

fn signature(r: &[u8], s: &[u8]) -> Signature {
    let mut bytes = [0u8; 64];
    bytes[..32].copy_from_slice(r);
    bytes[32..].copy_from_slice(s);
    Signature::from_bytes(&bytes)
}

#[test]
fn pinned_outcomes_for_malformed_and_adversarial_inputs() {
    use SignatureError::{EquationFailed, InvalidPoint, NonCanonicalScalar};
    let keypair = Keypair::from_seed(&[7u8; 32]);
    let other = Keypair::from_seed(&[8u8; 32]);
    let message = b"pay 10 to bob";
    let good = keypair.sign(message).to_bytes();
    let (r, s) = (&good[..32], &good[32..]);
    let key = keypair.public();

    assert_eq!(outcome(key, message, &signature(r, s)), Ok(()));
    assert_eq!(
        outcome(key, b"pay 99 to bob", &signature(r, s)),
        Err(EquationFailed),
        "tampered message"
    );
    assert_eq!(
        outcome(other.public(), message, &signature(r, s)),
        Err(EquationFailed),
        "wrong signer"
    );

    // Non-canonical S: ℓ itself, S + ℓ (the same residue), all ones.
    let l = order();
    let s_plus_l = at_crypto::bigint::U256::from_le_bytes(s.try_into().expect("32 bytes"))
        .overflowing_add(l)
        .0;
    for bad_s in [l.to_le_bytes(), s_plus_l.to_le_bytes(), [0xFF; 32]] {
        assert_eq!(
            outcome(key, message, &signature(r, &bad_s)),
            Err(NonCanonicalScalar)
        );
    }
    // ℓ − 1 is canonical: the equation is evaluated, and fails.
    let l_minus_1 = l.overflowing_sub(at_crypto::bigint::U256::ONE).0;
    assert_eq!(
        outcome(key, message, &signature(r, &l_minus_1.to_le_bytes())),
        Err(EquationFailed)
    );

    // R that does not decode: y ≥ p (p itself, p + 1 aliasing y = 1,
    // 2^255 − 1), the −0 encoding (y = 1, x = 0, sign bit set), a y
    // with no x on the curve. R is parsed before S, so a bad R wins.
    let p = at_crypto::field::prime().to_le_bytes();
    let mut p_plus_1 = p;
    p_plus_1[0] += 1;
    let mut all_ones = [0xFF; 32];
    all_ones[31] = 0x7F;
    let mut negative_zero = [0u8; 32];
    negative_zero[0] = 1;
    negative_zero[31] = 0x80;
    let mut off_curve = [0u8; 32];
    off_curve[0] = 2;
    for bad_r in [p, p_plus_1, all_ones, negative_zero, off_curve] {
        assert_eq!(
            outcome(key, message, &signature(&bad_r, s)),
            Err(InvalidPoint),
            "R = {}",
            hex(&bad_r)
        );
        assert_eq!(
            outcome(key, message, &signature(&bad_r, &[0xFF; 32])),
            Err(InvalidPoint)
        );
    }

    // Small-order R decodes (verification is cofactorless and does not
    // screen the torsion subgroup); against an honest key the equation
    // simply fails.
    let small_order = [
        "0100000000000000000000000000000000000000000000000000000000000000", // order 1
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // order 2
        "0000000000000000000000000000000000000000000000000000000000000000", // order 4
        "0000000000000000000000000000000000000000000000000000000000000080", // order 4
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a", // order 8
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05", // order 8
    ];
    for encoded in small_order {
        assert_eq!(
            outcome(key, message, &signature(&unhex(encoded), s)),
            Err(EquationFailed),
            "R = {encoded}"
        );
    }
    // … and the known consequence: under the identity as "public key",
    // (R = identity, S = 0) satisfies [S]B = R + [k]A for every message.
    let identity = PublicKey::from_bytes(&identity_encoding()).expect("identity decodes");
    assert_eq!(
        outcome(
            &identity,
            message,
            &signature(&identity_encoding(), &[0u8; 32])
        ),
        Ok(())
    );
}

fn identity_encoding() -> [u8; 32] {
    let mut identity = [0u8; 32];
    identity[0] = 1;
    identity
}

/// Signatures of `KeyStore::deterministic(4, 7)` (the key store of the
/// `tcp4_ed25519` benchmark workload) over three fixed messages, as the
/// parent commit produced them: signer-major, message-minor.
const PARENT_SIGNATURES: [&str; 12] = [
    // signer 0: public key 60a1e4e76c9cb9165afee92f99571ae2429cd2cfcb54f8f9ea6dd91792561047
    "4a84e1dcd80018ae92b5e92ff2b46cb2c118ca28cc26792c2c7d23aae2bb31f30f9829da04d48111b8b21f27b2fe55a384c7dcd58921e416b0d051d1df05ec0d",
    "5c4f3f30a2f4618e138684dd6af9d6c33284f1b245456a2ad7424695791e2b01d2550a6f981039250f8e7f8db516a4395a03dfe9cce2520e82d338a303a0b903",
    "afec2c193a185b0ecadbaeba4e1bc97f2a5b77fb82f3aa84fd3a5d531ca5a377bc95ac2d36845472a945039459169e1f30fefce309272c493b314e3f1874be07",
    // signer 1: public key 73751b83656ccd0397d8028487483e7d62d751c2a8c76375bcc4f316fb936566
    "a23d4864778d26f2a56be57e24c7ad964d83b1b8e6957e4fa8fcbc996a1fd102a41649fa32027fb47f4562b056483497feacb916b9956e1d4609f2737ad3f50a",
    "ec6fe7c6a41cf7727155bac2c39af49be75be28ec67701193704ab43196b93df9ec7cf8baaabdc0812a8db906a03d0d40c67fd17788672ce0a58af24a7507a06",
    "819ba8641f17eaddb508e0d9d688aafc4901a04368b3834789dbf4ea596411a8bcf7ca4fe4136119a11a969f3d3e7b6da22af2fc16a352115a80fbf91b3fbf0e",
    // signer 2: public key eeeb92b7d7015b6ff44530a71dae063b3dcbcdb13df28f368add6356f1f7acf0
    "36f0b90e5290ffba95c42e21334949e64dfca7274a6d20ee982e2a68f966701de24144401a0fdb208c5c4ef21e2b2b591368073d03fad158a9a33e231de06c03",
    "b97c817537197837334af84d78fde5b5263bcf2c9bccf2580d659f69c1d45cd17f1bd148d0a9030cea6043ae79a3bac145efd7cb674ec6a87053fd3f0429d00b",
    "31fd26bd8d5b7979033edeac87ce406cd94f7ba731efeee4e9a37789ce499331a09b86191b9f0232d05ee45f75601114c4844c0766e08b3626dc2dedc77fb10a",
    // signer 3: public key cbc08b60f6ae012d6ee086b116eaec5eb13142e47e0f768a127ff3b1ceae0d3f
    "48046de9be83ff5f373bcd1380b703eda9a68d1a4b762239732b96fca336c33c66acde027963d6513aba9c0bfa22a367f746bb5defb14519e5c34c5ea9bd360a",
    "67ec20ec423e518435781f7f393faa4c7d5f890b30c3095f566f1d88d0648fda6e9626d3a95c14667b480d0cd505607393602abec2e9438b092554a627c04f0a",
    "1da5fc4cc6c6496133f005e9cf0d62e504acf45f7c7d25287fbede5bd4dd6b2caa366816bc2bfc4884d12eb48a26899dbaffd6c6f724294783f5d23080726006",
];

#[test]
fn signatures_are_byte_equal_to_the_recorded_parent() {
    let keys = KeyStore::deterministic(4, 7);
    let long = [0x5Au8; 192];
    let corpus: [&[u8]; 3] = [b"", b"the consensus number of a cryptocurrency is 1", &long];
    let mut recorded = PARENT_SIGNATURES.iter();
    for signer in 0..4u32 {
        let signer = ProcessId::new(signer);
        for message in corpus {
            let sig = keys.keypair(signer).sign(message);
            assert_eq!(
                hex(&sig.to_bytes()),
                *recorded.next().expect("12 recorded signatures")
            );
            assert_eq!(keys.public(signer).verify(message, &sig), Ok(()));
        }
    }
}
