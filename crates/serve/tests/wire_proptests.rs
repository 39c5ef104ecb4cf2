//! Property tests of the wire layer: encode→decode identity for every
//! message kind, plus corrupt-input coverage (truncations at every
//! prefix, oversized length prefixes, bad version bytes) asserting
//! typed errors.
//!
//! Written against the offline proptest stand-in (ranges, tuples,
//! `Just`, `prop_map`/`prop_flat_map`, `collection::vec`), so variant
//! selection happens through an index field instead of `prop_oneof!`.

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::extension::AdaptiveTemperature;
use goldfish_core::loss::LossWeights;
use goldfish_core::transport::UnlearnJob;
use goldfish_fed::trainer::TrainConfig;
use goldfish_nn::loss::HardLossSpec;
use goldfish_serve::wire::{
    decode_frame, decode_update_into, encode_frame, FrameLimits, Msg, RoundMode, UpdateDecoder,
    WireError, HEADER_LEN, PROTOCOL_VERSION,
};
use proptest::prelude::*;

fn arb_f32s() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1e6f32..1e6, 0..64)
}

fn arb_cfg() -> impl Strategy<Value = TrainConfig> {
    (1usize..100, 1usize..500, 1e-6f32..1.0, 0.0f32..0.999).prop_map(
        |(local_epochs, batch_size, lr, momentum)| TrainConfig {
            local_epochs,
            batch_size,
            lr,
            momentum,
        },
    )
}

fn arb_hard() -> impl Strategy<Value = HardLossSpec> {
    (0u8..3, 0.0f32..8.0).prop_map(|(k, gamma)| match k {
        0 => HardLossSpec::CrossEntropy,
        1 => HardLossSpec::Focal { gamma },
        _ => HardLossSpec::Nll,
    })
}

fn opt(tag: u8, v: f32) -> Option<f32> {
    (tag == 1).then_some(v)
}

fn arb_job() -> impl Strategy<Value = UnlearnJob> {
    (
        arb_cfg(),
        (0.0f32..4.0, 0.0f32..4.0, 0.25f32..10.0),
        (0u8..2, 0.5f32..8.0, 0.5f32..4.0),
        (0u8..2, 0.01f32..2.0, 0u8..2, 0.5f32..10.0),
        arb_hard(),
    )
        .prop_map(
            |(cfg, (mu_c, mu_d, temperature), (at_tag, t0, alpha), opts, hard)| {
                let (early_tag, early, clip_tag, clip) = opts;
                UnlearnJob {
                    local: GoldfishLocalConfig {
                        epochs: cfg.local_epochs,
                        batch_size: cfg.batch_size,
                        lr: cfg.lr,
                        momentum: cfg.momentum,
                        weights: LossWeights {
                            mu_c,
                            mu_d,
                            temperature,
                        },
                        adaptive_temperature: (at_tag == 1)
                            .then_some(AdaptiveTemperature { t0, alpha }),
                        early_termination: opt(early_tag, early),
                        grad_clip: opt(clip_tag, clip),
                    },
                    hard: Some(hard),
                }
            },
        )
}

/// One strategy covering every message kind: an index field selects
/// the variant, the shared field pool fills it.
fn arb_msg() -> impl Strategy<Value = Msg> {
    (
        (0u8..12, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        arb_cfg(),
        arb_job(),
        proptest::collection::vec(0u64..1_000_000, 0..32),
        arb_f32s(),
        (0.0f64..1.0, 0.0f64..100.0, 0u8..128, 0usize..40),
    )
        .prop_map(|(ids, cfg, job, removed, floats, extras)| {
            let (kind, a, b, c) = ids;
            let (accuracy, mse, ch, str_len) = extras;
            match kind {
                0 => Msg::Hello {
                    client_id: a,
                    state_len: b,
                    num_samples: c,
                    resume: (a % 2 == 0).then_some(b ^ c),
                },
                1 => Msg::Capabilities {
                    max_payload: a,
                    state_len: b,
                    agg_mode: (c % 4) as u8,
                    agg_param: a ^ b,
                },
                2 => Msg::RoundAssign {
                    mode: if a % 2 == 0 {
                        RoundMode::Train
                    } else {
                        RoundMode::Distill
                    },
                    round: b,
                    seed: c,
                    nonce: a ^ b ^ c,
                    cfg,
                    global: floats,
                },
                3 => Msg::Update {
                    round: a,
                    client_id: b,
                    weight: c,
                    nonce: a ^ c,
                    state: floats,
                },
                4 => Msg::UnlearnAssign {
                    job,
                    removed,
                    teacher: floats,
                },
                5 => Msg::UnlearnResult {
                    round: a,
                    client_id: b,
                    weight: c,
                    nonce: b ^ c,
                    state: floats,
                },
                6 => Msg::Eval {
                    round: a,
                    accuracy,
                    mse,
                    global: floats,
                },
                7 => Msg::Err {
                    code: (a % (u16::MAX as u64 + 1)) as u16,
                    detail: String::from_utf8(vec![b'a' + (ch % 26); str_len]).unwrap(),
                },
                8 => Msg::Ack,
                9 => Msg::UnlearnAck { num_samples: a },
                10 => Msg::Shutdown,
                _ => {
                    let mut digest = [0u8; 32];
                    for (i, byte) in digest.iter_mut().enumerate() {
                        *byte = (b.wrapping_add(i as u64) % 256) as u8;
                    }
                    Msg::Digest { round: a, digest }
                }
            }
        })
}

proptest! {
    #[test]
    fn encode_decode_identity(msg in arb_msg()) {
        let limits = FrameLimits::default();
        let frame = encode_frame(&msg, &limits).unwrap();
        let (back, used) = decode_frame(&frame, &limits).unwrap();
        prop_assert_eq!(used, frame.len());
        // Bit-exact: the identity gates rely on PartialEq over the f32
        // payloads (NaN-free by construction).
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn truncation_anywhere_is_typed(msg in arb_msg(), frac in 0.0f64..1.0) {
        let limits = FrameLimits::default();
        let frame = encode_frame(&msg, &limits).unwrap();
        let cut = ((frame.len() as f64) * frac) as usize;
        if cut < frame.len() {
            match decode_frame(&frame[..cut], &limits) {
                // Header and fixed fields surface as Truncated; cuts
                // inside a trailing f32 vector surface from the bulk
                // codec as Malformed. Either way: typed, no panic, no
                // partial value.
                Err(WireError::Truncated) | Err(WireError::Malformed(_)) => {}
                other => prop_assert!(false, "cut at {} gave {:?}", cut, other),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected(msg in arb_msg(), extra in 1u32..1_000_000) {
        let limits = FrameLimits { max_payload: 4096 };
        let frame = encode_frame(&msg, &FrameLimits::default()).unwrap();
        let announced = (limits.max_payload as u32).saturating_add(extra);
        let mut framed = frame;
        framed[6..10].copy_from_slice(&announced.to_le_bytes());
        match decode_frame(&framed, &limits) {
            Err(WireError::FrameTooLarge { len, max }) => {
                prop_assert_eq!(len, announced as u64);
                prop_assert_eq!(max, limits.max_payload);
            }
            other => prop_assert!(false, "got {:?}", other),
        }
    }

    #[test]
    fn bad_version_byte_is_rejected(msg in arb_msg(), version in 0u8..255) {
        if version != PROTOCOL_VERSION {
            let limits = FrameLimits::default();
            let mut frame = encode_frame(&msg, &limits).unwrap();
            frame[4] = version;
            prop_assert_eq!(
                decode_frame(&frame, &limits),
                Err(WireError::UnsupportedVersion { got: version })
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected(msg in arb_msg(), byte in 0usize..4) {
        let limits = FrameLimits::default();
        let mut frame = encode_frame(&msg, &limits).unwrap();
        frame[byte] ^= 0xFF;
        prop_assert!(matches!(
            decode_frame(&frame, &limits),
            Err(WireError::BadMagic { .. })
        ));
    }

    /// An update's state decodes as its bytes arrive: any split of the
    /// payload into pieces gives the header and state bits of the
    /// whole-frame `Msg` decode, and any prefix of it takes without error
    /// (the reactor reads updates this way, through a staging chunk).
    #[test]
    fn update_decodes_the_same_in_any_split(
        fields in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        state in arb_f32s(),
        distill in 0u8..2,
        cuts in proptest::collection::vec(0.0f64..1.0, 0..8),
    ) {
        let (round, client_id, weight, nonce) = fields;
        let msg = if distill == 1 {
            Msg::UnlearnResult { round, client_id, weight, nonce, state: state.clone() }
        } else {
            Msg::Update { round, client_id, weight, nonce, state: state.clone() }
        };
        let limits = FrameLimits::default();
        let frame = encode_frame(&msg, &limits).unwrap();
        let (kind, payload) = (frame[5], &frame[HEADER_LEN..]);
        let mut at: Vec<usize> = cuts.iter().map(|f| (f * payload.len() as f64) as usize).collect();
        at.push(0);
        at.push(payload.len());
        at.sort_unstable();
        let mut decoder = UpdateDecoder::new(kind, payload.len()).unwrap();
        let mut pieces = vec![0.5f32; 3]; // stale contents on purpose
        for w in at.windows(2) {
            decoder.take(&payload[w[0]..w[1]], &mut pieces).unwrap();
        }
        let header = decoder.header();
        prop_assert_eq!(
            (header.round, header.client_id, header.weight, header.nonce, header.distill),
            (round, client_id, weight, nonce, distill == 1)
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&pieces), bits(&state));
        let mut whole = Vec::new();
        prop_assert_eq!(decode_update_into(kind, payload, &mut whole).unwrap(), header);
        prop_assert_eq!(bits(&whole), bits(&state));
        prop_assert_eq!(decode_frame(&frame, &limits).unwrap().0, msg);
    }

    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        let _ = decode_frame(&bytes, &FrameLimits::default());
    }
}
