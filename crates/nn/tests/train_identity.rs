//! Identity pins for `Seq2Seq` training on the configurations that
//! `tests/nmt_identity.rs` (LSTM, dot attention, one layer, dropout 0.2)
//! does not reach.
//!
//! Each case trains one model on a fixed synthetic corpus and pins an
//! FNV-1a digest over the `to_bits` of every tensor of its `freeze()`d
//! [`ModelSpec`] and of its loss curve. A change to the training tape that
//! moves a single weight or loss bit fails the matching case.

use mdes_nn::{
    AttentionKind, CellKind, Matrix, ModelSpec, PackedCell, QMatrix, Seq2Seq, Seq2SeqConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pinned digests, one per case. The training kernels of the fast and
/// `reference-kernels` builds round differently in low bits, so each build
/// pins its own table.
#[cfg(not(feature = "reference-kernels"))]
const PINS: [(&str, u64); 8] = [
    ("gru", 0xd276_cfe1_f23c_edc9),
    ("general_attention", 0x34cf_63b4_1533_02c3),
    ("input_feeding", 0xc538_1592_5f35_22da),
    ("two_layers", 0xf495_ee05_0578_f11c),
    ("no_dropout", 0x8834_1118_cbe8_4432),
    ("fit_fleet_shape", 0x22b4_84bb_da0f_f87f),
    ("stream_nmt_shape", 0x133b_7a3d_1222_a805),
    ("every_axis", 0x6082_28f3_996f_5992),
];
#[cfg(feature = "reference-kernels")]
const PINS: [(&str, u64); 8] = [
    ("gru", 0x529d_0467_f664_78b9),
    ("general_attention", 0x82c2_d6ef_a1d4_53c1),
    ("input_feeding", 0xbfee_5171_09a3_dcba),
    ("two_layers", 0xa69b_8cfa_6d09_d232),
    ("no_dropout", 0xb611_8cbe_ea01_98d1),
    ("fit_fleet_shape", 0x2fa4_6d6e_1208_6508),
    ("stream_nmt_shape", 0xf3a0_bbb6_58c9_e3bb),
    ("every_axis", 0x29a3_4d26_19cf_3a9d),
];

const VOCAB: usize = 14;
const BOS: usize = 1;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        self.f32s(m.data());
    }

    fn qmatrix(&mut self, q: &QMatrix) {
        match q {
            QMatrix::F32(m) => self.matrix(m),
            other => panic!("unexpected quantized weight {:?}", other.mode()),
        }
    }

    fn spec(&mut self, s: &ModelSpec) {
        self.qmatrix(&s.src_emb);
        self.qmatrix(&s.tgt_emb);
        for cell in s.encoder.iter().chain(&s.decoder) {
            match cell {
                PackedCell::Lstm { w, b, hidden } => {
                    self.qmatrix(w);
                    self.matrix(b);
                    self.u64(*hidden as u64);
                }
                PackedCell::Gru {
                    w_gates,
                    b_gates,
                    w_cand,
                    b_cand,
                    hidden,
                } => {
                    self.qmatrix(w_gates);
                    self.matrix(b_gates);
                    self.qmatrix(w_cand);
                    self.matrix(b_cand);
                    self.u64(*hidden as u64);
                }
            }
        }
        if let Some(w_a) = &s.w_a {
            self.qmatrix(w_a);
        }
        self.qmatrix(&s.w_c);
        self.matrix(&s.b_c);
        self.qmatrix(&s.w_out);
        self.matrix(&s.b_out);
        self.u64(s.hidden as u64);
        self.u64(u64::from(s.input_feeding));
        self.u64(s.bos as u64);
    }
}

/// A learnable corpus: each target token is the source token one position
/// earlier, shifted by one (mod the vocabulary, skipping `BOS`).
fn corpus(len: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = StdRng::seed_from_u64(0x5eed ^ len as u64);
    (0..24)
        .map(|_| {
            let src: Vec<usize> = (0..len).map(|_| rng.gen_range(2..VOCAB)).collect();
            let tgt: Vec<usize> = (0..len)
                .map(|t| {
                    let s = src[t.saturating_sub(1)];
                    2 + (s - 2 + 1) % (VOCAB - 2)
                })
                .collect();
            (src, tgt)
        })
        .collect()
}

/// The small model every case starts from; each case overrides one axis.
fn base() -> Seq2SeqConfig {
    Seq2SeqConfig {
        embed_dim: 6,
        hidden: 6,
        train_steps: 24,
        batch_size: 5,
        seed: 23,
        ..Seq2SeqConfig::default()
    }
}

fn digest(cfg: Seq2SeqConfig, len: usize) -> u64 {
    let mut model = Seq2Seq::new(VOCAB, VOCAB, BOS, cfg);
    let losses = model.fit(&corpus(len)).expect("fit");
    let mut h = Fnv::new();
    h.spec(&model.freeze());
    h.f32s(&losses);
    h.0
}

fn check(case: &str, cfg: Seq2SeqConfig, len: usize) {
    let pinned = PINS
        .iter()
        .find(|(name, _)| *name == case)
        .map(|&(_, d)| d)
        .expect("every case has a pin");
    let got = digest(cfg, len);
    assert_eq!(got, pinned, "{case}: digest {got:#018x}");
}

#[test]
fn gru_training_is_pinned() {
    check(
        "gru",
        Seq2SeqConfig {
            cell: CellKind::Gru,
            ..base()
        },
        7,
    );
}

#[test]
fn general_attention_training_is_pinned() {
    check(
        "general_attention",
        Seq2SeqConfig {
            attention: AttentionKind::General,
            ..base()
        },
        7,
    );
}

#[test]
fn input_feeding_training_is_pinned() {
    check(
        "input_feeding",
        Seq2SeqConfig {
            input_feeding: true,
            ..base()
        },
        7,
    );
}

#[test]
fn two_layer_training_is_pinned() {
    check(
        "two_layers",
        Seq2SeqConfig {
            layers: 2,
            ..base()
        },
        7,
    );
}

#[test]
fn dropout_free_training_is_pinned() {
    check(
        "no_dropout",
        Seq2SeqConfig {
            dropout: 0.0,
            ..base()
        },
        7,
    );
}

/// The per-pair model of the `fit_fleet` benchmark workload.
#[test]
fn fit_fleet_shaped_training_is_pinned() {
    check(
        "fit_fleet_shape",
        Seq2SeqConfig {
            embed_dim: 8,
            hidden: 8,
            batch_size: 4,
            train_steps: 30,
            ..Seq2SeqConfig::default()
        },
        10,
    );
}

/// The per-pair model of the `stream_nmt` benchmark workload.
#[test]
fn stream_nmt_shaped_training_is_pinned() {
    check(
        "stream_nmt_shape",
        Seq2SeqConfig {
            train_steps: 30,
            ..Seq2SeqConfig::default()
        },
        6,
    );
}

/// Every non-default axis at once: GRU cells in a two-layer stack with
/// general attention and input feeding.
#[test]
fn every_axis_training_is_pinned() {
    check(
        "every_axis",
        Seq2SeqConfig {
            cell: CellKind::Gru,
            attention: AttentionKind::General,
            input_feeding: true,
            layers: 2,
            dropout: 0.1,
            ..base()
        },
        7,
    );
}
