//! End-to-end exercise of the `peb-obs` observability layer.
//!
//! One test function drives the full pipeline — rigorous litho flow plus
//! a micro training run — under JSON tracing and asserts that (a) every
//! instrumented subsystem shows up in the profile with non-zero spans and
//! counters, (b) tracing does not perturb numerics (bitwise-identical
//! model output with tracing on and off), and (c) the emitted trace file
//! is well-formed JSON with the chrome://tracing keys; then (d) that one
//! traced full-size `predict` is ≥ 90 % attributed to named spans, that
//! the batched conv layers keep counting the GEMM work they run below
//! `Tensor::matmul`, and that tracing costs a serving-size `predict`
//! under 2 %.
//!
//! A single `#[test]` keeps the global trace mode race-free without
//! locking; the mode is restored to `Off` before returning so the
//! process-exit hook does not write a stray trace file.

use peb_litho::{Grid, LithoFlow, MaskConfig};
use peb_obs::TraceMode;
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{PebPredictor, SdmPeb, SdmPebConfig, TrainConfig, Trainer};

#[test]
fn tracing_profiles_the_pipeline_without_perturbing_it() {
    peb_obs::set_mode(TraceMode::Off);
    let grid = Grid::new(16, 16, 4, 8.0, 8.0, 20.0).unwrap();
    let clip = MaskConfig::demo(grid.nx).generate(42).unwrap();
    let mut flow = LithoFlow::new(grid);
    flow.peb.duration = 10.0; // shorten the bake for test runtime
    let mut rng = StdRng::seed_from_u64(7);
    let model = SdmPeb::new(SdmPebConfig::tiny((grid.nz, grid.ny, grid.nx)), &mut rng);
    let probe = Tensor::rand_uniform(&grid.shape3(), 0.0, 1.0, &mut rng);

    // Baseline with tracing fully off.
    let baseline = model.predict(&probe);

    // Same pipeline under JSON tracing. The prediction is repeated
    // first, before training mutates the weights.
    peb_obs::reset();
    peb_obs::set_mode(TraceMode::Json);
    let traced = model.predict(&probe);
    let sim = flow.run(&clip).expect("litho flow");
    assert!(sim.inhibitor.min_value() >= 0.0);
    let pairs = vec![(sim.acid0.clone(), sim.inhibitor.clone())];
    let mut cfg = TrainConfig::quick(2);
    cfg.accumulate = 1;
    let report = Trainer::new(cfg).fit(&model, &pairs).expect("training");
    assert!(report.final_loss.is_finite());

    // Tracing must be an observer only: bitwise-identical prediction.
    assert_eq!(baseline.shape(), traced.shape());
    for (i, (a, b)) in baseline.data().iter().zip(traced.data()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "tracing changed prediction at flat index {i}: {a} vs {b}"
        );
    }

    // Every instrumented subsystem must have fired.
    let profile = peb_obs::snapshot();
    for needle in [
        "gemm", "conv", "scan", "adi", "fft", "litho", "train", "optim",
    ] {
        assert!(
            profile.span_count(needle) > 0,
            "no spans matching {needle:?} in {:?}",
            profile.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
        );
    }
    for counter in [
        "gemm_flops",
        "fft_lines",
        "adi_tridiag_solves",
        "scan_lanes",
        "eikonal_sweeps",
        "tensor_allocs",
        "optimizer_steps",
    ] {
        assert!(profile.counter(counter) > 0, "counter {counter} is zero");
    }

    // The JSON report must be well-formed and carry the tracing keys.
    let path = std::env::temp_dir().join("peb_obs_integration_trace.json");
    let path = path.to_str().expect("utf-8 temp path");
    peb_obs::write_json(path).expect("write trace");
    let text = std::fs::read_to_string(path).expect("read trace back");
    std::fs::remove_file(path).ok();
    let mut parser = Json::new(&text);
    parser.value();
    parser.finish();
    for key in ["\"traceEvents\"", "\"counters\"", "\"spans\"", "\"ph\""] {
        assert!(text.contains(key), "trace JSON lacks {key}");
    }

    peb_obs::set_mode(TraceMode::Off);
    peb_obs::reset();

    glue_is_attributed_and_tracing_stays_cheap();
}

/// The `ew.*` spans make the forward pass's glue visible: one traced
/// full-size `predict` attributes ≥ 90 % of `model.forward` to named
/// child spans, with the same bits as untraced, and summary tracing
/// costs a serving-size `predict` under 2 %. (Called from the one test
/// above: the trace mode is process-global.)
fn glue_is_attributed_and_tracing_stays_cheap() {
    let mut rng = StdRng::seed_from_u64(9);
    let dims = (32, 128, 128);
    let model = SdmPeb::new(SdmPebConfig::for_grid(dims), &mut rng);
    let clip = Tensor::rand_uniform(&[dims.0, dims.1, dims.2], 0.0, 0.9, &mut rng);
    let untraced = model.predict(&clip); // also warms the pool
    peb_obs::set_mode(TraceMode::Summary);
    let traced = model.predict(&clip);
    peb_obs::set_mode(TraceMode::Off);
    assert_eq!(untraced.bit_digest(), traced.bit_digest());
    let profile = peb_obs::snapshot();
    let forward = "model.predict/model.forward";
    let total_ns = |path: &str| {
        profile
            .spans
            .iter()
            .find(|s| s.path == path)
            .map_or(0, |s| s.stat.total_ns)
    };
    let children: u64 = profile
        .spans
        .iter()
        .filter(|s| {
            s.path
                .strip_prefix(forward)
                .and_then(|rest| rest.strip_prefix('/'))
                .is_some_and(|name| !name.contains('/'))
        })
        .map(|s| s.stat.total_ns)
        .sum();
    let coverage = children as f64 / total_ns(forward).max(1) as f64;
    assert!(
        coverage >= 0.90,
        "named spans cover only {:.1} % of model.forward",
        coverage * 100.0
    );
    for name in [
        "ew.chain",
        "ew.broadcast",
        "ew.permute",
        "ew.concat",
        "ew.layernorm",
        "attn.fwd",
    ] {
        assert!(profile.span_count(name) > 0, "no {name} span in a predict");
    }
    peb_obs::reset();

    // Cost: best-of-N alternating traced/untraced predicts at the
    // serving configuration. Machine noise only ever inflates a minimum,
    // so a genuine overhead fails every round while a noisy round is
    // retried.
    let dims = (8, 32, 32);
    let model = SdmPeb::new(SdmPebConfig::for_grid(dims), &mut rng);
    let clip = Tensor::rand_uniform(&[dims.0, dims.1, dims.2], 0.0, 0.9, &mut rng);
    // Counters stay truthful below `Tensor::matmul`: the conv layers run
    // direct kernels, one call per batched layer, and still account
    // every multiply-add — the count of the per-plane `matmul` calls they
    // replaced — under their own spans.
    peb_obs::set_mode(TraceMode::Summary);
    std::hint::black_box(model.predict(&clip));
    peb_obs::set_mode(TraceMode::Off);
    let profile = peb_obs::snapshot();
    // The fusion head's share, from its per-GEMM shapes (F = 32,
    // hidden = 96; stages C = 12/24/36/48 over L = 512/128/32/8 tokens):
    //   M_i = P_i·W1_i      2·C_i·F·hidden summed = 2·120·32·96 =   737 280
    //   folded bias         2·1·(4·F)·hidden      =                24 576
    //   stage GEMMs         2·hidden·Σ C_i·L_i    = 192·10 752 = 2 064 384
    //   fc2                 2·F·hidden·L₁         =             3 145 728
    // 5 971 968 in all, against 16 416 768 for the concat form it
    // replaced (the projections' 688 128, fc1 over 128 channels at L₁
    // 12 582 912, the same fc2): 10 444 800 fewer than 55 353 856.
    // Both dense 2-D conv layers run as direct sub-pixel kernels and
    // count their multiply-adds under `gemm_flops`, the count of the
    // GEMMs they replaced. The decoder's transposed convs: each output
    // takes Cin·⌈k/s⌉² taps, the Cin·k² per input pixel the GEMM + fold
    // form counted. The patch embeds: each of the Cout·Ho·Wo outputs per
    // plane takes Cin·k² taps, 2·D·Cout·Cin·k²·Ho·Wo over D = 8 planes
    //   stage 1    1→12 k7 to 8²    2·8·12·49·64   =   602 112
    //   stage 2   12→24 k3 to 4²    2·8·24·108·16  =   663 552
    //   stage 3   24→36 k3 to 2²    2·8·36·216·4   =   497 664
    //   stage 4   36→48 k3 to 1²    2·8·48·324·1   =   248 832
    // — 2 012 160 in all — so the total stays 44 909 056. Neither
    // materialises a patch matrix.
    assert_eq!(profile.counter("gemm_flops"), 44_909_056);
    for name in ["conv.convt2_fwd", "conv.conv2d_fwd", "conv.dw3_fwd"] {
        assert!(profile.span_count(name) > 0, "no {name} span in a predict");
    }
    peb_obs::reset();

    let timed = |mode| {
        peb_obs::set_mode(mode);
        let t = std::time::Instant::now();
        std::hint::black_box(model.predict(&clip));
        t.elapsed()
    };
    let mut ratio = f64::MAX;
    for _round in 0..12 {
        let (mut off, mut on) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..25 {
            off = off.min(timed(TraceMode::Off));
            on = on.min(timed(TraceMode::Summary));
        }
        ratio = ratio.min(on.as_secs_f64() / off.as_secs_f64());
        if ratio <= 1.02 {
            break;
        }
    }
    peb_obs::set_mode(TraceMode::Off);
    peb_obs::reset();
    assert!(
        ratio <= 1.02,
        "summary tracing costs {:.1} %",
        (ratio - 1.0) * 100.0
    );
}

/// Minimal validating JSON parser (no serde_json in the dependency
/// tree). Panics with a byte offset on malformed input; values are
/// checked, not built.
struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Json<'a> {
    fn new(text: &'a str) -> Self {
        Json {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn finish(&mut self) {
        self.skip_ws();
        assert!(
            self.pos == self.bytes.len(),
            "trailing bytes at offset {}",
            self.pos
        );
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        assert!(self.pos < self.bytes.len(), "unexpected end of JSON");
        self.bytes[self.pos]
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) {
        let got = self.peek();
        assert_eq!(
            got as char, b as char,
            "expected {:?} at offset {}",
            b as char, self.pos
        );
        self.pos += 1;
    }

    fn value(&mut self) {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string(),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            _ => self.number(),
        }
    }

    fn object(&mut self) {
        self.expect(b'{');
        if self.peek() == b'}' {
            self.pos += 1;
            return;
        }
        loop {
            self.string();
            self.expect(b':');
            self.value();
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return;
                }
                c => panic!(
                    "expected ',' or '}}' at offset {}, got {:?}",
                    self.pos, c as char
                ),
            }
        }
    }

    fn array(&mut self) {
        self.expect(b'[');
        if self.peek() == b']' {
            self.pos += 1;
            return;
        }
        loop {
            self.value();
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return;
                }
                c => panic!(
                    "expected ',' or ']' at offset {}, got {:?}",
                    self.pos, c as char
                ),
            }
        }
    }

    fn string(&mut self) {
        self.expect(b'"');
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return;
                }
                b'\\' => self.pos += 2,
                c => {
                    assert!(c >= 0x20, "raw control byte in string at {}", self.pos);
                    self.pos += 1;
                }
            }
        }
        panic!("unterminated string");
    }

    fn literal(&mut self, lit: &str) {
        assert!(
            self.bytes[self.pos..].starts_with(lit.as_bytes()),
            "bad literal at offset {}",
            self.pos
        );
        self.pos += lit.len();
    }

    fn number(&mut self) {
        let start = self.pos;
        if self.peek() == b'-' {
            self.pos += 1;
        }
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'
            )
        {
            self.pos += 1;
        }
        assert!(self.pos > start, "expected a number at offset {start}");
    }
}
