//! The metric names this binary reports. `BENCHMARK.json` at the
//! repository root declares the same lists (a unit test keeps the two
//! in step); the regression bounds live only there.

/// End-to-end metrics, `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, reported by every traced run. A
/// workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 74] = [
    // harness
    ("trace.overhead_share", "ratio"),
    ("proc.cpu_ms_per_op", "ms"),
    // simd: machine context for the *_peak_share ratios
    ("simd.fma_peak_gflops", "GFLOP/s"),
    ("simd.triad_gbps", "GB/s"),
    ("simd.fused_chain_gbps", "GB/s"),
    // tensor
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_peak_share", "ratio"),
    ("tensor.transpose2_gbps", "GB/s"),
    // par
    ("par.predict_speedup_2t", "ratio"),
    ("par.train_speedup_2t", "ratio"),
    ("par.peb_speedup_2t", "ratio"),
    // pool
    ("pool.misses_per_op", "count"),
    ("pool.fresh_allocs_per_op", "count"),
    ("pool.first_predict_ms", "ms"),
    // fft
    ("fft.conv2d_ms", "ms"),
    // nn
    ("nn.patch_embed_ms", "ms"),
    ("nn.attention_ms", "ms"),
    ("nn.mlp_ms", "ms"),
    ("nn.layernorm_ms", "ms"),
    ("nn.dwconv3d_ms", "ms"),
    ("nn.attention_fwdbwd_ms", "ms"),
    ("nn.patch_embed_fwdbwd_ms", "ms"),
    // mamba
    ("mamba.scan_fwd_ms", "ms"),
    ("mamba.scan_fwdbwd_ms", "ms"),
    ("mamba.scan_melem_per_s", "Melem/s"),
    ("mamba.sdm_unit_ms", "ms"),
    // core
    ("core.stem_ms", "ms"),
    ("core.stage1_ms", "ms"),
    ("core.stage2_ms", "ms"),
    ("core.stage3_ms", "ms"),
    ("core.stage4_ms", "ms"),
    ("core.fusion_ms", "ms"),
    ("core.decoder_ms", "ms"),
    ("core.predict_ms", "ms"),
    ("core.coverage", "ratio"),
    ("core.train_fwd_ms", "ms"),
    ("core.train_bwd_ms", "ms"),
    ("core.train_opt_ms", "ms"),
    ("core.train_loss_ms", "ms"),
    // litho
    ("litho.optics_ms", "ms"),
    ("litho.dill_ms", "ms"),
    ("litho.peb_ms", "ms"),
    ("litho.mack_ms", "ms"),
    ("litho.eikonal_ms", "ms"),
    ("litho.metrology_ms", "ms"),
    ("litho.coverage", "ratio"),
    ("litho.peb_mvoxel_steps_per_s", "Mvoxel/s"),
    // plan
    ("plan.record_ms", "ms"),
    ("plan.replay_ms", "ms"),
    ("plan.eager_ms", "ms"),
    ("plan.replay_over_eager", "ratio"),
    ("plan.arena_mb", "MiB"),
    ("plan.served_share", "ratio"),
    // serve
    ("serve.engine_hop_ms", "ms"),
    ("serve.http_hop_ms", "ms"),
    ("serve.encode_clip_us", "us"),
    ("serve.decode_resp_us", "us"),
    ("serve.parse_request_us", "us"),
    ("serve.crc_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.plan_hit_share", "ratio"),
    ("serve.shed_count", "count"),
    ("serve.engine_busy_share", "ratio"),
    ("serve.latency_p99_ms", "ms"),
    // fleet
    ("fleet.router_hop_ms", "ms"),
    ("fleet.hash_us", "us"),
    ("fleet.shard_skew", "ratio"),
    ("fleet.retries", "count"),
    ("fleet.failovers", "count"),
    ("fleet.restarts", "count"),
    ("fleet.gen_late_p99_ms", "ms"),
    ("fleet.late_share", "ratio"),
    ("fleet.latency_p95_ms", "ms"),
    ("fleet.worker_cpu_ms_per_op", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert!(
            END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"),
            "the contract requires setup_s in seconds"
        );
    }
}
