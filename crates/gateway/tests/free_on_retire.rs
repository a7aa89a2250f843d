//! Device memory comes back when a gateway request retires.
//!
//! Gateway jobs have no dependants, so every attempt — successful or
//! failed — frees its buffers before the request answers. A long-running
//! gateway therefore holds no device memory between requests, and a
//! device with room for one job serves any number of them in turn.

use mcmm_chaos::ChaosConfig;
use mcmm_core::taxonomy::Vendor;
use mcmm_gateway::{Gateway, GatewayConfig, SubmitRequest};
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_serve::ServeConfig;

fn request(model: &str, vendor: &str, a: f32, n: usize) -> SubmitRequest {
    SubmitRequest {
        tenant: "leak".into(),
        shape: "saxpy".into(),
        model: model.into(),
        language: "C++".into(),
        vendor: vendor.into(),
        a,
        x: (0..n).map(|i| i as f32).collect(),
        y: vec![1.0; n],
    }
}

fn free_bytes(gw: &Gateway) -> Vec<u64> {
    gw.shards()
        .iter()
        .flat_map(|s| Vendor::ALL.into_iter().map(|v| s.service().device(v).memory().free_bytes()))
        .collect()
}

#[test]
fn device_memory_returns_to_baseline_after_a_fault_storm() {
    let chaos = ChaosConfig {
        budget: u64::MAX / 2,
        upload_p: 0.08,
        launch_p: 0.06,
        lane_crash_p: 0.06,
        read_back_p: 0.08,
        ..ChaosConfig::storm(21)
    };
    let gw = Gateway::new(GatewayConfig { shards: 2, chaos, ..GatewayConfig::default() })
        .expect("gateway up");
    let before = free_bytes(&gw);
    let routes = [("CUDA", "NVIDIA"), ("HIP", "AMD"), ("SYCL", "Intel"), ("OpenMP", "NVIDIA")];
    let mut answered = 0;
    for k in 0..120 {
        let (model, vendor) = routes[k % routes.len()];
        // Distinct `a` per request: nothing coalesces, every request runs.
        if gw.submit(&request(model, vendor, k as f32, 300)).is_ok() {
            answered += 1;
        }
    }
    let failed: u64 = gw.shards().iter().map(|s| s.service().counts().failed).sum();
    assert!(failed > 0, "the storm must fail some attempts, or the test proves nothing");
    assert!(answered > 100, "failover must rescue most requests ({answered}/120)");
    assert_eq!(free_bytes(&gw), before, "a retired request kept device memory");
    assert_eq!(gw.stats().device_bytes_in_use, 0);
}

#[test]
fn a_device_with_room_for_one_job_serves_them_all() {
    const N: usize = 1 << 18; // x and y: 1 MiB each
    const JOB_BYTES: u64 = 2 * 4 * N as u64;
    let cfg = GatewayConfig {
        shards: 1,
        // Tracing adds nothing to the memory question and is slow on 2¹⁸
        // elements in unoptimized test builds.
        serve: ServeConfig { tracing: false, ..ServeConfig::default() },
        ..GatewayConfig::default()
    };
    let gw = Gateway::new(cfg).expect("gateway up");
    let dev = gw.shards()[0].service().device(Vendor::Nvidia);
    let filler = dev.memory().free_bytes() - JOB_BYTES;
    dev.alloc(filler).expect("pre-fill leaves exactly one job's room");
    assert_eq!(dev.memory().free_bytes(), JOB_BYTES);

    for k in 0..10 {
        let req = request("CUDA", "NVIDIA", k as f32 + 0.5, N);
        let resp =
            gw.submit(&req).unwrap_or_else(|e| panic!("job {k}: {} {}", e.status, e.message));
        let want: Vec<u8> =
            (0..N).map(|i| req.a * i as f32 + 1.0).flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(resp.checksum, format!("{:016x}", fnv1a(&want)), "job {k}");
        assert!(!resp.coalesced);
        assert_eq!(dev.memory().free_bytes(), JOB_BYTES, "job {k} kept its buffers");
    }
    assert_eq!(gw.stats().device_bytes_in_use, filler);
}
