//! Quickstart: build a benchmark network, compile it for every possible
//! allocation, and co-locate two inference requests on one Planaria chip.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use planaria::arch::AcceleratorConfig;
use planaria::compiler::compile;
use planaria::core::PlanariaEngine;
use planaria::model::DnnId;
use planaria::workload::Request;

fn main() {
    // 1. A benchmark network is a plain layer list.
    let net = DnnId::ResNet50.build();
    println!("{net}");

    // 2. The compiler produces one configuration table per allocation size
    //    (the paper's "16 binaries and 16 configuration tables per DNN").
    let cfg = AcceleratorConfig::planaria();
    let compiled = compile(&cfg, &net);
    println!("tables: {}", compiled.num_tables());
    for s in [1u32, 4, 16] {
        println!(
            "  {s:>2} subarrays -> {:.3} ms",
            compiled.table(s).total_cycles().seconds_at(cfg.freq_hz) * 1e3
        );
    }

    // 3. Spatial multi-tenancy: two requests arrive together; Algorithm 1
    //    fissions the chip so both make progress simultaneously.
    let engine = PlanariaEngine::new(cfg);
    let request = |id, dnn| Request {
        id,
        dnn,
        arrival: 0.0,
        priority: 5,
        qos: 0.015,
    };
    let result = engine.run([request(0, DnnId::ResNet50), request(1, DnnId::MobileNetV1)]);
    for c in &result.completions {
        println!(
            "request {} ({}): latency {:.3} ms, QoS {}",
            c.request.id,
            c.request.dnn,
            c.latency() * 1e3,
            if c.met_qos() { "met" } else { "missed" }
        );
    }
    println!(
        "total energy: {:.2} mJ",
        result.total_energy.to_joules() * 1e3
    );
}
