//! Geometry-cache compile-time guard: building an 8-node
//! single-geometry fleet must cost one library compile, not eight.
//!
//! The [`CompiledLibrary::shared_for`] cache keys compiled tables by
//! the full chip geometry, so every engine of a fleet that shares a
//! shape shares one `Arc`'d library. This bench measures engine
//! construction for 1 node vs an 8-node homogeneous fleet vs a fleet
//! of K distinct geometries, asserts the cache-miss counters match the
//! distinct-geometry count exactly, and guards the headline ratio: the
//! 8-node fleet must build in well under 8× the single-node time.
//!
//! Writes `results/BENCH_geometry.json`. `PLANARIA_BENCH_SMOKE=1`
//! skips the JSON record (CI smoke) but still runs every assertion.

use planaria_arch::{named_sweep, AcceleratorConfig};
use planaria_compiler::CompiledLibrary;
use planaria_core::{Fleet, PlanariaEngine};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let smoke = std::env::var("PLANARIA_BENCH_SMOKE").is_ok_and(|v| v == "1");

    // Cold single-node build: a geometry nothing has compiled yet in
    // this process (the paper chip at 8 pods stays out of every other
    // stage of this bench).
    let cold_cfg = AcceleratorConfig::builder()
        .pods(8)
        .crossbar_derate()
        .build()
        .expect("valid geometry");
    let (_, misses0) = CompiledLibrary::cache_stats();
    let t0 = Instant::now();
    let single = black_box(Fleet::new(vec![PlanariaEngine::new(cold_cfg)]).expect("valid fleet"));
    let t_single = t0.elapsed().as_secs_f64();
    let (_, misses1) = CompiledLibrary::cache_stats();
    assert_eq!(misses1 - misses0, 1, "one cold geometry, one compile");
    drop(single);

    // 8-node homogeneous fleet on another cold geometry: the first
    // engine compiles, the other seven hit the cache.
    let fleet_cfg = AcceleratorConfig::builder()
        .pods(2)
        .crossbar_derate()
        .build()
        .expect("valid geometry");
    let t0 = Instant::now();
    let fleet = black_box(
        Fleet::new([fleet_cfg; 8].map(PlanariaEngine::new).to_vec()).expect("valid fleet"),
    );
    let t_fleet8 = t0.elapsed().as_secs_f64();
    let (_, misses2) = CompiledLibrary::cache_stats();
    assert_eq!(
        misses2 - misses1,
        1,
        "8-node single-geometry fleet compiles once"
    );
    drop(fleet);

    // K distinct geometries: exactly K compiles, regardless of how many
    // engines share each shape. The named sweep's distinct shapes are
    // the natural K (pods4 aliases the granule32 paper point, and the
    // two stages above already warmed the pods8/pods2 shapes).
    let sweep: Vec<AcceleratorConfig> = named_sweep().into_iter().map(|p| p.cfg).collect();
    let mut seen = vec![cold_cfg, fleet_cfg];
    let mut distinct_cold = 0u64;
    for cfg in &sweep {
        if !seen.contains(cfg) {
            seen.push(*cfg);
            distinct_cold += 1;
        }
    }
    let t0 = Instant::now();
    for cfg in &sweep {
        black_box(CompiledLibrary::shared_for(cfg));
    }
    let t_sweep = t0.elapsed().as_secs_f64();
    let (_, misses3) = CompiledLibrary::cache_stats();
    assert_eq!(
        misses3 - misses2,
        distinct_cold,
        "distinct geometries compile exactly once each"
    );

    let speedup8 = 8.0 * t_single / t_fleet8;
    println!("single-node build (cold geometry): {t_single:.4}s");
    println!(
        "8-node single-geometry fleet build: {t_fleet8:.4}s ({speedup8:.1}x vs 8 cold builds)"
    );
    println!(
        "named sweep ({} points, {distinct_cold} cold): {t_sweep:.4}s",
        sweep.len()
    );
    // The guard: sharing must beat recompiling. One compile plus seven
    // cache hits has to land far under eight compiles; 2x headroom on
    // the 8x ideal absorbs allocator noise on loaded CI hosts.
    assert!(
        speedup8 > 4.0,
        "8-node fleet build gained only {speedup8:.1}x over 8 cold compiles"
    );

    if smoke {
        println!("[smoke mode: results/BENCH_geometry.json left untouched]");
        return;
    }
    let (hits, misses) = CompiledLibrary::cache_stats();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"single_node_build_s\": {t_single:.4},");
    let _ = writeln!(s, "  \"fleet8_build_s\": {t_fleet8:.4},");
    let _ = writeln!(s, "  \"fleet8_speedup_vs_cold\": {speedup8:.2},");
    let _ = writeln!(s, "  \"named_sweep_build_s\": {t_sweep:.4},");
    let _ = writeln!(s, "  \"cache_hits\": {hits},");
    let _ = writeln!(s, "  \"cache_misses\": {misses}");
    s.push_str("}\n");
    let path = planaria_bench::results_dir().join("BENCH_geometry.json");
    match std::fs::create_dir_all(planaria_bench::results_dir())
        .and_then(|()| std::fs::write(&path, s))
    {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
