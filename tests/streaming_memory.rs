//! Peak-heap regression test for the streamed run paths (EXPERIMENTS.md E3).
//!
//! Detailed and direct-execution runs pull operations from the generator
//! as they simulate them, so their heap must not grow with `--ops`; a
//! task-mode run's checkpoints cost it no copy of its pending events. A
//! counting global allocator records the peak of live heap bytes around
//! `mermaid::cli::run`; this file is its own test binary so no other test
//! allocates while it measures, and it has one `#[test]` for the same
//! reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are only statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak of live heap bytes during `mermaid-cli <args>`, above what was
/// live when it started.
fn peak_heap(args: &[&str]) -> usize {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    mermaid::cli::run(&args).unwrap_or_else(|e| panic!("`{}` failed: {e}", args.join(" ")));
    PEAK.load(Relaxed) - base
}

#[test]
fn heap_is_flat_in_ops_on_every_streamed_run_path() {
    const KIB: usize = 1 << 10;
    let dir = std::env::temp_dir().join(format!("mermaid-streaming-memory-{}", std::process::id()));
    let out = dir.to_str().unwrap();
    let sim = |mode: &'static str| {
        move |ops: &str| {
            peak_heap(&[
                "sim",
                "--machine",
                "ppc601",
                "--topology",
                "mesh:4x4",
                "--mode",
                mode,
                "--phases",
                "4",
                "--ops",
                ops,
            ])
        }
    };
    let campaign = |ops: &str| {
        std::fs::remove_dir_all(&dir).ok();
        let spec =
            format!("topo = mesh:4x4; machine = ppc601; mode = detailed; phases = 4; ops = {ops}");
        peak_heap(&["campaign", &spec, "--out", out])
    };
    // (path, run, bound per node in flight): each bound is about twice what
    // the streamed path measures on one worker (271 kB, 106 kB, 274 kB);
    // materialised traces took 134 MB at --ops 50000 and 537 MB at --ops
    // 200000. Every worker of the computational phase holds one node's
    // model and task trace, and all three paths get one worker per host
    // core (the campaign has a single run, so a single job).
    let workers = mermaid::sweep::auto_workers().min(16);
    type Run<'a> = &'a dyn Fn(&str) -> usize;
    let paths: [(&str, Run, usize); 3] = [
        ("sim --mode detailed", &sim("detailed"), 512 * KIB),
        ("sim --mode direct", &sim("direct"), 256 * KIB),
        ("campaign mode = detailed", &campaign, 512 * KIB),
    ];
    println!("path                      --ops   workers   peak heap (bytes)");
    for (path, run, bound) in paths {
        let bound = bound * workers;
        let small = run("50000");
        let large = run("200000");
        println!("{path:<24} {:>6}   {workers:>7}   {small}", 50_000);
        println!("{path:<24} {:>6}   {workers:>7}   {large}", 200_000);
        assert!(
            small < bound,
            "{path}: peak heap {small} B at --ops 50000 (bound {bound} B)"
        );
        assert!(
            large.abs_diff(small) * 20 <= small,
            "{path}: peak heap moved from {small} B to {large} B when --ops went 4x"
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    // Task mode: checkpoints are written straight from the event queue,
    // so a capture holds no copy of the pending events. A checkpointing
    // run may peak above the same run without checkpoints by at most 64 B
    // per event pending at its largest capture: the component records and
    // buffers a capture does hold are independent of that count.
    let task = [
        "sim",
        "--machine",
        "t805",
        "--topology",
        "torus:8x8",
        "--mode",
        "task",
        "--pattern",
        "all2all",
        "--phases",
        "1",
    ];
    let plain = peak_heap(&task);
    std::fs::create_dir_all(&dir).unwrap();
    // A quarter of the run's 210 us predicted time.
    let every = ["--checkpoint-every", "50000000000", "--checkpoint-dir", out];
    let checkpointing = peak_heap(&[&task[..], &every].concat());
    let pending = std::fs::read_dir(&dir)
        .unwrap()
        .map(|f| std::fs::read_to_string(f.unwrap().path()).unwrap())
        .map(|snap| snap.lines().filter(|l| l.starts_with("event ")).count())
        .max()
        .expect("the run wrote snapshots");
    println!("sim --mode task, plain / checkpointing: {plain} / {checkpointing} bytes, {pending} events pending at the largest capture");
    assert!(pending > 10_000, "{pending} events pending");
    assert!(
        checkpointing.saturating_sub(plain) <= 64 * pending,
        "checkpoints cost {} B over the plain run's {plain} B with {pending} events pending",
        checkpointing.saturating_sub(plain)
    );
    std::fs::remove_dir_all(&dir).ok();
}
