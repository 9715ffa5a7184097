//! Parallel design-space sweeps.
//!
//! The workbench's core activity is scenario analysis: the same workload
//! over a grid of candidate architectures. Individual simulations are
//! deterministic and independent, so the grid is embarrassingly parallel —
//! this module fans a sweep out over the host's cores with a simple shared
//! work queue (std scoped threads; results keep the input order, so a
//! parallel sweep is bit-identical to a serial one). The same queue,
//! [`run_ordered`], runs the per-node computational models of one detailed
//! or direct-execution run.

use std::sync::Mutex;

/// One worker thread per available host core (at least one).
pub fn auto_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Worker count for a sweep whose individual runs are themselves
/// multi-threaded: caps `workers × max_shards` at the host core count so
/// sharded runs don't oversubscribe the machine (at least one worker).
/// The computational phase of a detailed run inside a campaign is sized
/// the same way, with the campaign's `jobs × shards` as the divisor.
pub fn auto_workers_for(max_shards: usize) -> usize {
    workers_for(auto_workers(), max_shards)
}

fn workers_for(cores: usize, max_shards: usize) -> usize {
    (cores / max_shards.max(1)).max(1)
}

/// The ordered work queue: run `f(index, item)` over every item on up to
/// `workers` threads and return the results in input order.
///
/// Each worker claims the next unclaimed item, runs `f` and stores the
/// result in that item's slot. The calling thread is one of the workers, so
/// `workers - 1` threads (named `mermaid-worker-<i>`) are spawned and one
/// worker spawns none. A thread the host refuses to start (`RLIMIT_NPROC`,
/// an address-space limit) is done without: the workers that did start —
/// at worst the calling thread alone — finish the queue. A panic in `f` is
/// re-raised on the caller with its original payload once every worker has
/// stopped.
pub(crate) fn run_ordered<I, T, F>(items: Vec<I>, workers: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let workers = workers.clamp(1, items.len().max(1));
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || loop {
        // The guard is dropped before `f` runs: a panicking `f` poisons
        // nothing, the other workers drain the queue and the scope ends.
        let claimed = queue.lock().expect("claiming runs no user code").next();
        let Some((i, item)) = claimed else { return };
        let out = f(i, item);
        *slots[i].lock().expect("each slot is written once") = Some(out);
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers)
            .map_while(|w| {
                std::thread::Builder::new()
                    .name(format!("mermaid-worker-{w}"))
                    .spawn_scoped(scope, work)
                    .ok()
            })
            .collect();
        work();
        for handle in spawned {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("each slot is written once")
                .expect("every claimed item stores a result or panics")
        })
        .collect()
}

/// Run `f` over every configuration, in parallel, preserving input order.
///
/// `f` must be deterministic for reproducible sweeps (every simulator in
/// this workspace is). Panics in `f` are propagated.
pub fn parallel_sweep<C, T, F>(configs: Vec<C>, f: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    parallel_sweep_streaming(configs, auto_workers(), f, |_, _| {})
}

/// [`parallel_sweep`] with an explicit worker count and a streaming
/// completion hook: `on_done(index, &result)` fires as each configuration
/// finishes (in completion order, from whichever worker ran it), so long
/// campaigns can persist results incrementally instead of waiting for the
/// final barrier. `on_done` is serialised behind a lock — it never runs
/// concurrently with itself — and the returned vector still preserves
/// input order.
pub fn parallel_sweep_streaming<C, T, F, S>(
    configs: Vec<C>,
    workers: usize,
    f: F,
    on_done: S,
) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
    S: Fn(usize, &T) + Sync,
{
    let done = Mutex::new(());
    run_ordered(configs.iter().collect(), workers, |i, config| {
        let out = f(config);
        // A poisoned lock means an earlier `on_done` panicked; that panic
        // is already on its way to the caller, so carry on.
        let _serialised = done.lock().unwrap_or_else(|e| e.into_inner());
        on_done(i, &out);
        out
    })
}

/// Convenience: sweep labelled configurations and return `(label, value)`
/// pairs in input order.
pub fn labelled_sweep<C, T, F>(configs: Vec<(String, C)>, f: F) -> Vec<(String, T)>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    let (labels, cfgs): (Vec<String>, Vec<C>) = configs.into_iter().unzip();
    labels.into_iter().zip(parallel_sweep(cfgs, f)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::HybridSim;
    use crate::machines::MachineConfig;
    use mermaid_network::Topology;
    use mermaid_tracegen::{CommPattern, SizeDist, StochasticApp, StochasticGenerator};

    #[test]
    fn shard_aware_workers_cap_total_threads_at_the_core_count() {
        // workers × shards never exceeds the core count, and both floors
        // hold: at least one worker, shards of zero treated as one.
        assert_eq!(workers_for(8, 1), 8);
        assert_eq!(workers_for(8, 2), 4);
        assert_eq!(workers_for(8, 3), 2);
        assert_eq!(workers_for(8, 16), 1);
        assert_eq!(workers_for(1, 4), 1);
        assert_eq!(workers_for(8, 0), 8);
        for cores in 1..=16usize {
            for shards in 1..=8usize {
                let w = workers_for(cores, shards);
                assert!(w >= 1);
                assert!(
                    w == 1 || w * shards <= cores,
                    "{cores} cores {shards} shards -> {w}"
                );
            }
        }
        assert!(auto_workers_for(1) >= 1);
        // Around a detailed run inside a campaign the divisor is
        // jobs × shards: the reference host's two cores give a serial
        // campaign's run both and a `--jobs 2` campaign's runs one each.
        for (cores, jobs, shards, workers) in [
            (2, 1, 1, 2),
            (2, 2, 1, 1),
            (2, 1, 2, 1),
            (8, 2, 1, 4),
            (8, 2, 2, 2),
            (8, 4, 3, 1),
            (16, 3, 2, 2),
        ] {
            assert_eq!(
                workers_for(cores, jobs * shards),
                workers,
                "{cores} cores, {jobs} jobs x {shards} shards"
            );
        }
    }

    #[test]
    fn the_queue_hands_out_owned_items_and_keeps_their_order() {
        // Boxes are neither `Copy` nor shared: each item is moved into
        // exactly one call of `f`.
        for workers in [1, 2, 5, 64] {
            let items: Vec<Box<usize>> = (0..23).map(Box::new).collect();
            let out = run_ordered(items, workers, |i, item| {
                assert_eq!(i, *item);
                *item * 10
            });
            assert_eq!(out, (0..23).map(|i| i * 10).collect::<Vec<_>>());
        }
        assert!(run_ordered(Vec::<u8>::new(), 4, |_, x| x).is_empty());
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        let caller = std::thread::current().id();
        // One worker: nothing is spawned, every item runs on the caller.
        let ids = run_ordered(vec![(); 8], 1, |_, ()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        // Two workers, two items that wait for each other: the queue can
        // only drain if the caller and one named thread hold one each.
        let barrier = std::sync::Barrier::new(2);
        let names = run_ordered(vec![(); 2], 2, |_, ()| {
            barrier.wait();
            let me = std::thread::current();
            (me.id() == caller, me.name().map(str::to_string))
        });
        let spawned: Vec<_> = names.iter().filter(|(is_caller, _)| !is_caller).collect();
        assert_eq!(spawned.len(), 1, "{names:?}");
        assert_eq!(spawned[0].1.as_deref(), Some("mermaid-worker-1"));
    }

    #[test]
    fn parallel_results_preserve_order() {
        let inputs: Vec<u64> = (0..57).collect();
        let out = parallel_sweep(inputs.clone(), |&x| x * x);
        assert_eq!(out, inputs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u32> = parallel_sweep(Vec::<u32>::new(), |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_simulation_sweep_matches_serial() {
        let app = StochasticApp {
            phases: 2,
            ops_per_phase: SizeDist::Fixed(500),
            pattern: CommPattern::NearestNeighborRing,
            ..StochasticApp::scientific(4)
        };
        let traces = StochasticGenerator::new(app, 3).generate();
        let topos = vec![
            Topology::Ring(4),
            Topology::FullyConnected(4),
            Topology::Mesh2D { w: 2, h: 2 },
            Topology::Star(4),
        ];
        let serial: Vec<_> = topos
            .iter()
            .map(|&t| {
                HybridSim::new(MachineConfig::test_machine(t))
                    .run(&traces)
                    .predicted_time
            })
            .collect();
        let parallel = parallel_sweep(topos, |&t| {
            HybridSim::new(MachineConfig::test_machine(t))
                .run(&traces)
                .predicted_time
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn labelled_sweep_pairs_names() {
        let out = labelled_sweep(vec![("a".to_string(), 1u32), ("b".to_string(), 2)], |&x| {
            x + 10
        });
        assert_eq!(out, vec![("a".to_string(), 11), ("b".to_string(), 12)]);
    }

    #[test]
    fn streaming_sweep_reports_every_completion_and_preserves_order() {
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let inputs: Vec<u64> = (0..33).collect();
        let seen = Mutex::new(BTreeSet::new());
        let out = parallel_sweep_streaming(
            inputs.clone(),
            4,
            |&x| x + 1,
            |i, &r| {
                assert_eq!(r, i as u64 + 1, "callback got a mismatched result");
                assert!(seen.lock().unwrap().insert(i), "index {i} reported twice");
            },
        );
        assert_eq!(out, inputs.iter().map(|x| x + 1).collect::<Vec<_>>());
        assert_eq!(seen.lock().unwrap().len(), inputs.len());
    }

    #[test]
    fn streaming_sweep_serial_path_also_streams() {
        use std::sync::Mutex;
        let order = Mutex::new(Vec::new());
        let out = parallel_sweep_streaming(
            vec![10u32, 20, 30],
            1,
            |&x| x,
            |i, _| order.lock().unwrap().push(i),
        );
        assert_eq!(out, vec![10, 20, 30]);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        parallel_sweep(vec![1u32, 2, 3, 4, 5, 6, 7, 8], |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }
}
